"""McKay-Thompson data: twining genera and the weight-2 forms f_g.

Everything here is derived inside the repository.  For every class the
first six coefficients of f_g follow from the module layers K_1..K_5 of the
graded moonshine module -- 45+45b, 231+231b, 770+770b, 2 x 2277 and
2 x 5796 -- evaluated through the derived rational M24 table.  The series
is then extended through a classical basis of weight-2 forms for
Gamma_0(level) (Eisenstein differences of ``modforms.eisenstein_e2`` and
eta-product cusp forms), with the surplus low-order coefficients acting as
consistency checks.  Both steps run on ints: the traces times eta^3 at
scale 24, then the fit over the prefix's common denominator, read off
one integer kernel vector (x, D) of the basis rows and the prefix row
(``lattice.integer_kernel``) and divided once by D times that
denominator.  The factors eta(a tau) of the cusp forms are
``modforms.eta_scaled``, the pentagonal series.

Each twining genus e(g)/12 phi_{0,1} + f_g phi_{-2,1} is its pair
(``twining_pair``), and ``twining_genus`` builds the weak Jacobi form on its
y^0 and y^1 columns (``modforms.jacobi_form_columns``).

Two cross-checks pin the layer data, and each runs once, in the
acceptance battery rather than here: criterion 7 checks the layer
dimensions against the N=4 decomposition of the K3 elliptic genus, and
criterion 4 checks that for the seven nontrivial geometric classes the
Jacobi-form split of the fixed-point genus (``genus.jacobi_split``) gives
the same coefficients.

The exchange format is a small text file of exact rationals.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .qpoly import (
    _over_common_denominator, canonical_rational, exact_quotient, require_int,
    require_key,
)
from .series import TruncatedSeries
from .modforms import (
    eisenstein_e2, eta_power, eta_scaled, index_one_form, jacobi_form_columns,
)
from .lattice import integer_kernel
from .mill import class_data
from .n4char import twining_to_symtraces
from .tables import M24_LABEL, load_m24, data_dir
from .chartab import (
    CLASS_ORDER, SYMPLECTIC_CLASSES as GEOMETRIC_CLASSES, format_rational,
)
from .records import Record

__all__ = [
    "eisenstein_difference", "cusp_form", "m2_basis",
    "euler_character_value", "k_layer_trace", "sigma_coefficients",
    "f_from_traces", "fit_in_m2", "f_series", "twining_pair",
    "twining_genus", "symmetric_traces", "FgRecord", "write_fg_file",
    "read_fg_file", "AUDITED_CLASSES", "MOONSHINE_CLASSES",
    "GEOMETRIC_CLASSES", "CLASS_LEVEL",
]

# the classes of the integrality audit (``audit-integrality`` and
# acceptance criterion 10); their M24 labels are ``tables.M24_LABEL``'s
AUDITED_CLASSES = ("11A", "14AB", "15AB", "23AB")
MOONSHINE_CLASSES = AUDITED_CLASSES + ("2B", "4A-M24")

# Gamma_0 level of f_g (order times the moonshine multiplier, which is 1
# on the geometric classes).
CLASS_LEVEL = {**CLASS_ORDER, "2B": 4, "4A-M24": 8, "11A": 11, "14AB": 14,
               "15AB": 15, "23AB": 23}

# Module layers K_n for n = 1..5: orbit degree and number of copies.
_K_LAYERS = {1: (45, 2), 2: (231, 2), 3: (770, 2), 4: (2277, 2), 5: (5796, 2)}


def eisenstein_difference(d: int, trunc24: int) -> TruncatedSeries:
    """B_d = d E_2(d tau) - E_2(tau), a weight-2 form for Gamma_0(d)."""
    require_int("d", d, 1)
    e2 = eisenstein_e2(trunc24)
    terms = {k: -c for k, c in e2.terms.items()}
    for (q24, _y2), c in e2.terms.items():
        if d * q24 < trunc24:
            key = (d * q24, 0)
            terms[key] = terms.get(key, 0) + d * c
    return TruncatedSeries(terms, trunc24)


_CUSP_ETA_PRODUCTS = {
    11: ((1, 2), (11, 2)),
    14: ((1, 1), (2, 1), (7, 1), (14, 1)),
    15: ((1, 1), (3, 1), (5, 1), (15, 1)),
    23: ((1, 2), (23, 2)),
}


def cusp_form(level: int, trunc24: int) -> TruncatedSeries:
    """The eta-product newform of weight 2 for Gamma_0(level)."""
    factors = require_key("level", require_int("level", level),
                          _CUSP_ETA_PRODUCTS)
    s = TruncatedSeries.const(1, trunc24)
    for a, power in factors:
        for _ in range(power):
            s = s * eta_scaled(a, trunc24)
    return s.truncate(trunc24)


def _hecke_t2(f: TruncatedSeries, trunc24: int) -> TruncatedSeries:
    """T_2 on weight-2 forms of odd level: b_n = a_(2n) + 2 a_(n/2) for the
    orders n below trunc24, so f is read below 2 trunc24."""
    out = {}
    for n in range(-(-trunc24 // 24)):
        half = f.coeff(n // 2) if n % 2 == 0 and n > 0 else 0
        out[(24 * n, 0)] = f.coeff(2 * n) + 2 * half
    return TruncatedSeries(out, trunc24)


def m2_basis(level: int, trunc24: int) -> list:
    """A basis of M_2(Gamma_0(level)) for a level of ``CLASS_LEVEL``.

    Any other level raises ValueError: the Eisenstein differences and the
    stored cusp forms need not span its space (at level 9 they give two
    forms of three).
    """
    if require_int("level", level) not in CLASS_LEVEL.values():
        raise ValueError(f"no M_2 basis stored for level {level}")
    div = [d for d in range(2, level + 1) if level % d == 0]
    basis = [eisenstein_difference(d, trunc24) for d in div]
    if level in (11, 14, 15):
        basis.append(cusp_form(level, trunc24))
    elif level == 23:
        c = cusp_form(23, 2 * trunc24)
        basis.append(c.truncate(trunc24))
        basis.append(_hecke_t2(c, trunc24))
    return basis


# -- traces through the derived M24 table ---------------------------------------

def _m24_class(label: str):
    """The class of ``mill.class_data("M24")`` that ``label`` names."""
    m24_label = M24_LABEL.get(label, label)
    for c in class_data("M24").classes:
        if c.label == m24_label:
            return c
    raise ValueError(f"label must be an M24 class, got {label!r}")


def euler_character_value(label: str) -> int:
    """e(g): fixed points of the class on 24 letters (cycle-type data)."""
    return dict(_m24_class(label).cycle_type).get(1, 0)


def _orbit_row(table, degree: int, orbit: int):
    for ch in table.characters:
        if ch.degree == degree and ch.orbit_size == orbit:
            return ch
    raise KeyError(f"no M24 row of degree {degree} with orbit {orbit}")


def k_layer_trace(n: int, label: str) -> int:
    """Tr(g | K_n) for n = 0..5 evaluated at an M24 class."""
    m24_label = _m24_class(label).label
    if require_int("n", n, 0) > len(_K_LAYERS):
        raise ValueError(f"n must be <= {len(_K_LAYERS)}, got {n}")
    if n == 0:
        return -2
    degree, copies = _K_LAYERS[n]
    table = load_m24()
    col = table.class_index(m24_label)
    if copies == 2 and degree in (45, 231, 770):
        ch = _orbit_row(table, degree, 2)    # conjugate pair, orbit sum
        return ch.values[col]
    ch = _orbit_row(table, degree, 1)        # rational constituent, 2 copies
    return 2 * ch.values[col]


def sigma_coefficients() -> list:
    """Graded dimensions A_0..A_5 of the moonshine module.

    A_0 = -2 and A_n = dim K_n = degree x copies.  Acceptance criterion 7
    checks these against the N=4 decomposition of the elliptic genus.
    """
    return [-2] + [degree * copies for degree, copies in _K_LAYERS.values()]


# -- assembling f_g ---------------------------------------------------------------

def f_from_traces(label: str) -> list:
    """First coefficients of f_g = eta^3 (Sigma_g - e(g)/24 Sigma).

    The sign matches the Jacobi-form split against phi_{-2,1} = phi^2
    (which is the negative of the Eichler-Zagier-normalized form, so this
    f_g is the negative of the usual McKay-Thompson one).  The product runs
    on ints, 24 Sigma_g - e(g) Sigma times eta^3, and each coefficient is
    divided once by 24.
    """
    A = sigma_coefficients()
    e = euler_character_value(label)
    t = len(A) * 24
    # Sigma_g - e(g)/24 Sigma leads at q^(-1/8), and eta^3 at q^(1/8)
    diff = TruncatedSeries(
        {(24 * n - 3, 0): 24 * k_layer_trace(n, label) - e * a
         for n, a in enumerate(A)}, t - 3)
    f = diff * eta_power(3, t)
    return [exact_quotient(f.at(24 * n), 24) for n in range(len(A))]


def fit_in_m2(prefix: list, level: int, trunc24: int) -> TruncatedSeries:
    """The unique form in M_2(Gamma_0(level)) matching ``prefix``.

    The first dim coefficients pin the form; the remaining supplied
    coefficients must then agree (a genuine consistency check on both the
    prefix data and the basis).  The basis is integral, and the prefix is
    taken over its common denominator P, so the fit is the integer kernel
    (``lattice.integer_kernel``) of the rows (b_j(0), ..., b_j(dim - 1))
    and -(P prefix)(0..dim-1): the basis is independent exactly when the
    kernel is one vector (x, D) with D != 0, and then sum_j x_j b_j =
    D P f.  Each surplus coefficient is checked as x . row = D P prefix on
    ints, and the form is the integer combination divided once by D P.
    """
    basis = m2_basis(level, max(trunc24, 24 * len(prefix)))
    dim = len(basis)
    if len(prefix) < dim + 1:
        raise ValueError(f"need more than {dim} coefficients at level {level}")
    wanted, P = _over_common_denominator(
        [canonical_rational(x, "prefix") for x in prefix])
    rows = [[b.at(24 * n) for n in range(len(prefix))] for b in basis]
    kernel = integer_kernel([r[:dim] for r in rows]
                            + [[-w for w in wanted[:dim]]])
    if len(kernel) != 1 or not kernel[0][dim]:
        raise ArithmeticError(f"M_2 basis at level {level} is degenerate")
    *x, D = kernel[0]
    for n in range(dim, len(prefix)):
        got = sum(c * r[n] for c, r in zip(x, rows))
        if got != D * wanted[n]:
            raise ArithmeticError(
                f"level-{level} fit fails at q^{n}: "
                f"{exact_quotient(got, D * P)} != {prefix[n]}")
    return sum((b * c for c, b in zip(x, basis)),
               TruncatedSeries.zero(trunc24)).divide_scalar(D * P)


def f_series(label: str, trunc24: int) -> TruncatedSeries:
    """f_g as a q-series to the requested truncation (any supported class)."""
    level = require_key("label", label, CLASS_LEVEL)
    if label == "1A":
        return TruncatedSeries.zero(trunc24)
    return fit_in_m2(f_from_traces(label), level, trunc24)


def twining_pair(label: str, trunc24: int) -> tuple:
    """(e(g)/12, f_g), the twining genus's pair as a phi_{0,1} + f phi_{-2,1}."""
    return (exact_quotient(euler_character_value(label), 12),
            f_series(label, trunc24))


def symmetric_traces(label: str, t_order: int) -> list:
    """c_0..c_t_order of the class's symmetric-power traces, from its
    ``twining_pair`` to q^t_order (``n4char.twining_to_symtraces``)."""
    return twining_to_symtraces(*twining_pair(label, 24 * t_order), t_order)


def twining_genus(label: str, trunc24: int) -> TruncatedSeries:
    """The index-1 form of ``twining_pair`` on its y^0 and y^1 columns
    (``modforms.jacobi_form_columns``): f_g multiplies those of phi_{-2,1},
    and phi_{0,1} is built only for a class with fixed points (e(g) != 0)."""
    return index_one_form(
        *jacobi_form_columns(*twining_pair(label, trunc24), trunc24))


# -- the data file -----------------------------------------------------------------

class FgRecord(Record):
    __slots__ = ("label", "euler", "level", "source", "coefficients")


def write_fg_file(path=None, trunc24: int = 25 * 24) -> str:
    path = path or os.path.join(data_dir(), "fg_series.txt")
    lines = ["version 1",
             "# f_g weight-2 expansions; coefficients from q^0 upward",
             "# normalization: phi_{-2,1} = (theta1/eta^3)^2",
             "# source tags: fixed-point-split | trace-fit"]
    for label in GEOMETRIC_CLASSES + MOONSHINE_CLASSES:
        f = f_series(label, trunc24)
        coeffs = [f.coeff(n) for n in range(trunc24 // 24)]
        body = " ".join(map(format_rational, coeffs))
        lines.append(" ".join(map(str, _record_head(label))) + f" {body}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _record_head(label: str) -> tuple:
    """The label, Euler value, level and source tag of a class's record
    (the writer tags the geometric classes fixed-point-split)."""
    source = "fixed-point-split" if label in GEOMETRIC_CLASSES else "trace-fit"
    return label, euler_character_value(label), CLASS_LEVEL[label], source


def read_fg_file(path=None) -> dict:
    """The records of an f_g data file, keyed by class label.

    Coefficients are canonical (an ``int`` when integral).  A record line
    with fewer than four fields, a non-numeric number, an unknown class, a
    second record for a class, or an Euler value, level or source tag
    other than the writer's raises ValueError naming the file and the line.
    """
    path = path or os.path.join(data_dir(), "fg_series.txt")
    out = {}
    with open(path) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][1] != "version 1":
        raise ValueError(f"unsupported f_g data file version in {path}")
    for n, line in lines[1:]:
        parts = line.split()
        try:
            if len(parts) < 4:
                raise ValueError(f"{len(parts)} fields, at least 4 expected")
            label, source = parts[0], parts[3]
            e, level = int(parts[1]), int(parts[2])
            coeffs = tuple(canonical_rational(Fraction(x)) for x in parts[4:])
            if label not in CLASS_LEVEL:
                raise ValueError(f"unknown class {label}")
            if label in out:
                raise ValueError(f"a second record for {label}")
            head = _record_head(label)
            if (label, e, level, source) != head:
                raise ValueError("expected the head " + " ".join(map(str, head)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"{path}, line {n}: bad f_g record: {exc}") from None
        out[label] = FgRecord(label, e, level, source, coeffs)
    return out
