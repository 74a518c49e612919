"""The acceptance battery: one callable per criterion, exact tolerances.

Each check returns (ok, detail).  ``run_criteria`` yields one
``CriterionResult`` per criterion as it ends; a criterion that raises is
an ERROR holding its exception, and the remaining criteria still run.
``cli verify-all`` prints the results and then re-raises the first
exception, so that a crash never reads as a mismatch.  All comparisons
are exact.  The lattice suite's published values are ``replattice``'s.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .qpoly import RationalFunction
from .chartab import SYMPLECTIC_CLASSES, format_rational
from .records import Record
from .modforms import euler_specialization, jacobi_theta
from .genus import (
    chern_root_elliptic_genus, chi_symt_series, elliptic_genus,
    equivariant_elliptic_genus, fixed_point_count, fixed_point_types,
    jacobi_split, rational_form,
)
from .n4char import (
    _atypical_coefficient, _genus_multiplicities, _typical_row, ch_v_product,
    ch_vn_closed, ch_vn_extract, g_series, genus_A_coefficients, h_series,
    polar_part, symmetric_power_crosscheck, twining_truncation,
)

# -- frozen published values ----------------------------------------------------

# Table 1: an automorphism of order n has ``multiplicity`` isolated fixed
# points with tangent eigenvalues (zeta_n^a, zeta_n^-a), as pairs
# (a, multiplicity), one per pair {a, -a} of units mod n.
TABLE1_FIXED_POINTS = {
    2: ((1, 8),), 3: ((1, 6),), 4: ((1, 4),), 5: ((1, 2), (2, 2)),
    6: ((1, 2),), 7: ((1, 1), (2, 1), (3, 1)), 8: ((1, 1), (3, 1)),
}

R1A_SERIES = (2, -20, -90, -232, -470, -828, -1330)

RATIONAL_FORM_NUMERATORS = {
    "2A": (2,),
    "3A": (2,),
    "4A": (2,),
    "5A": (2, 2, 2),
    "6A": (2,),
    "7AB": (2, 3, 4, 3, 2),
    "8A": (2, 2, 2),
}

TABLE3_ATYPICAL = (-2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
TABLE3_ROWS = (
    (1, 0, 1, 0, 1, 3, 2, 6, 11, 13, 24, 43),
    (0, 0, 0, 2, 2, 2, 8, 10, 16, 30, 46, 68),
    (0, 1, 0, 1, 3, 5, 7, 14, 22, 39, 60, 97),
    (0, 0, 2, 0, 2, 6, 8, 14, 28, 38, 70, 112),
    (0, 0, 0, 3, 1, 3, 9, 15, 22, 45, 67, 112),
    (0, 0, 0, 0, 4, 2, 6, 12, 22, 36, 66, 102),
    (0, 0, 0, 0, 0, 5, 3, 9, 18, 30, 50, 95),
    (0, 0, 0, 0, 0, 0, 6, 4, 12, 24, 42, 66),
    (0, 0, 0, 0, 0, 0, 0, 7, 5, 15, 30, 54),
    (0, 0, 0, 0, 0, 0, 0, 0, 8, 6, 18, 36),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 7, 21),
)

TABLE2_ROWS = (
    (-2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, -1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, -1),
    (2, -2, -2, -2, 0, 2, 0, 0, 2, 0, 0, 1, 1, 1, 1, 0, -2),
    (2, -1, 0, 0, -1, 1, -1, -1, 2, 0, 0, 1, 1, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 1, 1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1),
    (-2, 2, 2, 2, 0, -2, 0, 0, -2, 1, 1, 0, 0, -1, -1, 0, 2),
    (-1, 1, 0, 0, 0, -1, 2, 2, -1, 0, 0, -2, -2, 1, 1, 1, 2),
    (-2, 2, 1, 1, 0, -2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 2),
    (1, -1, -1, -1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 2),
    (0, 0, 0, 0, 0, 0, -1, -1, 0, 1, 1, 2, 2, 0, 0, 0, 2),
    (2, -1, -1, -1, 0, 2, 1, 1, 0, 0, 0, 0, 0, 2, 2, 2, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2),
    (-1, 0, -1, -1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3),
    (0, 0, 1, 1, 0, 0, 1, 1, 0, 2, 2, 1, 1, 2, 2, 2, 4),
    (-1, 1, 1, 1, 1, 0, 0, 0, 1, 2, 2, 3, 3, 1, 1, 2, 5),
    (0, 0, 0, 0, 0, 2, 0, 0, 2, 2, 2, 4, 4, 3, 3, 2, 4),
    (2, -1, 0, 0, 0, 3, 0, 0, 3, 2, 2, 4, 4, 3, 3, 4, 5),
    (2, -2, 0, 0, 0, 2, 0, 0, 2, 3, 3, 4, 4, 4, 4, 4, 6),
)

AUDIT_FIRST_NONINTEGRAL = {
    "11A": (4, Fraction(-2, 3)),
    "14AB": (4, Fraction(-5, 3)),
    "15AB": (3, Fraction(-1, 2)),
    "23AB": (4, Fraction(-7, 3)),
}

M24_EXTRA_FORMS = {
    "2B": RationalFunction((2, 8, 2), {2: 2, 4: 1}),
    "4A-M24": RationalFunction((2, 6, 12, 12, 6, 2), {2: 1, 4: 1, 8: 1}),
}


# -- criterion checks --------------------------------------------------------------

def check_1_r1a(**_) -> tuple:
    series = chi_symt_series("1A", 7)
    if tuple(series) != R1A_SERIES:
        return False, f"series {series}"
    r = rational_form("1A")
    want = RationalFunction((2, -28, 2), {1: 4})
    return r == want, "rational form"


def check_2_rational_forms(**_) -> tuple:
    # rational_form raises on a numerator of the wrong shape
    for label in SYMPLECTIC_CLASSES[1:]:
        num = rational_form(label).num
        if num != RATIONAL_FORM_NUMERATORS[label]:
            return False, f"{label}: numerator {num}"
    return True, "seven equivariant forms"


def _equivariant_truncation(q_order: int) -> int:
    """The one truncation at which criteria 3 and 4 read the equivariant
    genera: q_order, but at least q^4, since criterion 3 reads their Euler
    values to q^3 and criterion 4's weighted-form cross-check compares
    them below it.  So each genus is built once per run."""
    return max(q_order, 4) * 24


def check_3_elliptic_genus(q_order: int = 6, **_) -> tuple:
    t = q_order * 24
    # cross-check: the Chern-root product against 2 phi_{0,1}
    genus = chern_root_elliptic_genus(t)
    if genus != elliptic_genus(t):
        return False, "genus != 2 phi_{0,1}"
    e = euler_specialization(genus)
    if e.coeff(0) != 24 or any(e.coeff(k) for k in range(1, q_order)):
        return False, "Euler specialization"
    for label in SYMPLECTIC_CLASSES[1:]:
        s = equivariant_elliptic_genus(label, _equivariant_truncation(q_order))
        ev = euler_specialization(s)
        if ev.coeff(0) != fixed_point_count(label) or \
                any(ev.coeff(k) for k in range(1, 4)):
            return False, f"{label}: equivariant Euler value"
    return True, f"to q^{q_order} and all classes"


def check_4_theorem_split(q_order: int = 6, **_) -> tuple:
    from .mckay import euler_character_value, f_from_traces
    t = _equivariant_truncation(q_order)
    for label in SYMPLECTIC_CLASSES[1:]:
        s = equivariant_elliptic_genus(label, t)
        a, h = jacobi_split(s)
        if a != Fraction(euler_character_value(label), 12):
            return False, f"{label}: a = {a}"
        # cross-check: the split f_g against the module-layer traces
        for n, c in enumerate(f_from_traces(label)):
            if 24 * n < h.trunc24 and h.coeff(n) != c:
                return False, f"{label}: split f_g and trace f_g differ at q^{n}"
    # the genera read Table 1 as the types that chi(g, O_X) = 2 gives
    for n, pairs in TABLE1_FIXED_POINTS.items():
        derived = fixed_point_types(n)
        if derived != pairs:
            return False, f"order {n}: Table 1 {pairs}, derived {derived}"
    return True, "split constants and the weighted unit-sum form"


def check_5_appell_lerch(**_) -> tuple:
    t = 3 * 24
    th3 = jacobi_theta(3, t)
    for n in (2, 3, 4, 5):
        if g_series(n, t) != th3 * h_series(n, t):
            return False, f"g_{n} != theta3 h_{n}"
    if g_series(1, t) - th3 * h_series(1, t) != polar_part(t):
        return False, "polar split of g_1"
    product = ch_v_product(t)
    for n in range(0, 7):
        if ch_vn_closed(n, t) != ch_vn_extract(n, product):
            return False, f"pipelines differ at N={n}"
    return True, "Fourier split and the two pipelines"


def check_6_table3(**_) -> tuple:
    # Table 3 read from h_N in closed form (the combination of ch_{V_N}),
    # the atypical column from the weight of that combination on g_1;
    # criterion 5 checks h_N against the term-by-term g_sum
    for n in range(11):
        atypical = _atypical_coefficient(n)
        if atypical != TABLE3_ATYPICAL[n]:
            return False, f"row {n}: atypical {atypical}"
        row = _typical_row(n, 12)
        if row != TABLE3_ROWS[n]:
            return False, f"row {n}: {list(row)}"
    return True, "all 11 rows and 12 columns"


def check_7_genus_decomposition(**_) -> tuple:
    from .mckay import sigma_coefficients
    dec = genus_A_coefficients(5, elliptic_genus(twining_truncation(6)))
    if dec.atypical != 24 or dec.A[0] != -2 or dec.A[1] != 90:
        return False, f"anchors: {dec.atypical}, {dec.A[:2]}"
    # cross-check: the decomposition against H's closed form, which
    # genus-decompose prints
    if (-dec.atypical, *(-a for a in dec.A)) != _genus_multiplicities(6):
        return False, f"A_n = {', '.join(map(str, dec.A))}, not H's"
    # cross-check: the module-layer dimensions behind f_from_traces
    layers = sigma_coefficients()
    if dec.A != layers:
        return False, (f"A_n = {', '.join(map(str, dec.A))}, module layers "
                       f"{', '.join(map(str, layers))}")
    report = symmetric_power_crosscheck(dec)
    if not all(ok for (_, _, ok) in report.values()):
        return False, f"bundle crosscheck {report}"
    return True, "24 / A_n anchors and Clebsch-Gordan crosscheck"


def check_8_lattices(**_) -> tuple:
    from .tables import fixture_lattice_report
    from .replattice import compare_with_published
    rep = fixture_lattice_report()
    failure = compare_with_published(rep)[2]
    if failure:
        return False, failure
    idx = rep.Kdp_index_in_N
    if idx != 2:
        return False, (f"[N : K''] = {idx}, not 2: the restricted "
                       "lambda-ring of the 24-dim representation already "
                       "generates N, so the stated index is unreachable")
    return True, "full lattice suite"


def check_9_table2(t_order: int = 21, **_) -> tuple:
    from .tables import load_m23
    from .replattice import m23_table2, m_chi_rational
    m23 = load_m23()
    forms, cols = m23_table2(m23, t_order)
    rows = min(t_order, 21)
    for n in range(rows):
        # exact values: a non-integral multiplicity must not round to a row
        row = tuple(cols[j][n] for j in range(17))
        if row != TABLE2_ROWS[n]:
            return False, f"row {n}: ({', '.join(map(format_rational, row))})"
    mchi = m_chi_rational(m23, forms)
    m1, pole1 = mchi[m23.characters[0].name]
    n, d = len(m1.num) - 1, len(m1.den) - 1
    if (n, d) != (70, 72):
        return False, f"m_chi1 degrees {n}/{d}"
    if pole1 != Fraction(-1, 425040):
        return False, f"m_chi1 pole {pole1}"
    if not all(pole < 0 for _, pole in mchi.values()):
        return False, "c_chi signs"
    checked = f"rows 0..{rows - 1}" if rows > 1 else "row 0"
    return True, f"{checked} and the multiplicity functions"


def check_10_audit(**_) -> tuple:
    from .mckay import AUDITED_CLASSES, symmetric_traces
    from .replattice import first_nonintegral
    for label in AUDITED_CLASSES:
        hit = first_nonintegral(symmetric_traces(label, 6))
        if hit != AUDIT_FIRST_NONINTEGRAL[label]:
            return False, f"{label}: first non-integral {hit}"
    for label, form in M24_EXTRA_FORMS.items():
        if symmetric_traces(label, 20) != form.expand(21):
            return False, f"{label}: series vs rational form"
    return True, "non-integral coefficients and the 2B/4A closed forms"


CHECKS = (
    ("1 r_1A series and closed form", check_1_r1a),
    ("2 seven equivariant rational forms", check_2_rational_forms),
    ("3 elliptic genus and Euler values", check_3_elliptic_genus),
    ("4 Jacobi-form split and unit-sum form", check_4_theorem_split),
    ("5 Appell-Lerch engine", check_5_appell_lerch),
    ("6 decomposition table", check_6_table3),
    ("7 genus decomposition", check_7_genus_decomposition),
    ("8 lattice suite", check_8_lattices),
    ("9 multiplicity table and m_chi", check_9_table2),
    ("10 integrality audit", check_10_audit),
)


class CriterionResult(Record):
    """One criterion's verdict; ``error`` holds the exception of an ERROR."""

    __slots__ = ("criterion", "status", "ok", "detail", "seconds", "error")


def run_criteria(q_order: int = 6, t_order: int = 21):
    """Run the criteria in order, yielding a CriterionResult as each ends."""
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        error = None
        try:
            ok, detail = fn(q_order=q_order, t_order=t_order)
            status = "PASS" if ok else "FAIL"
        except Exception as exc:
            error = exc
            ok, detail, status = False, f"exception: {exc!r}", "ERROR"
        yield CriterionResult(name, status, bool(ok), str(detail),
                              time.perf_counter() - t0, error)
