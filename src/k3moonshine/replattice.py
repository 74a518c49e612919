"""Character lattices on the order set {1..8} and their quotients.

Implements the lattice side of the virtual-module story: the restriction
lattices K (M24), K' (M23), K'' (Co0) inside Z^8, the order lattices N_i
of the eleven maximal symplectic groups and their intersection N,
quotient invariants, the sufficiency scan, the canonical virtual-M24
solver, and the multiplicity decompositions of class-function families
over the rationalized M23 table.  N_i holds the integer functions f on
{1..8} for which f(ord g) is a virtual character of group i; by
orthogonality that is sum_C |C| f(ord C) Psi(C) = 0 mod |G| orbit_size
for every orbit row Psi, and N is cut out by the congruences of all
eleven N_i together.  The decompositions run on ints: Table 2 sums
|C| chi(g) times the integral expansions of the r_g and divides each sum
once by |G| times the orbit size, and each m_chi is one integer
combination of the r_g whose content is scaled once by the same factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .chartab import SYMPLECTIC_CLASSES, CharacterTable
from .lattice import (
    IntegerLattice, congruence_lattice, hnf_basis, snf_quotient,
    solve_in_lattice, SolveResult,
)
from .mill import class_data
from .qpoly import (
    RationalFunction, canonical_rational, euler_phi, exact_quotient,
    linear_combinations,
)
from .records import Record

__all__ = [
    "CHOSEN_FORM_NUMERATORS",
    "chosen_rational_form",
    "restricted_lattice",
    "order_lattice",
    "mukai_lattice_N",
    "sufficiency_scan",
    "solve_virtual_m24",
    "decompose_family",
    "expand_to_irreducible_columns",
    "m23_table2",
    "m_chi_rational",
    "first_nonintegral",
    "LatticeReport",
    "build_lattice_report",
    "M_OVER_N",
    "NI_OVER_N",
    "compare_with_published",
]

ORDERS = tuple(range(1, 9))

# Palindromic closed forms chosen for the four non-geometric M23 classes
# (numerator coefficients over the cyclotomic polynomial of the order).
# The t^4/t^16 coefficient of the 23AB numerator is -5: the +5 variant
# breaks integrality of the multiplicity table.
CHOSEN_FORM_NUMERATORS = {
    "11AB": (2, 4, 2, 1, 4, 1, 2, 4, 2),
    "14AB": (2, 1, -2, 1, 2),
    "15AB": (2, 1, -3, -6, -3, 1, 2),
    "23AB": (2, 5, 7, 5, -5, -5, -1, 0, 13, 6, 15,
             6, 13, 0, -1, -5, -5, 5, 7, 5, 2),
}


def chosen_rational_form(label: str) -> RationalFunction:
    """The shipped closed form r_label for 11AB/14AB/15AB/23AB over
    Phi_order (the M23 class's element order), its numerator tuple verified
    palindromic of degree phi(order) - 2, with integral expansion."""
    num = CHOSEN_FORM_NUMERATORS[label]
    order = {c.label: c.order for c in class_data("M23").classes}[label]
    phi = euler_phi(order)
    if num != num[::-1] or len(num) != phi - 1:
        raise ValueError(f"{label}: numerator fails the shape constraints")
    r = RationalFunction(num, {order: 1})
    if any(c.denominator != 1 for c in r.expand(3 * phi)):
        raise ValueError(f"{label}: expansion is not integral")
    return r


def restricted_lattice(table: CharacterTable, labels) -> IntegerLattice:
    """Z-span of the table's character rows restricted to ``labels``."""
    cols = [table.class_index(l) for l in labels]
    rows = []
    for ch in table.characters:
        row = [ch.values[c] for c in cols]
        if any(x.denominator != 1 for x in row):
            raise ValueError(f"non-integral restricted value in {ch.name}")
        rows.append(row)
    return hnf_basis(rows, ambient=len(labels))


def order_lattice(table: CharacterTable) -> IntegerLattice:
    """The lattice N_i in Z^8 attached to one maximal symplectic group:
    the integer functions f on {1..8} for which f(ord g) is a virtual
    character, cut out by the orthogonality congruences of its orbit rows.

    By orthogonality over a full table that is, for each orbit row Psi,
    sum_C |C| f(ord C) Psi(C) = 0 mod |G| orbit_size(Psi): one row, the
    sums of |C| Psi(C) per element order, scaled to the lcm of the moduli.
    Orders that no class has are unconstrained.  Raises ValueError for an
    element order outside 1..8 or a table with fewer rows than classes.
    """
    if any(c.order not in ORDERS for c in table.classes):
        raise ValueError(f"{table.group}: element order outside 1..8")
    if len(table.characters) < len(table.classes):
        raise ValueError(f"{table.group}: {len(table.characters)} rows for "
                         f"{len(table.classes)} classes, not a full table")
    weights = [(c.order - 1, c.size) for c in table.classes]
    congruences = []
    for ch in table.characters:
        row = [0] * 8
        for (o, size), v in zip(weights, ch.values):
            row[o] += size * v
        congruences.append((row, table.order * ch.orbit_size))
    return _congruence_union(congruences)


def mukai_lattice_N(tables) -> tuple:
    """(N, [N_i]): N, the intersection of the N_i, is cut out by all of
    their congruences at once."""
    lattices = [order_lattice(t) for t in tables]
    return (_congruence_union(
        (row, m) for m, rows in (lat.congruences for lat in lattices)
        for row in rows), lattices)


def _congruence_union(congruences) -> IntegerLattice:
    """The f in Z^8 with row . f = 0 mod m for every (row, m): each row
    scaled to the lcm of the moduli."""
    congruences = list(congruences)
    modulus = lcm(*(m for _, m in congruences))
    return congruence_lattice(
        [[modulus // m * x for x in row] for row, m in congruences],
        modulus, 8)


class LatticeReport(Record):
    """Bases, invariant factors, and verdicts for the whole lattice suite."""

    __slots__ = ("K", "K_prime", "K_dprime", "N", "N_i", "M_over_N",
                 "Ni_over_N", "K_equals_N", "Kp_equals_N", "Kdp_index_in_N")


def build_lattice_report(mukai_tables, m24_table, m23_table, co0_table,
                         m24_labels, m23_labels) -> LatticeReport:
    N, lattices = mukai_lattice_N(mukai_tables)
    K = restricted_lattice(m24_table, m24_labels)
    Kp = restricted_lattice(m23_table, m23_labels)
    Kdp = restricted_lattice(co0_table, [c.label for c in co0_table.classes])
    return LatticeReport(
        K=K, K_prime=Kp, K_dprime=Kdp, N=N, N_i=tuple(lattices),
        M_over_N=snf_quotient(N, IntegerLattice.full(8)),
        Ni_over_N=tuple(snf_quotient(N, lat) for lat in lattices),
        K_equals_N=K == N,
        Kp_equals_N=Kp == N,
        Kdp_index_in_N=Kdp.index_in(N) if N.contains_lattice(Kdp) else None,
    )


# The published lattice suite: Z^8 / N and each N_i / N as invariant factors.
M_OVER_N = "2 x 4 x 24 x 40320"
NI_OVER_N = ("4 x 12 x 480", "4 x 4 x 672", "2 x 4 x 672", "12 x 168",
             "3 x 420", "2 x 280", "2 x 840", "2 x 840", "2 x 4 x 1120",
             "4 x 4 x 3360", "2 x 1680")


def compare_with_published(report: LatticeReport) -> tuple:
    """(four_ok, triples_reaching, failure): the sufficiency scan, and the
    first check that fails against the published suite, in criterion 8's
    order and words (M/N, N_i/N, K, K', the scan), or None."""
    four, triples = sufficiency_scan(list(report.N_i), report.N)
    checks = [("M/N", str(report.M_over_N) == M_OVER_N)]
    checks += [(f"N_{i + 1}/N", str(q) == want) for i, (q, want)
               in enumerate(zip(report.Ni_over_N, NI_OVER_N))]
    checks += [("K != N", report.K_equals_N), ("K' != N", report.Kp_equals_N),
               ("sufficiency scan", all(four.values()) and not triples)]
    return four, triples, next((name for name, ok in checks if not ok), None)


def sufficiency_scan(lattices, N: IntegerLattice):
    """Check which subfamilies of the eleven N_i already cut out N.

    Returns (four_ok, triples_reaching): for the quadruples {1, j, 5, 6}
    with j = 2, 3, 4 (1-based group numbers) whether their intersection is
    N, and every triple (1-based, increasing) whose intersection is N.

    N must be of full rank and lie in every N_i (``ValueError``
    otherwise).  The question lives in the finite group Z^8 / N: a family
    cuts out N iff its intersection is trivial modulo N.  A nontrivial
    subgroup has an element of prime order p, and with it the whole
    F_p-line through that element.  So each point of
    ``N.prime_order_points()`` (one per line of (Z^8 / N)[p]) is tagged
    with the bitmask of the N_i that contain it, and a family cuts out N
    iff no tag contains all of the family's bits.
    """
    if N.rank != N.ambient:
        raise ValueError("N is not of full rank")
    if not all(lat.contains_lattice(N) for lat in lattices):
        raise ValueError("N does not lie in every lattice of the family")
    tags = [sum(1 << i for i, lat in enumerate(lattices) if lat.contains(x))
            for x in N.prime_order_points()]

    def reaches(idxs) -> bool:
        bits = sum(1 << i for i in idxs)
        return not any(tag & bits == bits for tag in tags)

    triples_reaching = [
        (i + 1, j + 1, k + 1)
        for i, j, k in combinations(range(len(lattices)), 3)
        if reaches((i, j, k))]
    four_ok = {(1, j + 1, 5, 6): reaches((0, j, 4, 5))
               for j in (1, 2, 3)}  # groups no. 2, 3, 4 (0-based 1..3)
    return four_ok, triples_reaching


def solve_virtual_m24(vec, m24_table: CharacterTable, labels) -> SolveResult:
    """Canonical virtual-M24 character restricting to ``vec`` on {1..8}."""
    cols = [m24_table.class_index(l) for l in labels]
    gens = [[ch.values[c] for c in cols] for ch in m24_table.characters]
    return solve_in_lattice(vec, gens)


# -- decompositions over the rationalized M23 table ----------------------------

def decompose_family(table: CharacterTable, family: dict):
    """Inner products of a class-function family with each orbit-sum row.

    ``family`` maps class labels to coefficient lists (series in t); the
    result maps each character name to its multiplicity series (per
    constituent: the orbit-sum inner product divided by the orbit size).
    Multiplicities are exact and canonical (an ``int`` when integral, else
    a Fraction) and are returned even when non-integral; callers inspect
    integrality (a fractional one means the family is not a series of
    characters).  Each sum of |C| chi(g) coef runs on ints where the
    coefficients are integral, as the expansions of the integral r_g are
    (``RationalFunction.expand`` gives ints), and is divided once by
    |G| * orbit_size (``exact_quotient``).  Raises KeyError if the family
    misses a class of the table.
    """
    n_terms = min(len(v) for v in family.values())
    series = []
    for c in table.classes:
        if c.label not in family:
            raise KeyError(f"family missing class {c.label}")
        series.append(
            [canonical_rational(x) for x in family[c.label][:n_terms]])
    out = {}
    for ch in table.characters:
        weights = [canonical_rational(c.size * v)
                   for c, v in zip(table.classes, ch.values)]
        denom = table.order * ch.orbit_size
        out[ch.name] = [
            exact_quotient(
                sum(w * coeffs[t] for w, coeffs in zip(weights, series)), denom)
            for t in range(n_terms)]
    return out


def expand_to_irreducible_columns(table: CharacterTable, per_orbit: dict):
    """Repeat each orbit row per complex constituent (Table-2 layout)."""
    columns = []
    for ch in table.characters:
        for _ in range(ch.orbit_size):
            columns.append(per_orbit[ch.name])
    return columns


def m23_table2(table: CharacterTable, t_order: int) -> tuple:
    """Table 2: -chi(X, S_t T) decomposed into the irreducibles of ``table``.

    Returns (forms, columns).  ``forms`` maps each class label to r_g(t):
    the fitted equivariant form on the symplectic classes and the shipped
    closed form on 11AB, 14AB, 15AB and 23AB.  ``columns`` holds the
    t^0..t^(t_order - 1) multiplicities, one column per complex
    irreducible.
    """
    from .genus import rational_form
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in CHOSEN_FORM_NUMERATORS:
        forms[lab] = chosen_rational_form(lab)
    family = {lab: [-c for c in rf.expand(t_order)]
              for lab, rf in forms.items()}
    return forms, expand_to_irreducible_columns(
        table, decompose_family(table, family))


def m_chi_rational(table: CharacterTable, forms: dict):
    """Multiplicity rational functions m_chi(t) per orbit row.

    ``forms`` maps class labels to RationalFunction r_g(t); each m_chi is
    sum_g |C_g| chi(g) r_g / (|G| orbit_size): one linear combination with
    the integer weights |C_g| chi(g) over the forms' common cyclotomic
    denominator, whose content is then scaled once by 1/(|G| orbit_size).
    Also reports the order-4 partial-fraction coefficient at t = 1 of each
    m_chi.
    """
    weights = [[c.size * v for c, v in zip(table.classes, ch.values)]
               for ch in table.characters]
    sums = linear_combinations([forms[c.label] for c in table.classes], weights)
    out = {}
    for ch, m in zip(table.characters, sums):
        m = m * Fraction(1, table.order * ch.orbit_size)
        out[ch.name] = (m, m.pole_coefficient(Fraction(1), 4))
    return out


def first_nonintegral(series) -> tuple | None:
    """(position, value) of the first non-integral int or Fraction, or None."""
    for i, c in enumerate(series):
        if type(canonical_rational(c, "value")) is Fraction:
            return i, c
    return None
