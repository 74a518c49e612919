"""Character lattices on the order set {1..8} and their quotients.

Implements the lattice side of the virtual-module story: the restriction
lattices K (M24), K' (M23), K'' (Co0) inside Z^8, the order-constrained
lattices N_i of the eleven maximal symplectic groups and their
intersection N, quotient invariants, the sufficiency scan, the canonical
virtual-M24 solver, and the multiplicity decompositions of class-function
families over the rationalized M23 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chartab import CharacterTable
from .cyclotomic import canonical_rational
from .lattice import (
    AbelianQuotient, IntegerLattice, hnf_basis, integer_kernel, snf_quotient,
    solve_in_lattice, SolveResult,
)
from .qpoly import Poly, RationalFunction, euler_phi, linear_combinations

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
    """The shipped closed form r_label for 11AB/14AB/15AB/23AB, verified
    palindromic of degree phi(order) - 2 with integral expansion."""
    order = int("".join(ch for ch in label if ch.isdigit()))
    num = Poly(CHOSEN_FORM_NUMERATORS[label])
    phi = euler_phi(order)
    if not num.is_palindromic() or num.degree != phi - 2:
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
        if any(Fraction(x).denominator != 1 for x in row):
            raise ValueError(f"non-integral restricted value in {ch.name}")
        rows.append([int(x) for x in row])
    return hnf_basis(rows, ambient=len(labels))


def order_lattice(table: CharacterTable) -> IntegerLattice:
    """The lattice N_i in Z^8 attached to one maximal symplectic group.

    Characters constant on classes of equal element order project to
    functions on the occurring orders; N_i consists of all integer
    functions on {1..8} whose restriction to those orders is in the
    projected lattice.
    """
    k = len(table.classes)
    orders_present = sorted({c.order for c in table.classes})
    if any(o not in ORDERS for o in orders_present):
        raise ValueError(f"{table.group}: element order outside 1..8")
    # conditions: equal values on classes of the same order
    conditions = []
    by_order: dict = {}
    for idx, c in enumerate(table.classes):
        by_order.setdefault(c.order, []).append(idx)
    for order, idxs in by_order.items():
        for a, b in zip(idxs, idxs[1:]):
            conditions.append((a, b))
    rows = []
    for ch in table.characters:
        rows.append([int(ch.values[a] - ch.values[b]) for (a, b) in conditions]
                    or [0])
    if conditions:
        kernel = integer_kernel(rows)
    else:
        kernel = [[1 if i == j else 0 for j in range(len(rows))]
                  for i in range(len(rows))]
    vecs = []
    rep_of_order = {o: idxs[0] for o, idxs in by_order.items()}
    for coeffs in kernel:
        vec = [0] * 8
        for o in orders_present:
            idx = rep_of_order[o]
            val = sum(c * int(ch.values[idx])
                      for c, ch in zip(coeffs, table.characters))
            vec[o - 1] = val
        vecs.append(vec)
    for o in ORDERS:
        if o not in orders_present:
            unit = [0] * 8
            unit[o - 1] = 1
            vecs.append(unit)
    return hnf_basis(vecs, ambient=8)


def mukai_lattice_N(tables) -> tuple:
    """Intersect the order lattices of the eleven maximal groups."""
    lattices = [order_lattice(t) for t in tables]
    n = lattices[0]
    for lat in lattices[1:]:
        n = n.intersect(lat)
    return n, lattices


@dataclass(frozen=True)
class LatticeReport:
    """Bases, invariant factors, and verdicts for the whole lattice suite."""

    K: IntegerLattice
    K_prime: IntegerLattice
    K_dprime: IntegerLattice
    N: IntegerLattice
    N_i: tuple
    M_over_N: AbelianQuotient
    Ni_over_N: tuple
    K_equals_N: bool
    Kp_equals_N: bool
    Kdp_index_in_N: int | None


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


def sufficiency_scan(lattices, N: IntegerLattice):
    """Check which subfamilies of the eleven N_i already cut out N.

    Returns (four_ok, triples_reaching): for the quadruples {1, j, 5, 6}
    with j = 2, 3, 4 (1-based group numbers) whether their intersection is
    N, and every triple (1-based, increasing) whose intersection is N.
    Each pair N_i & N_j (i < j below the last index) is intersected once,
    and every triple i < j < k as (N_i & N_j) & N_k, so one pair is alive
    at a time; a quadruple is the intersection of two pairs.
    """
    triples_reaching = []
    for i, j in combinations(range(len(lattices) - 1), 2):
        pair = lattices[i].intersect(lattices[j])
        for k in range(j + 1, len(lattices)):
            if pair.intersect(lattices[k]) == N:
                triples_reaching.append((i + 1, j + 1, k + 1))
    pair_56 = lattices[4].intersect(lattices[5])
    four_ok = {}
    for j in (1, 2, 3):  # groups no. 2, 3, 4 (0-based 1..3)
        meet = lattices[0].intersect(lattices[j]).intersect(pair_56)
        four_ok[(1, j + 1, 5, 6)] = meet == N
    return four_ok, triples_reaching


def solve_virtual_m24(vec, m24_table: CharacterTable, labels) -> SolveResult:
    """Canonical virtual-M24 character restricting to ``vec`` on {1..8}."""
    cols = [m24_table.class_index(l) for l in labels]
    gens = [[int(ch.values[c]) for c in cols] for ch in m24_table.characters]
    return solve_in_lattice(vec, gens)


# -- decompositions over the rationalized M23 table ----------------------------

def decompose_family(table: CharacterTable, family: dict):
    """Inner products of a class-function family with each orbit-sum row.

    ``family`` maps class labels to coefficient lists (series in t); the
    result maps each character name to its multiplicity series (per
    constituent: the orbit-sum inner product divided by the orbit size).
    Multiplicities are exact Fractions and are returned even when
    non-integral; callers inspect integrality (a fractional one means the
    family is not a series of characters).  Each sum of |C| chi(g) coef
    runs on ints where the coefficients are integral and is divided once
    by |G| * orbit_size.  Raises KeyError if the family misses a class of
    the table.
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
            Fraction(sum(w * coeffs[t] for w, coeffs in zip(weights, series)),
                     denom)
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
    from .genus import SYMPLECTIC_CLASSES, rational_form
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
    sum_g |C_g| chi(g) r_g / (|G| orbit_size), one linear combination over
    the forms' common cyclotomic denominator.  Also reports the order-4
    partial-fraction coefficient at t = 1 of each m_chi.
    """
    weights = [[Fraction(c.size) * ch.values[idx] / table.order / ch.orbit_size
                for idx, c in enumerate(table.classes)]
               for ch in table.characters]
    sums = linear_combinations([forms[c.label] for c in table.classes], weights)
    return {ch.name: (m, m.pole_coefficient(Fraction(1), 4))
            for ch, m in zip(table.characters, sums)}


def first_nonintegral(series) -> tuple | None:
    """(position, value) of the first non-integral coefficient, or None."""
    for i, c in enumerate(series):
        if Fraction(c).denominator != 1:
            return i, Fraction(c)
    return None
