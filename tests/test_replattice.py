from fractions import Fraction
from itertools import combinations

import pytest

from gcd_oracle import m_chi_by_gcd
from k3moonshine.chartab import CharacterTable
from k3moonshine.lattice import IntegerLattice, snf_quotient
from k3moonshine.genus import rational_form, SYMPLECTIC_CLASSES
from k3moonshine.qpoly import Poly, RationalFunction, cyclotomic_poly
from k3moonshine.replattice import (
    chosen_rational_form, decompose_family,
    first_nonintegral, m23_table2, m_chi_rational, mukai_lattice_N,
    order_lattice, restricted_lattice, solve_virtual_m24, sufficiency_scan,
)
from k3moonshine.tables import (
    SYMPLECTIC_M23_LABELS, SYMPLECTIC_M24_LABELS, load_co0_restricted,
    load_m23, load_m24, load_mukai,
)


@pytest.fixture(scope="module")
def mukai_tables():
    return [load_mukai(i) for i in range(1, 12)]


@pytest.fixture(scope="module")
def lattice_N(mukai_tables):
    return mukai_lattice_N(mukai_tables)


def test_trivial_character_restricts_to_ones():
    lat = restricted_lattice(load_m24(), SYMPLECTIC_M24_LABELS)
    assert lat.contains([1] * 8)


def test_restriction_lattices_equal_N(lattice_N):
    N, _ = lattice_N
    assert restricted_lattice(load_m24(), SYMPLECTIC_M24_LABELS) == N
    assert restricted_lattice(load_m23(), SYMPLECTIC_M23_LABELS) == N


def test_M_over_N(lattice_N):
    N, _ = lattice_N
    assert str(snf_quotient(N, IntegerLattice.full(8))) == "2 x 4 x 24 x 40320"


def test_Ni_quotients(lattice_N):
    N, lattices = lattice_N
    expected = ["4 x 12 x 480", "4 x 4 x 672", "2 x 4 x 672", "12 x 168",
                "3 x 420", "2 x 280", "2 x 840", "2 x 840", "2 x 4 x 1120",
                "4 x 4 x 3360", "2 x 1680"]
    for lat, want in zip(lattices, expected):
        assert str(snf_quotient(N, lat)) == want


def test_h1_orders():
    t = load_mukai(1)
    assert sorted({c.order for c in t.classes}) == [1, 2, 3, 4, 7]


def test_sufficiency(lattice_N):
    N, lattices = lattice_N
    four, triples = sufficiency_scan(lattices, N)
    assert all(four.values()) and len(four) == 3
    assert triples == []


def _scan_from_scratch(lattices, N):
    """sufficiency_scan's answer with every subfamily intersected afresh."""
    def intersect_all(idxs):
        acc = IntegerLattice.full(8)
        for i in idxs:
            acc = acc.intersect(lattices[i])
        return acc

    four_ok = {}
    for j in (1, 2, 3):
        idxs = [0, 4, 5, j]
        four_ok[tuple(sorted(i + 1 for i in idxs))] = intersect_all(idxs) == N
    triples = [tuple(i + 1 for i in idxs)
               for idxs in combinations(range(len(lattices)), 3)
               if intersect_all(idxs) == N]
    return four_ok, triples


def test_sufficiency_scan_matches_from_scratch_oracle(lattice_N):
    N, lattices = lattice_N
    assert sufficiency_scan(lattices, N) == _scan_from_scratch(lattices, N)


# A full-rank family in Z^8: lattice a is {x : x_i = 0 mod m_i} for its
# conditions {i: m_i}, moved by one unimodular map so that no basis is
# diagonal.  An intersection imposes the lcm of the moduli per coordinate,
# so the family cuts out N exactly when its conditions cover every one
# of N's.
SYNTHETIC_CONDITIONS = (
    {0: 4, 1: 3},
    {5: 2, 6: 2, 7: 3},
    {0: 2, 5: 2, 6: 2, 7: 3},
    {5: 2, 6: 2},
    {2: 2, 3: 5},
    {4: 3},
    {0: 4, 1: 3, 2: 2, 3: 5, 4: 3},
    {3: 5, 7: 3},
)


def _congruence_lattice(conditions):
    mix = [[1 if j == i else (i + j) % 3 if j > i else 0 for j in range(8)]
           for i in range(8)]
    return IntegerLattice(8, [[conditions.get(i, 1) * x for x in mix[i]]
                              for i in range(8)])


def test_sufficiency_scan_on_a_family_with_reaching_triples():
    lattices = [_congruence_lattice(c) for c in SYNTHETIC_CONDITIONS]
    N = _congruence_lattice(
        {0: 4, 1: 3, 2: 2, 3: 5, 4: 3, 5: 2, 6: 2, 7: 3})
    four, triples = sufficiency_scan(lattices, N)
    assert (four, triples) == _scan_from_scratch(lattices, N)
    # {1, 2, 5, 6} and {1, 3, 5, 6} reach N; {1, 4, 5, 6} misses x_7 mod 3
    assert four == {(1, 2, 5, 6): True, (1, 3, 5, 6): True,
                    (1, 4, 5, 6): False}
    # a triple reaches N exactly when it holds group 7 and covers x_5, x_6,
    # x_7 by group 2, group 3, or groups 4 and 8 together
    assert triples == [t for t in combinations(range(1, 9), 3)
                       if 7 in t and (2 in t or 3 in t or {4, 8} <= set(t))]


def test_co0_lattice_contained_in_N(lattice_N):
    N, _ = lattice_N
    co0 = load_co0_restricted()
    kdp = restricted_lattice(co0, [c.label for c in co0.classes])
    assert N.contains_lattice(kdp)


def test_solve_virtual_m24_permutation_vector(lattice_N):
    res = solve_virtual_m24((24, 8, 6, 4, 4, 2, 3, 2), load_m24(),
                            SYMPLECTIC_M24_LABELS)
    assert res.solved
    # reconstruct and compare
    table = load_m24()
    cols = [table.class_index(l) for l in SYMPLECTIC_M24_LABELS]
    vec = [sum(res.coords[i] * int(ch.values[c])
               for i, ch in enumerate(table.characters)) for c in cols]
    assert vec == [24, 8, 6, 4, 4, 2, 3, 2]


def test_solve_virtual_m24_trivial():
    res = solve_virtual_m24((1,) * 8, load_m24(), SYMPLECTIC_M24_LABELS)
    assert res.solved


def test_solve_virtual_m24_rejects_non_member(lattice_N):
    N, _ = lattice_N
    # construct a violation of the largest invariant-factor congruence:
    # scan unit vectors until one is outside N
    bad = None
    for k in range(8):
        v = [0] * 8
        v[k] = 1
        if not N.contains(v):
            bad = v
            break
    assert bad is not None
    res = solve_virtual_m24(bad, load_m24(), SYMPLECTIC_M24_LABELS)
    assert not res.solved
    assert "residue" in res.certificate


def test_decompose_family_orthogonality():
    m23 = load_m23()
    fam = {c.label: [Fraction(1)] for c in m23.classes}
    dec = decompose_family(m23, fam)
    assert dec["chi1"] == [1]
    assert all(v == [0] for name, v in dec.items() if name != "chi1")


def _decompose_by_fractions(table, family):
    """decompose_family's answer with three Fraction products per class."""
    n_terms = min(len(v) for v in family.values())
    out = {}
    for ch in table.characters:
        coeffs = []
        for t in range(n_terms):
            acc = Fraction(0)
            for idx, c in enumerate(table.classes):
                acc += (Fraction(c.size) * ch.values[idx]
                        * Fraction(family[c.label][t]))
            coeffs.append(acc / table.order / ch.orbit_size)
        out[ch.name] = coeffs
    return out


def test_decompose_family_matches_fraction_oracle():
    m23 = load_m23()
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in ("11AB", "14AB", "15AB", "23AB"):
        forms[lab] = chosen_rational_form(lab)
    integral = {lab: [-c for c in rf.expand(12)] for lab, rf in forms.items()}
    # a family with proper fractions, and lists of unequal length
    mixed = {lab: [Fraction(k + 1, 1 + len(lab) % 3) * c for k, c in
                   enumerate(series)] + [0] * (len(lab) % 2)
             for lab, series in integral.items()}
    for family in (integral, mixed):
        got = decompose_family(m23, family)
        assert got == _decompose_by_fractions(m23, family)
        assert all(type(c) is Fraction for v in got.values() for c in v)


def test_table2_row0_and_row4():
    _, cols = m23_table2(load_m23(), 5)
    assert [int(cols[j][0]) for j in range(17)] == \
        [-2] + [0] * 16
    assert [int(cols[j][4]) for j in range(17)] == \
        [2, -2, -2, -2, 0, 2, 0, 0, 2, 0, 0, 1, 1, 1, 1, 0, -2]


def test_chosen_forms_shape():
    for lab in ("11AB", "14AB", "15AB", "23AB"):
        r = chosen_rational_form(lab)
        assert r.num.is_palindromic()
        assert r.num.degree == r.den.degree - 2


def test_alternate_11ab_is_not_a_character():
    # the rational-but-non-moonshine variant with 32/5 coefficients gives a
    # non-integral multiplicity somewhere
    m23 = load_m23()
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in ("14AB", "15AB", "23AB"):
        forms[lab] = chosen_rational_form(lab)
    forms["11AB"] = RationalFunction(
        Poly([2, 4, Fraction(32, 5), Fraction(38, 5), Fraction(42, 5),
              Fraction(38, 5), Fraction(32, 5), 4, 2]),
        cyclotomic_poly(11))
    family = {lab: [-c for c in rf.expand(12)] for lab, rf in forms.items()}
    dec = decompose_family(m23, family)
    assert any(first_nonintegral(series) is not None
               for series in dec.values())


def test_m_chi_rational_pole_structure():
    m23 = load_m23()
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in ("11AB", "14AB", "15AB", "23AB"):
        forms[lab] = chosen_rational_form(lab)
    out = m_chi_rational(m23, forms)
    # c_chi = -24 deg(chi) / |G| for every row
    for ch in m23.characters:
        _m, pole = out[ch.name]
        assert pole == Fraction(-24 * ch.degree, m23.order)


def test_m_chi_matches_series_decomposition():
    m23 = load_m23()
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in ("11AB", "14AB", "15AB", "23AB"):
        forms[lab] = chosen_rational_form(lab)
    out = m_chi_rational(m23, forms)
    family = {lab: rf.expand(9) for lab, rf in forms.items()}
    dec = decompose_family(m23, family)
    for name, (m, _pole) in out.items():
        assert m.expand(9) == dec[name]


def test_m_chi_rational_matches_the_gcd_route():
    # row by row, the one-pass sum over the common cyclotomic denominator
    # against the class-by-class gcd-reduced sum
    m23 = load_m23()
    forms = {lab: rational_form(lab) for lab in SYMPLECTIC_CLASSES}
    for lab in ("11AB", "14AB", "15AB", "23AB"):
        forms[lab] = chosen_rational_form(lab)
    out = m_chi_rational(m23, forms)
    want = m_chi_by_gcd(m23, forms)
    assert len(out) == len(want) == 12
    for ch in m23.characters:
        (m, pole), (w, wpole) = out[ch.name], want[ch.name]
        assert (m.num, m.den, pole) == (w.num, w.den, wpole), ch.name


# Virtual M23-modules vanishing on the eight symplectic orders: the
# coefficient rows over the seventeen complex irreducibles.
ALPHA_ROWS = (
    (2, 0, 2, 2, -2, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 2, 0),
    (2, -2, 1, 1, 2, 0, 0, 0, -2, 0, 0, 0, 0, -1, -1, -2, 2),
    (2, -2, 0, 0, 0, 2, -1, -1, 2, 0, 0, 2, 2, 0, 0, 0, -2),
    (2, -2, -2, -2, 0, 2, 2, 2, 0, -1, -1, -2, -2, 2, 2, 0, 0),
)


def alpha_basis_check(table: CharacterTable, alpha_rows, labels) -> list:
    """Verify integer combinations vanish on the classes in ``labels``.

    ``alpha_rows`` are per-irreducible coefficient rows (constituent
    columns in table order); paired constituents must carry equal
    coefficients, which this check enforces.
    """
    cols = [table.class_index(l) for l in labels]
    reports = []
    for row in alpha_rows:
        coeffs = []
        pos = 0
        for ch in table.characters:
            vals = set(row[pos:pos + ch.orbit_size])
            if len(vals) != 1:
                raise ValueError(
                    "paired irreducibles carry unequal coefficients")
            coeffs.append(row[pos])
            pos += ch.orbit_size
        if pos != len(row):
            raise ValueError("alpha row has wrong length")
        values = []
        for c in cols:
            acc = sum(co * ch.values[c]
                      for co, ch in zip(coeffs, table.characters))
            values.append(acc)
        reports.append(all(v == 0 for v in values))
    return reports


def test_alpha_rows_vanish():
    ok = alpha_basis_check(load_m23(), ALPHA_ROWS, SYMPLECTIC_M23_LABELS)
    assert ok == [True] * 4


def test_order_lattice_full_when_no_conditions():
    # a table with all distinct orders imposes only the projection structure
    t = load_mukai(1)  # L2(7): orders 1,2,3,4,7 all simple classes
    lat = order_lattice(t)
    assert lat.rank == 8


def test_solve_virtual_m24_chi_of_structure_sheaf():
    # chi(g; X, O) = 2 for every class: the constant vector lies in K
    res = solve_virtual_m24((2,) * 8, load_m24(), SYMPLECTIC_M24_LABELS)
    assert res.solved
