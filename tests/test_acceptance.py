"""Acceptance criteria, one test per criterion, exact tolerances.

Criterion 8 is split.  Every published quotient and equality is checked
against its stated value.  The Conway-group index is checked against what
the computation certifies, [N : K''] = 1, by a sandwich: the restricted
lambda-ring of the 24-dimensional representation lies in K'' (the fixture
rows restrict genuine Co0 characters); K'' lies in K = N (the eight
classes lie in the coordinate-permutation M24 inside Co0, so restriction
from Co0 factors through R(M24)); and that lambda-ring already spans N.
K'' is a restricted representation ring, hence closed under products.
The published 2 is the index of the additive span of the exterior powers
Lambda^0..Lambda^24 alone, before products are added; the test asserts
it on that lattice.  PAPER.md carries only the abstract and does not
define K'', so this identifies the lattice whose index equals the
published number; it does not claim that this lattice is the paper's K''.
``check_8_lattices`` still reports the published 2 as not reproduced.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod

import pytest

from k3moonshine import acceptance as acc
from k3moonshine.qpoly import euler_phi
from canonical import is_canonical


def _check(fn, **kw):
    ok, detail = fn(**kw)
    assert ok, detail


def test_criterion_1_r1a():
    _check(acc.check_1_r1a)


def test_criterion_2_rational_forms():
    _check(acc.check_2_rational_forms)


def test_criterion_2_compares_numerators_exactly(monkeypatch):
    # one coefficient off by 1/2 fails, and the detail shows the tuple read
    monkeypatch.setitem(acc.RATIONAL_FORM_NUMERATORS, "5A",
                        (2, Fraction(5, 2), 2))
    assert acc.check_2_rational_forms() == (False, "5A: numerator (2, 2, 2)")


def test_rational_forms_read_back_as_canonical_tuples():
    # num: canonical rationals (an int exactly when integral); den: monic
    # ints.  The shipped forms are integral.  m_chi1 over the non-character
    # 11AB variant of test_alternate_11ab_is_not_a_character has content
    # 1/5, so its numerator mixes ints and Fractions.
    from k3moonshine.genus import SYMPLECTIC_CLASSES, rational_form
    from k3moonshine.qpoly import RationalFunction
    from k3moonshine.replattice import (
        CHOSEN_FORM_NUMERATORS, chosen_rational_form, m23_table2,
        m_chi_rational,
    )
    from k3moonshine.tables import load_m23
    forms = [*map(rational_form, SYMPLECTIC_CLASSES),
             *map(chosen_rational_form, CHOSEN_FORM_NUMERATORS),
             *acc.M24_EXTRA_FORMS.values()]
    assert len(forms) == 8 + 4 + 2
    m23 = load_m23()
    variant = dict(m23_table2(m23, 21)[0])
    variant["11AB"] = RationalFunction(
        (2, 4, Fraction(32, 5), Fraction(38, 5), Fraction(42, 5),
         Fraction(38, 5), Fraction(32, 5), 4, 2), {11: 1})
    m1, _ = m_chi_rational(m23, variant)[m23.characters[0].name]
    assert {type(c) for c in m1.num} == {int, Fraction}
    for r in forms + [m1]:
        assert type(r.num) is tuple and all(map(is_canonical, r.num))
        assert type(r.den) is tuple and r.den[-1] == 1
        assert all(type(x) is int for x in r.den)
    assert all(type(c) is int for r in forms for c in r.num)


def test_criterion_3_elliptic_genus():
    _check(acc.check_3_elliptic_genus, q_order=6)


def test_criterion_4_split_and_weighted_form():
    _check(acc.check_4_theorem_split, q_order=6)


def test_criteria_3_and_4_below_q4():
    # the equivariant genera are still read at q^4, and the detail names
    # the q-order the genus was checked to
    assert acc.check_3_elliptic_genus(q_order=1) == \
        (True, "to q^1 and all classes")
    _check(acc.check_4_theorem_split, q_order=1)


def _primes(level):
    return [p for p in range(2, level + 1)
            if level % p == 0 and all(p % r for r in range(2, p))]


def _index(level):
    """[SL_2(Z) : Gamma_0(N)] = N prod_{p | N} (1 + 1/p)."""
    index = level
    for p in _primes(level):
        index = index * (p + 1) // p
    return index


def _sturm_order(level):
    """floor([SL_2(Z) : Gamma_0(N)] / 6): a weight-2 form on Gamma_0(N)
    whose coefficients vanish through this order is zero (Sturm, LNM
    1240, 1987)."""
    return _index(level) // 6


def _kronecker(d, p):
    """The Kronecker symbol (d/p) of a prime p, (d/2) by d mod 8."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    if d % p == 0:
        return 0
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def _dim_m2(level):
    """dim M_2(Gamma_0(N)) = g + c - 1, with c cusps and the genus
    g = 1 + index/12 - nu_2/4 - nu_3/3 - c/2, nu_2 and nu_3 the elliptic
    points of period 2 and 3 (Diamond and Shurman, A First Course in
    Modular Forms, 2005, ch. 3)."""
    cusps = sum(euler_phi(gcd(d, level // d))
                for d in range(1, level + 1) if level % d == 0)
    nu = {}
    for d, square in ((-4, 4), (-3, 9)):
        nu[d] = 0 if level % square == 0 else prod(
            1 + _kronecker(d, p) for p in _primes(level))
    genus = (1 + Fraction(_index(level), 12) - Fraction(nu[-4], 4)
             - Fraction(nu[-3], 3) - Fraction(cusps, 2))
    assert genus.denominator == 1
    return int(genus) + cusps - 1


def _rank(rows):
    """Rank of a matrix of rationals, by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_sturm_orders_of_the_geometric_levels():
    from k3moonshine.mckay import CLASS_LEVEL, GEOMETRIC_CLASSES
    assert [_sturm_order(CLASS_LEVEL[g]) for g in GEOMETRIC_CLASSES] == \
        [0, 0, 0, 1, 1, 2, 1, 2]


def test_trace_fits_are_proved_by_the_sturm_order():
    # fit_in_m2 pins f_g in M_2(Gamma_0(N)) by the six trace coefficients
    # q^0..q^5.  The basis has the dimension of the genus and cusp formulas
    # and full rank through the Sturm order, and the traces reach past it,
    # so a form of M_2(Gamma_0(N)) that matches them is f_g itself
    from k3moonshine.mckay import (
        CLASS_LEVEL, f_from_traces, f_series, m2_basis,
    )
    assert {n: _dim_m2(n) for n in sorted(set(CLASS_LEVEL.values()))} == \
        {1: 0, 2: 1, 3: 1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 3, 11: 2, 14: 4,
         15: 4, 23: 3}
    for label, level in CLASS_LEVEL.items():
        sturm = _sturm_order(level)
        assert sturm <= 4, label
        basis = m2_basis(level, 24 * (sturm + 1))
        assert len(basis) == _dim_m2(level), label
        rows = [[b.coeff(n) for b in basis] for n in range(sturm + 1)]
        assert _rank(rows) == len(basis), label
        traces = f_from_traces(label)
        assert sturm < len(traces) - 1, label
        f = f_series(label, 24 * len(traces))
        assert [f.coeff(n) for n in range(len(traces))] == traces, label


def test_default_comparisons_reach_the_sturm_order():
    # The fixed-point genus minus e(g)/12 phi_{0,1} + f_g phi_{-2,1} is
    # c phi_{0,1} + h phi_{-2,1} with h in M_2(Gamma_0(N)), so agreement
    # through the Sturm order proves the identity.  Two comparisons make
    # it at their defaults: moonshine-verify, and criterion 4's split.
    from k3moonshine.cli import build_parser
    from k3moonshine.genus import (
        equivariant_elliptic_genus, jacobi_split, verify_moonshine_class,
    )
    from k3moonshine.mckay import (
        CLASS_LEVEL, GEOMETRIC_CLASSES, f_from_traces, f_series,
    )
    verify = build_parser().parse_args(["moonshine-verify", "--class", "2A"])
    battery = build_parser().parse_args(["verify-all"])
    assert verify.q_order == 5
    t_split = acc._equivariant_truncation(battery.q_order)
    for label in GEOMETRIC_CLASSES:
        sturm = _sturm_order(CLASS_LEVEL[label])
        t = verify.q_order * 24
        report = verify_moonshine_class(label, f_series(label, t), t)
        assert report.ok and 24 * sturm < report.checked_trunc24, label
        if label == "1A":
            continue
        _a, h = jacobi_split(equivariant_elliptic_genus(label, t_split))
        # criterion 4 compares h with the trace f_g at q^0..q^5, below h's
        # truncation
        assert 24 * sturm < h.trunc24 and sturm < len(f_from_traces(label))
        assert [h.coeff(n) for n in range(sturm + 1)] == \
            f_from_traces(label)[:sturm + 1], label
    assert acc.check_4_theorem_split(q_order=battery.q_order)[0]


def test_criterion_5_appell_lerch_engine():
    _check(acc.check_5_appell_lerch)


def test_criterion_6_decomposition_table():
    _check(acc.check_6_table3)


def test_criterion_7_genus_decomposition():
    _check(acc.check_7_genus_decomposition)


def test_table3_round_trip_at_the_derived_truncation():
    # ch_{V_N} assembled from h_N decomposes back to Table 3; the twelve
    # columns need it below q24 = 259, no less
    from k3moonshine.n4char import (
        ch_vn_h_form, decompose_into_n4, decomposition_truncation,
    )
    from k3moonshine.series import InsufficientPrecisionError
    t = decomposition_truncation(12)
    assert t == 259
    for n in range(11):
        dec = decompose_into_n4(ch_vn_h_form(n, t))
        assert dec.atypical == acc.TABLE3_ATYPICAL[n], n
        assert tuple(dec.table_row(range(12))) == acc.TABLE3_ROWS[n], n
        short = decompose_into_n4(ch_vn_h_form(n, t - 1))
        with pytest.raises(InsufficientPrecisionError):
            short.table_row(range(12))


def test_table3_from_the_g_route():
    # the closed Appell-Lerch form, built from the term-by-term g_sum,
    # decomposes to Table 3 at the same truncation
    from k3moonshine.n4char import (
        ch_vn_closed, decompose_into_n4, decomposition_truncation,
    )
    t = decomposition_truncation(12)
    for n in range(11):
        dec = decompose_into_n4(ch_vn_closed(n, t))
        assert dec.atypical == acc.TABLE3_ATYPICAL[n], n
        assert tuple(dec.table_row(range(12))) == acc.TABLE3_ROWS[n], n


def test_criterion_6_catches_a_wrong_row_or_atypical_value(monkeypatch):
    from k3moonshine import n4char
    row = n4char._typical_row
    with monkeypatch.context() as m:
        m.setattr(acc, "_typical_row", lambda n, ncols: tuple(
            x + (n == 4 and k == 7) for k, x in enumerate(row(n, ncols))))
        assert acc.check_6_table3() == (
            False, "row 4: [0, 0, 0, 3, 1, 3, 9, 16, 22, 45, 67, 112]")
    monkeypatch.setattr(acc, "_atypical_coefficient",
                        lambda n: {0: -2, 1: 2}.get(n, 0))
    assert acc.check_6_table3() == (False, "row 1: atypical 2")


def test_criterion_5_catches_a_wrong_closed_form_h(monkeypatch):
    # g_sum is summed term by term, so g_N = theta3 h_N checks h_N's
    # closed form
    from k3moonshine.series import TruncatedSeries
    h = acc.h_series
    monkeypatch.setattr(acc, "h_series", lambda n, t: h(n, t) + (
        TruncatedSeries.monomial(1, 45, 0, t) if n == 3 else 0))
    assert acc.check_5_appell_lerch() == (False, "g_3 != theta3 h_3")


def test_criterion_6_reads_rows_without_a_round_trip(monkeypatch):
    # no decomposition and no series product: the per-process caches are
    # bypassed so that every row, every h column and every h_N is built
    # here, on ints from eta^-3's coefficients (and F_2's for h_1)
    from k3moonshine import n4char
    from k3moonshine.series import TruncatedSeries

    def no_decomposition(*args, **kwargs):
        raise AssertionError("criterion 6 decomposed a character")

    def no_product(*args):
        raise AssertionError("an h_N took a series product")

    monkeypatch.setattr(n4char, "decompose_into_n4", no_decomposition)
    monkeypatch.setattr(acc, "decompose_into_n4", no_decomposition,
                        raising=False)
    monkeypatch.setattr(n4char, "h_series", n4char.h_series.__wrapped__)
    monkeypatch.setattr(n4char, "_h_column", n4char._h_column.__wrapped__)
    monkeypatch.setattr(acc, "_typical_row", n4char._typical_row.__wrapped__)
    n4char.eta_power(-3, 262)       # the memoized eta^-3 the columns read
    monkeypatch.setattr(TruncatedSeries, "__mul__", no_product)
    assert acc.check_6_table3() == (True, "all 11 rows and 12 columns")
    for n in range(-8, 46):
        n4char.h_series(n, 262)


@pytest.mark.parametrize("index", range(4))
def test_criterion_6_catches_a_wrong_combination_weight(index, monkeypatch):
    # ch_{V_N}'s weights build the rows and the atypical column alike (the
    # atypical coefficient is the weight on g_1), so any wrong weight fails
    # criterion 6, and one on g_N or g_(N+1) fails its atypical column,
    # at row 1 or row 0, even against the published rows
    from k3moonshine import n4char
    weights = list(n4char._V_WEIGHTS)
    offset, w = weights[index]
    weights[index] = (offset, w + 1)
    monkeypatch.setattr(n4char, "_V_WEIGHTS", tuple(weights))
    monkeypatch.setattr(acc, "_typical_row", n4char._typical_row.__wrapped__)
    assert acc.check_6_table3()[0] is False
    if offset <= 1:
        monkeypatch.setattr(acc, "_typical_row",
                            lambda n, ncols: acc.TABLE3_ROWS[n][:ncols])
        assert acc.check_6_table3() == (
            False, f"row {1 - offset}: atypical {w + 1}")


def test_criterion_4_catches_a_wrong_trace_coefficient(monkeypatch):
    from k3moonshine import mckay
    traces = mckay.f_from_traces

    def perturbed(label):
        out = traces(label)
        if label == "5A":
            out[3] += 1
        return out

    monkeypatch.setattr(mckay, "f_from_traces", perturbed)
    assert acc.check_4_theorem_split(q_order=6) == (
        False, "5A: split f_g and trace f_g differ at q^3")


def test_criterion_4_catches_table1_off_its_unit_weight(monkeypatch):
    # 5A's four fixed points moved between the eigenvalue pairs of the
    # published Table 1: the count, and so every split constant, stays, but
    # the unit 1 carries 3 of them where w_5 = 1 asks for 2 on each pair
    monkeypatch.setitem(acc.TABLE1_FIXED_POINTS, 5, ((1, 3), (2, 1)))
    assert acc.check_4_theorem_split(q_order=6) == (
        False, "order 5: Table 1 ((1, 3), (2, 1)), derived ((1, 2), (2, 2))")


def test_criterion_7_catches_a_wrong_module_layer(monkeypatch):
    from k3moonshine import mckay
    monkeypatch.setitem(mckay._K_LAYERS, 5, (5795, 2))
    assert acc.check_7_genus_decomposition() == (
        False, "A_n = -2, 90, 462, 1540, 4554, 11592, "
        "module layers -2, 90, 462, 1540, 4554, 11590")


def test_criterion_8_lattice_suite_without_conway_index():
    from k3moonshine.tables import (load_m23, load_m24, load_mukai,
                                    SYMPLECTIC_M23_LABELS,
                                    SYMPLECTIC_M24_LABELS)
    from k3moonshine.replattice import (NI_OVER_N, restricted_lattice,
                                        mukai_lattice_N, sufficiency_scan)
    from k3moonshine.lattice import IntegerLattice, snf_quotient
    tables = [load_mukai(i) for i in range(1, 12)]
    N, lattices = mukai_lattice_N(tables)
    assert str(snf_quotient(N, IntegerLattice.full(8))) == "2 x 4 x 24 x 40320"
    for i, lat in enumerate(lattices):
        assert str(snf_quotient(N, lat)) == NI_OVER_N[i], f"N_{i+1}"
    assert restricted_lattice(load_m24(), SYMPLECTIC_M24_LABELS) == N
    assert restricted_lattice(load_m23(), SYMPLECTIC_M23_LABELS) == N
    four, triples = sufficiency_scan(lattices, N)
    assert all(four.values()) and len(four) == 3
    assert triples == []


@pytest.mark.parametrize("k", [1, 7, 11])
def test_one_published_quotient_decides_criterion_8_and_lattice_check(
        k, monkeypatch):
    # criterion 8 and lattice-check read one comparison, so a wrong
    # published N_k/N fails both (lattice-check exits 1, with its bytes)
    from k3moonshine import replattice
    from k3moonshine.cli import main
    wrong = list(replattice.NI_OVER_N)
    wrong[k - 1] = "2 x " + wrong[k - 1]
    monkeypatch.setattr(replattice, "NI_OVER_N", tuple(wrong))
    assert acc.check_8_lattices() == (False, f"N_{k}/N")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "goldens", "cli.json")) as fh:
        want = json.load(fh)["lattice-check"]["stdout"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["lattice-check"]) == 1
    assert out.getvalue() == want


def test_published_lattice_checks_run_in_criterion_8s_order(monkeypatch):
    from k3moonshine import replattice
    from k3moonshine.tables import fixture_lattice_report
    rep = fixture_lattice_report()
    assert replattice.compare_with_published(rep)[2] is None
    monkeypatch.setattr(replattice, "NI_OVER_N", ("1",) * 11)
    assert replattice.compare_with_published(rep)[2] == "N_1/N"
    monkeypatch.setattr(replattice, "M_OVER_N", "1")
    assert replattice.compare_with_published(rep)[2] == "M/N"
    monkeypatch.undo()
    monkeypatch.setattr(replattice, "sufficiency_scan",
                        lambda lattices, N: ({(1, 2, 5, 6): False}, []))
    assert replattice.compare_with_published(rep)[2] == "sufficiency scan"
    fields = {name: getattr(rep, name) for name in rep.__slots__}
    for field, detail in (("Kp_equals_N", "K' != N"),
                          ("K_equals_N", "K != N")):
        fields[field] = False
        assert replattice.compare_with_published(
            replattice.LatticeReport(**fields))[2] == detail


def _det_one_plus_tp(cycle_type):
    """Coefficients of det(1 + tP) = prod over cycles of (1 - (-t)^L)."""
    poly = [1]
    for length, count in cycle_type:
        for _ in range(count):
            shifted = [0] * length + [-(-1) ** length * c for c in poly]
            poly = [a + b for a, b in
                    zip(poly + [0] * length, shifted)]
    return poly


def test_criterion_8_conway_index():
    # The published value [N : K''] = 2 is not the index of K''; it is the
    # index of the Z-span of the exterior powers alone (see the module
    # docstring; PAPER.md does not define K'').  K'' is closed under
    # products, and one product, Lambda^1 * Lambda^6 (the restriction of
    # V (x) Lambda^6 V), already closes the index-2 gap.
    from k3moonshine.mill import class_data
    from k3moonshine.tables import (load_co0_restricted, load_mukai,
                                    SYMPLECTIC_M24_LABELS)
    from k3moonshine.replattice import restricted_lattice, mukai_lattice_N
    from k3moonshine.lattice import hnf_basis
    N, _ = mukai_lattice_N([load_mukai(i) for i in range(1, 12)])
    co0 = load_co0_restricted()
    kdp = restricted_lattice(co0, [c.label for c in co0.classes])
    assert N.contains_lattice(kdp)
    assert kdp.index_in(N) == 1

    # exterior powers from the M24 cycle types, not from the fixture
    by_label = {c.label: c for c in class_data("M24").classes}
    columns = [_det_one_plus_tp(by_label[lab].cycle_type)
               for lab in SYMPLECTIC_M24_LABELS]
    lams = [tuple(col[k] for col in columns) for k in range(25)]
    rows = {tuple(int(v) for v in ch.values) for ch in co0.characters}
    assert set(lams) <= rows
    lam_span = hnf_basis([list(r) for r in lams], ambient=8)
    assert N.contains_lattice(lam_span)
    assert lam_span.index_in(N) == 2

    product = tuple(a * b for a, b in zip(lams[1], lams[6]))
    assert product in rows
    assert not lam_span.contains(product)

    assert acc.check_8_lattices() == (
        False, "[N : K''] = 1, not 2: the restricted lambda-ring of the "
        "24-dim representation already generates N, so the stated index "
        "is unreachable")


def test_criterion_9_multiplicity_table():
    _check(acc.check_9_table2, t_order=21)


@pytest.mark.parametrize("t_order, rows", [(1, "row 0"), (21, "rows 0..20"),
                                           (30, "rows 0..20")])
def test_criterion_9_detail_names_the_rows_checked(t_order, rows):
    assert acc.check_9_table2(t_order=t_order) == \
        (True, f"{rows} and the multiplicity functions")


def test_criterion_9_catches_a_non_integral_multiplicity(monkeypatch):
    # -5/2 where row 4 has -2 must not be truncated to -2
    from k3moonshine import replattice
    real = replattice.m23_table2

    def perturbed(table, t_order):
        forms, cols = real(table, t_order)
        cols = [list(col) for col in cols]
        cols[1][4] = Fraction(-5, 2)
        return forms, cols

    monkeypatch.setattr(replattice, "m23_table2", perturbed)
    assert acc.check_9_table2() == (
        False, "row 4: (2, -5/2, -2, -2, 0, 2, 0, 0, 2, 0, 0, 1, 1, 1, 1, 0, -2)")


def test_criterion_10_integrality_audit():
    _check(acc.check_10_audit)


def test_criterion_11_property_suites():
    # the randomized suites live in test_properties.py; this records the
    # mapping so the acceptance module is self-contained
    import tests.test_properties as props
    props.test_series_ring_axioms()
    props.test_hnf_idempotence_random()
    props.test_triple_product_identity()
    props.test_spectral_flow_roundtrip_random()
    props.test_y_independence_residuals_on_character_span()


_ORDER_SCRIPT = """
import json, random, sys
from k3moonshine import acceptance
checks = list(acceptance.CHECKS)
order = sys.argv[1]
if order == "reversed":
    checks.reverse()
elif order == "shuffled":
    random.Random(17).shuffle(checks)
out = {}
for name, fn in checks:
    ok, detail = fn(q_order=6, t_order=21)
    out[name] = [bool(ok), str(detail)]
print(json.dumps(out, sort_keys=True))
"""


def test_criteria_do_not_depend_on_their_order():
    # the memoized builders are shared between criteria; each order starts
    # from a fresh process, so every cache starts empty
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    verdicts = {}
    for order in ("default", "reversed", "shuffled"):
        run = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT, order],
                             capture_output=True, text=True, env=env,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        verdicts[order] = json.loads(run.stdout)
    assert verdicts["default"] == verdicts["reversed"] == verdicts["shuffled"]
    assert len(verdicts["default"]) == len(acc.CHECKS)
    shuffled = list(acc.CHECKS)
    random.Random(17).shuffle(shuffled)
    assert shuffled not in (list(acc.CHECKS), list(acc.CHECKS)[::-1])
    failing = [name for name, (ok, _) in verdicts["default"].items() if not ok]
    assert failing == ["8 lattice suite"]
