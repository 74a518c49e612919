import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine import mckay
from k3moonshine.genus import (
    equivariant_elliptic_genus, fixed_point_count, jacobi_split,
)
from k3moonshine.mckay import (
    CLASS_LEVEL, GEOMETRIC_CLASSES, MOONSHINE_CLASSES, cusp_form,
    eisenstein_difference, euler_character_value, f_from_traces, f_series,
    fit_in_m2, k_layer_trace, m2_basis, read_fg_file, sigma_coefficients,
    twining_genus, twining_pair, write_fg_file,
)
from k3moonshine.lattice import integer_kernel
from k3moonshine.n4char import twining_to_symtraces
from k3moonshine.replattice import first_nonintegral
from k3moonshine.series import TruncatedSeries
from route_oracle import (
    fit_in_m2_in_fractions, twining_to_symtraces_by_decomposition,
)


def test_euler_values():
    want = {"1A": 24, "2A": 8, "3A": 6, "4A": 4, "5A": 4, "6A": 2,
            "7AB": 3, "8A": 2, "2B": 0, "4A-M24": 0, "11A": 2,
            "14AB": 1, "15AB": 1, "23AB": 1}
    for label, e in want.items():
        assert euler_character_value(label) == e, label


def test_sigma_prefix():
    assert sigma_coefficients() == [-2, 90, 462, 1540, 4554, 11592]


def test_sigma_coefficients_returns_a_fresh_list():
    first = sigma_coefficients()
    first[0] = 99
    first.append(0)
    assert sigma_coefficients() == [-2, 90, 462, 1540, 4554, 11592]


def test_k_layer_traces_at_identity():
    assert k_layer_trace(1, "1A") == 90
    assert k_layer_trace(4, "1A") == 4554
    assert k_layer_trace(0, "7AB") == -2


def test_eisenstein_difference_weight():
    b2 = eisenstein_difference(2, 6 * 24)
    assert b2.coeff(0) == 1
    assert b2.coeff(1) == 24
    assert b2.coeff(2) == 24
    assert b2.coeff(3) == 96


def test_cusp_form_level_11():
    c = cusp_form(11, 8 * 24)
    # eta(t)^2 eta(11t)^2 = q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 ...
    assert [int(c.coeff(n)) for n in range(1, 7)] == [1, -2, -1, 2, 1, 2]


def test_m2_basis_dimensions():
    dims = {2: 1, 3: 1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 3, 11: 2, 14: 4, 15: 4,
            23: 3}
    for level, d in dims.items():
        assert len(m2_basis(level, 3 * 24)) == d, level


@pytest.mark.parametrize("level", [9, 16, 20, 22, 36])
def test_m2_basis_refuses_a_level_it_cannot_span(level):
    # Eisenstein differences alone fall short of dim M_2(Gamma_0(level))
    # here (2 of 3 forms at level 9, 8 of 12 at level 36)
    with pytest.raises(ValueError, match=f"^no M_2 basis stored for level "
                                         f"{level}$"):
        m2_basis(level, 3 * 24)


# -- the integer-kernel fit -----------------------------------------------------

def _patched_basis(monkeypatch, series):
    """m2_basis replaced by ``series``, each cut to the asked truncation."""
    monkeypatch.setattr(mckay, "m2_basis",
                        lambda level, t: [b.truncate(t) for b in series])


_B0 = TruncatedSeries({(24, 0): 1, (48, 0): 2, (72, 0): 3, (96, 0): 5,
                       (120, 0): -1}, 6 * 24)
_B1 = TruncatedSeries({(0, 0): 2, (24, 0): 1, (48, 0): -1, (72, 0): 4,
                       (96, 0): 1, (120, 0): 7}, 6 * 24)


def test_fit_swaps_rows_at_a_zero_pivot(monkeypatch):
    # the q^0 row of the basis is (0, 2), so the first pivot is zero
    _patched_basis(monkeypatch, [_B0, _B1])
    f = _B0 * Fraction(1, 3) - _B1 * Fraction(5, 2)
    prefix = [f.coeff(n) for n in range(5)]
    got = fit_in_m2(prefix, 99, 5 * 24)
    assert got == f.truncate(5 * 24)
    want = fit_in_m2_in_fractions(prefix, 99, 5 * 24, [_B0, _B1])
    assert dict(got.terms) == dict(want.terms)
    assert [type(c) for c in got.terms.values()] == \
        [type(want.terms[k]) for k in got.terms]


def test_fit_rejects_a_degenerate_basis(monkeypatch):
    _patched_basis(monkeypatch, [_B0, _B0 * 2])
    with pytest.raises(ArithmeticError,
                       match=r"^M_2 basis at level 99 is degenerate$"):
        fit_in_m2([0, 1, 2, 3], 99, 4 * 24)


def _fit_outcome(fit, prefix, level):
    """The fitted coefficients with their types, or the error text."""
    try:
        f = fit(prefix, level, 24 * 8)
    except ArithmeticError as exc:
        return str(exc)
    return [(c, type(c)) for c in (f.coeff(n) for n in range(8))]


@pytest.mark.parametrize("label", [l for l in CLASS_LEVEL if l != "1A"])
def test_fit_reports_a_failed_surplus_coefficient(label):
    level = CLASS_LEVEL[label]
    prefix = f_from_traces(label)
    dim = len(m2_basis(level, 24 * len(prefix)))
    bad = list(prefix)
    bad[dim] += 1
    want = f"level-{level} fit fails at q^{dim}: {prefix[dim]} != {bad[dim]}"
    assert _fit_outcome(fit_in_m2, bad, level) == want
    # a perturbed q^0 moves the solution, so the surplus fails (or fits)
    # with the same text, got in lowest terms, as on Fractions
    shifts = ((dim, 1), (0, Fraction(1, 7)), (dim - 1, Fraction(-2, 3)))
    for n, shift in shifts:
        bad = list(prefix)
        bad[n] += shift
        assert _fit_outcome(fit_in_m2, bad, level) == \
            _fit_outcome(fit_in_m2_in_fractions, bad, level)


_SMALL = st.integers(-4, 4)
_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_fit_matches_the_fraction_fit_on_random_bases(dim, surplus, data):
    """An integral basis of 1-4 forms and a rational prefix: fit_in_m2
    gives the Fraction fit's coefficients and types, or its error text.
    The prefix is a rational combination of the basis, at times with one
    coefficient moved, so fits, surplus failures and degenerate bases
    all occur."""
    basis = [TruncatedSeries({(24 * n, 0): data.draw(_SMALL)
                              for n in range(8)}, 8 * 24)
             for _ in range(dim)]
    weights = [data.draw(_RATIONAL) for _ in range(dim)]
    f = sum((b * c for c, b in zip(weights, basis)),
            TruncatedSeries.zero(8 * 24))
    prefix = [f.coeff(n) for n in range(dim + surplus)]
    if data.draw(st.booleans()):
        prefix[data.draw(st.integers(0, dim + surplus - 1))] += \
            data.draw(_RATIONAL)
    # any nonzero multiple of the kernel vector (x, D) pins the same form:
    # D < 0, or x and D with a common factor
    scale = data.draw(st.sampled_from([1, -1, 3, -6]))
    with pytest.MonkeyPatch.context() as mp:
        _patched_basis(mp, basis)
        mp.setattr(mckay, "integer_kernel", lambda rows: [
            [scale * v for v in vec] for vec in integer_kernel(rows)])
        got = _fit_outcome(fit_in_m2, prefix, 99)

    def by_fractions(prefix, level, trunc24):
        return fit_in_m2_in_fractions(prefix, level, trunc24, basis)

    assert got == _fit_outcome(by_fractions, prefix, 99)


def f_geometric(label: str, trunc24: int):
    """f_g for a geometric class from the fixed-point genus split."""
    a, h = jacobi_split(equivariant_elliptic_genus(label, trunc24))
    if a != Fraction(fixed_point_count(label), 12):
        raise ArithmeticError(f"{label}: split constant {a} != e/12")
    return h


def test_split_and_trace_routes_agree():
    # Theorem-4.6 content with independent sides: fixed-point split vs
    # module-layer traces through the derived M24 table
    for label in ("2A", "3A", "5A", "8A"):
        geo = f_geometric(label, 5 * 24)
        tr = f_from_traces(label)
        for n in range(5):
            assert geo.coeff(n) == tr[n], (label, n)


def test_f_series_extension_consistency():
    # the basis extension reproduces the split route beyond the fit window
    f = f_series("2A", 8 * 24)
    geo = f_geometric("2A", 8 * 24)
    assert f == geo


def test_twining_equals_equivariant_genus():
    for label in ("2A", "6A", "7AB"):
        tw = twining_genus(label, 5 * 24)
        eq = equivariant_elliptic_genus(label, 5 * 24)
        assert tw == eq, label


def test_audit_first_nonintegral():
    expected = {
        "11A": (4, Fraction(-2, 3)),
        "14AB": (4, Fraction(-5, 3)),
        "15AB": (3, Fraction(-1, 2)),
        "23AB": (4, Fraction(-7, 3)),
    }
    for label, want in expected.items():
        cs = twining_to_symtraces(*twining_pair(label, 6 * 24), 6)
        assert first_nonintegral(cs) == want, label


def test_alpha_family_for_15ab():
    # the typical columns alone leave a one-parameter family in c_1
    tw = twining_genus("15AB", 8 * 24)
    for a in (0, 3, 7):
        cs = twining_to_symtraces_by_decomposition(tw, 5, c1=Fraction(a))
        assert cs[3] == Fraction(-1, 2)
        assert cs[4] == Fraction(-2 * a, 3)
        assert cs[5] == Fraction(-(3 + 4 * a), 12)


def test_fg_file_roundtrip(tmp_path):
    path = tmp_path / "fg.txt"
    write_fg_file(path, trunc24=8 * 24)
    recs = read_fg_file(path)
    assert set(recs) == set(GEOMETRIC_CLASSES) | set(MOONSHINE_CLASSES)
    f2a = f_series("2A", 8 * 24)
    assert list(recs["2A"].coefficients) == [f2a.coeff(n) for n in range(8)]
    assert recs["2A"].source == "fixed-point-split"
    assert recs["23AB"].source == "trace-fit"
    assert recs["23AB"].level == CLASS_LEVEL["23AB"]


def test_fg_file_reproduces_the_shipped_file(tmp_path):
    import k3moonshine
    shipped = os.path.join(os.path.dirname(k3moonshine.__file__), "data",
                           "fg_series.txt")
    path = write_fg_file(tmp_path / "fg_series.txt")
    with open(path, "rb") as got, open(shipped, "rb") as want:
        assert got.read() == want.read()


def test_shipped_fg_file_loads():
    recs = read_fg_file()
    assert "15AB" in recs and len(recs["15AB"].coefficients) >= 20


def test_fg_file_coefficients_are_canonical(tmp_path):
    # an integral coefficient is an int, a proper one a Fraction
    path = tmp_path / "fg.txt"
    path.write_text(
        "version 1\n# comment\n2A 8 2 fixed-point-split 0 6/3 -1/2 4\n")
    coeffs = read_fg_file(path)["2A"].coefficients
    assert coeffs == (0, 2, Fraction(-1, 2), 4)
    assert [type(c) for c in coeffs] == [int, int, Fraction, int]
    shipped = read_fg_file()
    assert all(type(c) is int or c.denominator > 1
               for rec in shipped.values() for c in rec.coefficients)


@pytest.mark.parametrize("record, reason", [
    ("2A 8 2", "3 fields"),
    ("2A 8 two fixed-point-split 1 2", "invalid literal"),
    ("2A 8 2 fixed-point-split 1 x/2 3", "Invalid literal"),
    ("2A 8 2 fixed-point-split 1 1/0", ""),
    ("1A 24 1 fixed-point-split 5 6", "a second record for 1A"),
    ("9Z 0 9 trace-fit 1", "unknown class 9Z"),
    ("2A 9 2 fixed-point-split 1 2", "expected the head 2A 8 2"),
    ("2A 8 4 fixed-point-split 1 2", "expected the head 2A 8 2"),
    ("2A 8 2 trace-fit 1 2", "expected the head 2A 8 2 fixed-point-split"),
    ("11A 2 11 fixed-point-split 1 2", "expected the head 11A 2 11 trace-fit"),
], ids=["short", "level", "coefficient", "zero-denominator", "duplicate",
        "unknown-class", "euler-mismatch", "level-mismatch", "source-tag",
        "source-tag-moonshine"])
def test_fg_file_rejects_a_bad_record(tmp_path, record, reason):
    # the message names the file and the line, counting comments and blanks
    path = tmp_path / "fg.txt"
    path.write_text(
        f"version 1\n# comment\n\n1A 24 1 fixed-point-split 0\n{record}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 5: bad f_g record: {reason}")):
        read_fg_file(path)


def test_geometric_twining_recovers_symt_series_deeper():
    # the moonshine-side twining reproduces the fixed-point traces well past
    # the fit window (independent sides of the comparison theorem)
    from k3moonshine.genus import chi_symt_series
    cs = twining_to_symtraces(*twining_pair("7AB", 7 * 24), 7)
    assert cs == chi_symt_series("7AB", 8)
