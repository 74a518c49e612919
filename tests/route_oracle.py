"""The full-division and per-pair routes of the library, kept as oracles.

The library reads its y-free quotients off one column and sums Galois
conjugates through one integer matrix.  The routes here do the same work
the long way, as the library once did, and the tests compare the two:

  * ``decompose_two_divisions``: s * eta^3 divided twice by theta3, and
    the full polar_part / theta3 quotient subtracted;
  * ``jacobi_split_by_division``: the bivariate division by phi_{-2,1};
  * ``galois_conjugate`` and ``table1_sum``: sigma_a applied to every
    coefficient, pair by pair;
  * ``chi_symt_per_pair``: one inverse and one root-count sum per pair;
  * ``pole_coefficient_in_fractions``: Poly evaluation in Fractions.
"""

from fractions import Fraction

from k3moonshine.cyclotomic import CyclotomicNumber, zeta
from k3moonshine.genus import (
    CLASS_ORDER, FIXED_POINT_EIGENVALUES, _fixed_point_term, chi_sym_power,
)
from k3moonshine.modforms import (
    euler_specialization, eta_power, jacobi_theta, weak_jacobi_phi,
)
from k3moonshine.n4char import N4Multiplicities, polar_part
from k3moonshine.qpoly import Poly, _horner, cyclotomic_poly
from k3moonshine.series import (
    InsufficientPrecisionError, NotInSpanError, TruncatedSeries,
    exact_quotient,
)
from series_tools import as_rational, galois


def decompose_two_divisions(s, sector="NS"):
    if sector == "R":
        return decompose_two_divisions(s.spectral_flow(-1), "NS")
    if sector != "NS":
        raise ValueError("sector must be 'NS' or 'R'")
    t = s.trunc24
    theta = jacobi_theta(3, t + 12)
    p_over_theta = polar_part(t + 12).divide_exact(theta)
    lead = min((k for k in p_over_theta.terms if k[1] or k[2]), default=None)
    u = (s * eta_power(3, t + 12)).divide_exact(theta)
    h_full = u.divide_exact(theta)
    if lead is None or lead[0] >= h_full.trunc24:
        raise InsufficientPrecisionError(
            "input ends before the atypical coefficient can be read")
    a = exact_quotient(h_full.terms.get(lead, 0), p_over_theta.terms[lead])
    h = h_full - p_over_theta * a
    bad = [k for k in h.terms if k[1] or k[2]]
    if bad:
        raise NotInSpanError("input is not in the N=4 span",
                             q24=min(k[0] for k in bad))
    typical = {Fraction(q24, 24) + Fraction(3, 8): c
               for (q24, _y2, _z), c in h.terms.items()}
    return N4Multiplicities(a, typical, h.trunc24)


def jacobi_split_by_division(s):
    if s.is_zero():
        return 0, s
    lo = s.min_q24
    if any(abs(y2) > 2 for (q24, y2, _z) in s.terms if q24 == lo):
        raise NotInSpanError("series does not have index-one shape", q24=lo)
    e = euler_specialization(s)
    support = e.q_support()
    if not support:
        a = 0
    elif support == [0]:
        a = exact_quotient(e.terms[(0, 0, 0)], 12)
    else:
        raise NotInSpanError("Euler specialization is not constant",
                             q24=next(k for k in support if k != 0))
    phi0 = weak_jacobi_phi(0, s.trunc24)
    phim2 = weak_jacobi_phi(-2, s.trunc24)
    h = (s - phi0 * a).divide_exact(phim2)
    if any(y2 or z for (_, y2, z) in h.terms):
        bad = min(q24 for (q24, y2, z) in h.terms if y2 or z)
        raise NotInSpanError("split quotient depends on y", q24=bad)
    recon = phi0 * a + h * phim2
    if recon != s.truncate(min(recon.trunc24, s.trunc24)):
        raise NotInSpanError("reconstruction mismatch", q24=None)
    return a, h


def galois_conjugate(s, a):
    """zeta -> zeta^a on every coefficient of a cyclotomic series."""
    return TruncatedSeries({k: galois(c, a) for k, c in s.terms.items()},
                           s.trunc24)


def table1_sum(label, trunc24):
    n = CLASS_ORDER[label]
    term = _fixed_point_term(n, trunc24)
    total = TruncatedSeries.zero(trunc24)
    for a, mult in FIXED_POINT_EIGENVALUES[n]:
        total = total + galois_conjugate(term, a) * mult
    return as_rational(total)


def chi_symt_per_pair(label, terms):
    n = CLASS_ORDER[label]
    if n == 1:
        return [chi_sym_power(k) for k in range(terms)]
    pieces = []
    for a, mult in FIXED_POINT_EIGENVALUES[n]:
        dinv = ((1 - zeta(n, a)) * (1 - zeta(n, n - a))).inverse()
        pieces.append((a, dinv * mult))
    out = []
    for k in range(terms):
        total = CyclotomicNumber.from_rational(n, 0)
        for a, weight in pieces:
            counts = [0] * n
            for i in range(k + 1):
                counts[a * (2 * i - k) % n] += 1
            total = total + weight * CyclotomicNumber.from_root_counts(n, counts)
        out.append(total.rational_value())
    return out


def pole_coefficient_in_fractions(f, at, order):
    x = Fraction(at)
    d = {1: 1, -1: 2}.get(x)
    exps = dict(f._e)
    if order > exps.get(d, 0):
        raise ValueError(f"(t - {at})^{order} does not divide denominator")
    if order < exps.get(d, 0):
        raise ValueError("pole order higher than requested")
    rest = Fraction(1)
    for dd, e in f._e:
        if dd != d:
            rest *= _horner(cyclotomic_poly(dd).c, x) ** e
    return f._c * _horner(Poly(f._n).c, x) / rest
