"""Floating-point evaluation of exact series, for the modular-law tests.

The library computes only in exact arithmetic; these helpers turn a
truncated series into a complex number with a tail estimate, so the tests
can spot-check transformation laws (eta at tau = i, the T and S laws of
phi = theta1/eta^3) that no finite list of coefficients states exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from k3moonshine.cyclotomic import CyclotomicNumber, DomainError
from k3moonshine.modforms import eta_power
from k3moonshine.series import INF24, TruncatedSeries
from series_tools import theta1


def phi_function(trunc24: int) -> TruncatedSeries:
    """phi = theta1/eta^3; coefficients are purely imaginary in Q(i)."""
    return theta1(trunc24 + 3) * eta_power(-3, trunc24 + 3)


@dataclass(frozen=True)
class ComplexApprox:
    """A numeric value with a crude geometric tail estimate attached."""

    value: complex
    error: float


def numeric_eval(s: TruncatedSeries, tau: complex,
                 u: complex = 0.0) -> ComplexApprox:
    """Evaluate at q = e^(2 pi i tau), y = e^(2 pi i u).

    The error field bounds the truncation tail under the assumption of
    geometric domination beyond the truncation order, with the ratio
    estimated from the computed slices; it is meant for spot checks of
    transformation laws, never for exact assertions.
    """
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half-plane")
    q1 = cmath.exp(2j * cmath.pi * tau / 24)   # q^(1/24)
    y1 = cmath.exp(1j * cmath.pi * u)          # y^(1/2)
    total = 0j
    slice_abs: dict[int, float] = {}
    for (q24, y2), c in s.terms.items():
        cv = _coeff_complex(c)
        total += cv * q1 ** q24 * y1 ** y2
        slice_abs[q24] = slice_abs.get(q24, 0.0) + abs(cv) * abs(y1) ** y2
    if s.trunc24 >= INF24:
        return ComplexApprox(total, 0.0)
    r = abs(q1)
    if not slice_abs:
        return ComplexApprox(total, (r ** s.trunc24) / max(1e-12, 1 - r))
    orders = sorted(slice_abs)
    growth = 1.0
    for a, b in zip(orders, orders[1:]):
        if slice_abs[a] > 0 and slice_abs[b] > slice_abs[a]:
            growth = max(growth, (slice_abs[b] / slice_abs[a]) ** (1.0 / (b - a)))
    rho = growth * r
    amp = max(slice_abs.values())
    if rho >= 1.0:
        return ComplexApprox(total, float("inf"))
    tail = amp * growth ** (s.trunc24 - orders[0]) * (r ** s.trunc24) / (1 - rho)
    return ComplexApprox(total, tail)


def _coeff_complex(c) -> complex:
    if isinstance(c, CyclotomicNumber):
        w = cmath.exp(2j * cmath.pi / c.n)
        return sum(float(x) * w ** k for k, x in enumerate(c.c))
    return complex(Fraction(c))
