"""Exact series division by the general slice recurrence, as a test oracle.

This is the one home of division by a divisor whose lowest q-slice has
more than one term, such as phi_{-2,1}'s lead -(y - 2 + 1/y): each
quotient slice is the lowest remainder slice divided, top y-power first,
by that lowest slice, and a slice that does not divide raises
NotInSpanError at its order.  The library's ``divide_exact`` takes only a
one-term lowest slice, where this recurrence reduces to its own, and the
tests compare the two term by term.
"""

from k3moonshine.qpoly import exact_quotient
from k3moonshine.series import NotInSpanError, TruncatedSeries


def _grouped(s):
    groups = {}
    for (q24, y2), c in s.terms.items():
        groups.setdefault(q24, []).append((y2, c))
    return sorted(groups.items())


def _slice_divide(numer, denom, q24):
    out = {}
    dy = dict(denom)
    dmin, dmax = min(dy), max(dy)
    lead_inv = exact_quotient(1, dy[dmax])
    work = dict(numer)
    while work:
        top, low = max(work), min(work)
        if top - dmax < low - dmin:
            raise NotInSpanError("slice not divisible", q24=q24)
        shift = top - dmax
        coeff = work[top] * lead_inv
        out[shift] = coeff
        for y2, d in dy.items():
            acc = work.get(y2 + shift, 0) - coeff * d
            if acc:
                work[y2 + shift] = acc
            else:
                work.pop(y2 + shift, None)
    return out


def divide_by_slices(num, divisor):
    """num / divisor by the slice recurrence with the lead's reciprocal."""
    (dmin, dlead), *dtail = _grouped(divisor)
    nmin = num.trunc24 if num.is_zero() else num.min_q24
    trunc = min(num.trunc24, divisor.trunc24 + nmin - dmin) - dmin
    rem = {}
    for (e, y2), c in num.terms.items():
        if e - dmin < trunc:
            rem.setdefault(e, {})[y2] = c
    out = {}
    while rem:
        e = min(rem)
        quotient = _slice_divide(rem.pop(e), dlead, e)
        qe = e - dmin
        for y2, c in quotient.items():
            out[(qe, y2)] = c
        for d24, dslice in dtail:
            if qe + d24 - dmin >= trunc:
                break
            target = rem.setdefault(qe + d24, {})
            for qy, qc in quotient.items():
                for dy, dc in dslice:
                    key = qy + dy
                    acc = target.get(key, 0) - qc * dc
                    if acc:
                        target[key] = acc
                    else:
                        del target[key]
            if not target:
                del rem[qe + d24]
    return TruncatedSeries(out, trunc)
