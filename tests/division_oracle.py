"""Exact series division by the plain slice recurrence, as a test oracle.

The library divides by a monic divisor (divisor * c^-1, quotient scaled by
c^-1, where c is the lead).  This oracle keeps the recurrence without that
normalisation: each quotient slice is the lowest remainder slice times the
reciprocal of the lead, so with a non-unit lead every remainder runs in
Fractions.  Both must give the same quotient and truncation.
"""

from k3moonshine.series import NotInSpanError, TruncatedSeries, exact_quotient


def _grouped(s):
    groups = {}
    for (q24, y2, z), c in s.terms.items():
        groups.setdefault(q24, []).append(((y2, z), c))
    return sorted(groups.items())


def _slice_divide(numer, denom, q24):
    out = {}
    dy = {y2: c for (y2, _), c in denom}
    dz = denom[0][0][1]
    dmin, dmax = min(dy), max(dy)
    lead_inv = exact_quotient(1, dy[dmax])
    strata = {}
    for (y2, z), c in numer.items():
        strata.setdefault(z, {})[y2] = c
    for z, work in strata.items():
        while work:
            top, low = max(work), min(work)
            if top - dmax < low - dmin:
                raise NotInSpanError("slice not divisible", q24=q24)
            shift = top - dmax
            coeff = work[top] * lead_inv
            out[(shift, z - dz)] = coeff
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
    for (e, y2, z), c in num.terms.items():
        if e - dmin < trunc:
            rem.setdefault(e, {})[(y2, z)] = c
    out = {}
    while rem:
        e = min(rem)
        quotient = _slice_divide(rem.pop(e), dlead, e)
        qe = e - dmin
        for (y2, z), c in quotient.items():
            out[(qe, y2, z)] = c
        for d24, dslice in dtail:
            if qe + d24 - dmin >= trunc:
                break
            target = rem.setdefault(qe + d24, {})
            for (qy, qz), qc in quotient.items():
                for (dy, dz), dc in dslice:
                    key = (qy + dy, qz + dz)
                    acc = target.get(key, 0) - qc * dc
                    if acc:
                        target[key] = acc
                    else:
                        del target[key]
            if not target:
                del rem[qe + d24]
    return TruncatedSeries(out, trunc)
