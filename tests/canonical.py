"""The canonical coefficient rule, as the tests check it."""

from fractions import Fraction

from k3moonshine.cyclotomic import CyclotomicNumber


def is_canonical(c) -> bool:
    """An int when integral, a Fraction with denominator > 1 otherwise,
    never a float; a cyclotomic number's coordinates follow the same rule."""
    if type(c) is CyclotomicNumber:
        return all(map(is_canonical, c.c))
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def all_canonical(series) -> bool:
    return all(map(is_canonical, series.terms.values()))
