"""Exact-arithmetic toolkit for K3 elliptic genera, N=4 characters,
and Mathieu-group character lattices."""

from .cyclotomic import CyclotomicNumber, DomainError, zeta
from .series import (
    INF24, InsufficientPrecisionError, NotInSpanError, TruncatedSeries,
)
from .qpoly import RationalFunction
from .lattice import (
    AbelianQuotient, IntegerLattice, hnf_basis, smith_normal_form,
    snf_quotient, solve_in_lattice,
)
from .modforms import euler_specialization, jacobi_theta, weak_jacobi_phi
from .genus import (
    chi_sym_power, chi_symt_series, elliptic_genus,
    equivariant_elliptic_genus, jacobi_split, rational_form,
    verify_moonshine_class,
)
from .n4char import (
    ch_vn_closed, ch_vn_extract, decompose_into_n4, g_series,
    genus_A_coefficients, h_series, polar_part, twining_to_symtraces,
    twining_truncation,
)
from .chartab import CharacterTable

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber", "DomainError", "zeta",
    "INF24", "InsufficientPrecisionError", "NotInSpanError", "TruncatedSeries",
    "RationalFunction",
    "AbelianQuotient", "IntegerLattice", "hnf_basis", "smith_normal_form",
    "snf_quotient", "solve_in_lattice",
    "euler_specialization", "jacobi_theta", "weak_jacobi_phi",
    "chi_sym_power", "chi_symt_series", "elliptic_genus",
    "equivariant_elliptic_genus", "jacobi_split", "rational_form",
    "verify_moonshine_class",
    "ch_vn_closed", "ch_vn_extract", "decompose_into_n4", "g_series",
    "genus_A_coefficients", "h_series", "polar_part", "twining_to_symtraces",
    "twining_truncation", "CharacterTable",
    "__version__",
]
