"""Exact-arithmetic toolkit for K3 elliptic genera, N=4 characters,
and Mathieu-group character lattices."""
