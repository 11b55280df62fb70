"""Exact Tate spectral sequence engine and duality shift calculator at
height n = p - 1."""

__version__ = "0.1.0"
