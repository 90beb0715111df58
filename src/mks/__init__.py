"""Pseudo-spectral stochastic Maxwell-Kerr simulator with a retarded material law."""

__version__ = "0.1.0"
