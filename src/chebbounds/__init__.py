"""Coefficient and Fekete-Szego bounds for a Chebyshev-subordinated
bi-univalent function class, with a brute-force verification oracle.

The API lives in the submodules (``chebbounds.bounds``,
``chebbounds.oracle``, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
