"""Exact-arithmetic engine for Sobolev-Jacobi and two-variable Hermite
polynomial families, their generating functions, lacunary series, and
connection coefficients.

All arithmetic happens in the ring of rationals times integer powers of
sqrt(pi); nothing is ever evaluated in floating point.  Callers import the
submodules (``from sjk import families``); the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
