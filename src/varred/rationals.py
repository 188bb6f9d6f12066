"""Exact rational scalars.

All coefficient arithmetic in this package happens over the rationals.
gmpy2's mpq is used when it is installed (GMP-backed, considerably faster
once numerators grow); the stdlib Fraction is a drop-in fallback so the
package stays importable without it.
"""
from __future__ import annotations

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

QQ0 = QQ(0)
QQ1 = QQ(1)


def is_integer(a) -> bool:
    return a.denominator == 1
