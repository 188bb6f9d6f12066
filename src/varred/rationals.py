"""Exact rational scalars.

All coefficient arithmetic in this package happens over the rationals, and
the stdlib Fraction is the one rational type: Poly and ConstMat compute on
Python ints over one denominator and hand out Fractions, so the scalar
layer adds no dependency.
"""
from __future__ import annotations

from fractions import Fraction as QQ

QQ0 = QQ(0)
QQ1 = QQ(1)


def is_integer(a) -> bool:
    return a.denominator == 1
