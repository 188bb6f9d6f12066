"""Univariate polynomials over the rationals.

Dense representation, ascending order: a tuple of int numerators over one
positive int denominator, as FLINT's fmpq_poly keeps them.  The zero
polynomial has no numerators and its degree is the ``None`` sentinel --
code that needs a degree must handle the zero case explicitly instead of
inheriting a -1 from somewhere.

poly_cofactors is the one gcd kernel: it returns the monic gcd over Q
together with both exact quotients by it.  It runs on the primitive integer
numerators by the heuristic gcd of Char, Geddes and Gonnet (one integer gcd
of two evaluations, its xi-adic digits read back as a candidate).  When a
few evaluation points give no candidate that divides both inputs, Euclid's
algorithm answers instead, as the primitive remainder sequence over Z.
Either way an exact division of the inputs by the primitive gcd yields the
quotients, so callers never divide by the gcd again.

factor_irreducible is the one way to factor.  In full, it splits
squarefree parts by Yun's algorithm and each part into irreducibles by
Zassenhaus's method: Cantor-Zassenhaus modulo a small prime, Hensel
lifting, and recombination of the lifted factors by exact division over
Z, all on int lists, with no Poly built until the factors are known.
Inside a shared_factors() block it answers through the block's FactorBase
instead, by trial division over the irreducible factors met so far (the
idea of factor refinement, Bach, Driscoll and Shallit, J. Algorithms 15,
1993), and factors in full only the cofactor that is left; a computation
whose denominators share a few poles, such as one reduction, runs in one
block.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

from .rationals import QQ, QQ0, QQ1

from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm


def _canon(nums, den) -> "Poly":
    """The Poly nums/den from an int list and a positive int denominator.

    Strips trailing zeros and divides the gcd of the numerators and the
    denominator out of both, which makes the pair canonical.
    """
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    nums = nums[:n]
    if den != 1:
        g = _igcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    return Poly._new(tuple(nums), den)


class Poly:
    """A polynomial over Q stored as int numerators over one denominator.

    The pair (num, den) is canonical: num is a tuple of ints with no
    trailing zero, den is a positive int, and den is coprime to the gcd of
    num.  Zero is ((), 1).  All arithmetic runs on these ints; ``coeffs``
    gives the rational coefficients on demand.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __new__(cls, coeffs=()):
        cs = [c if type(c) is int else QQ(c) for c in coeffs]
        den = _ilcm(*[c.denominator for c in cs if type(c) is not int])
        nums = [c * den if type(c) is int
                else c.numerator * (den // c.denominator) for c in cs]
        return _canon(nums, den)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def _new(nums, den) -> "Poly":
        """Internal: (nums, den) already canonical."""
        p = object.__new__(Poly)
        p._num = nums
        p._den = den
        p._coeffs = None
        return p

    @staticmethod
    def const(c) -> "Poly":
        c = QQ(c)
        if not c:
            return _ZERO
        return Poly._new((c.numerator,), c.denominator)

    @staticmethod
    def variable() -> "Poly":
        return Poly._new((0, 1), 1)

    # ---- basic structure ----------------------------------------------

    @property
    def coeffs(self):
        """The rational coefficients, ascending, as a tuple of QQ."""
        c = self._coeffs
        if c is None:
            d = self._den
            c = self._coeffs = tuple(QQ(v, d) for v in self._num)
        return c

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self._num) - 1 if self._num else None

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self._den == 1 and self._num == (1,)

    @property
    def is_constant(self) -> bool:
        return len(self._num) <= 1

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return QQ(self._num[-1], self._den) if self._num else QQ0

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        from .expr import poly_to_text

        return f"Poly({poly_to_text(self, 'x')})"

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign*other."""
        a, da = self._num, self._den
        b, db = other._num, other._den
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        if da == db:
            ma, mb, den = 1, sign, da
        else:
            g = _igcd(da, db)
            ma, mb, den = db // g, sign * (da // g), da // g * db
        if len(a) < len(b):
            a, ma, b, mb = b, mb, a, ma
        out = list(a) if ma == 1 else [v * ma for v in a]
        for i, v in enumerate(b):
            out[i] += mb * v
        return _canon(out, den)

    def __neg__(self):
        return Poly._new(tuple(-v for v in self._num), self._den)

    def __mul__(self, other):
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, bi in enumerate(b):
            if bi:
                for j, aj in enumerate(a, i):
                    out[j] += aj * bi
        return _canon(out, self._den * other._den)

    def scale(self, c) -> "Poly":
        c = QQ(c)
        if not c:
            return _ZERO
        return self._scale(c.numerator, c.denominator)

    def _scale(self, p, q) -> "Poly":
        """self * p/q for coprime ints p != 0 and q > 0."""
        a, den = self._num, self._den
        if not a:
            return _ZERO
        g = _igcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            g = _igcd(q, *a)
            if g != 1:
                a = [v // g for v in a]
                q //= g
        return Poly._new(tuple(v * p for v in a), den * q)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # square only while bits remain
                base = base * base
        return out

    def divmod(self, other):
        """Exact field division with remainder; other must be nonzero.

        Fraction-free pseudo-division on the int numerators: each step
        scales the remainder by lc(b)/g only, g = gcd(lc(b), leading
        remainder coefficient), and the accumulated scale goes into the
        denominators at the end.
        """
        b, db = other._num, other._den
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a, da = self._num, self._den
        if not a:
            return _ZERO, _ZERO
        nb = len(b) - 1
        if nb == 0:
            p, q = (db, b[0]) if b[0] > 0 else (-db, -b[0])
            return self._scale(p, q), _ZERO
        if len(a) <= nb:
            return _ZERO, self
        lb = b[-1]
        r = list(a)
        q = [0] * (len(a) - nb)
        s = 1  # s*a == q*b + r throughout
        for k in range(len(a) - 1 - nb, -1, -1):
            c = r[k + nb]
            if not c:
                continue
            g = _igcd(c, lb)
            if lb < 0:
                g = -g
            m = lb // g
            if m != 1:
                r = [v * m for v in r]
                q = [v * m for v in q]
                s *= m
            f = c // g
            q[k] = f
            for j in range(nb):
                r[k + j] -= f * b[j]
            r[k + nb] = 0
        den = s * da
        return _canon([v * db for v in q], den), _canon(r[:nb], den)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        a = self._num
        return _canon([a[i] * i for i in range(1, len(a))], self._den)

    def antiderivative(self) -> "Poly":
        """The primitive with zero constant term."""
        a = self._num
        l = _ilcm(*range(1, len(a) + 1))
        return _canon([0] + [v * (l // i) for i, v in enumerate(a, 1)], self._den * l)

    def monic(self) -> "Poly":
        a = self._num
        if not a or a[-1] == self._den:
            return self
        ints = _int_primitive(a)
        return Poly._new(tuple(ints), ints[-1])

    # ---- integer normal form -------------------------------------------

    def primitive_int(self):
        """Return (content, int coefficient list) with self = content * list.

        The integer list has gcd 1 and positive leading coefficient; the
        sign lives in the content.  Zero polynomial: (0, []).
        """
        a = self._num
        if not a:
            return QQ0, []
        ints = _int_primitive(a)
        return QQ(a[-1] // ints[-1], self._den), ints


_ZERO = Poly._new((), 1)
_ONE = Poly._new((1,), 1)


# ---- gcd machinery ------------------------------------------------------


def _int_primitive(a):
    g = _igcd(*a)
    if not g:
        return []
    if a[-1] < 0:
        g = -g
    return [v // g for v in a]


def _int_quot(a, h):
    """a / h over Z[x] when h divides a exactly, else None (h nonzero)."""
    dh = len(h) - 1
    dq = len(a) - 1 - dh
    if dq < 0:
        return None
    lead = h[-1]
    r = list(a)
    q = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c, m = divmod(r[dh + k], lead)
        if m:
            return None
        if c:
            q[k] = c
            for j in range(dh):
                r[k + j] -= c * h[j]
    return None if any(r[:dh]) else q


# Evaluation points the heuristic gcd tries before Euclid.
_HEU_POINTS = 6
# Added to the least point Theorem 7.7 allows: the spare room keeps a small
# common factor of the cofactor values from spoiling the candidate, and the
# point stays one 30-bit digit for inputs with small coefficients.
_XI_OFFSET = 2**20


def _mignotte_bound(f):
    """A bound on the coefficients of every factor over Z of the int list f:
    |g|_inf <= |g|_1 <= 2^deg(f) |f|_2 (Mignotte, Math. Comp. 28, 1974)."""
    return (_isqrt(sum(v * v for v in f)) + 1) << (len(f) - 1)


def _eval_points(a, b):
    """The points of the heuristic gcd: the first is at least
    2 min(|a|_inf, |b|_inf) + 2, the bound of Theorem 7.7 in Geddes, Czapor
    and Labahn, Algorithms for Computer Algebra (1992); each next one is
    about 2.73 times the last, as in sympy's heugcd, and at least 2B + 2,
    B the smaller Mignotte bound of the two, which bounds the coefficients
    of the gcd."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2 + _XI_OFFSET
    for k in range(_HEU_POINTS):
        yield xi
        xi = xi * 73794 // 27011
        if not k:
            xi = max(xi, 2 * min(_mignotte_bound(a), _mignotte_bound(b)) + 2)


def _int_cofactors(a, b):
    """(h, a/h, b/h) with h the primitive gcd of primitive int lists of
    degree >= 1, by the heuristic gcd of Char, Geddes and Gonnet
    (J. Symbolic Comp. 7, 1989).

    At a point xi of `_eval_points` the integer gcd of a(xi) and b(xi) is a
    multiple of h(xi).  An integer gcd of at most xi/2 means the inputs are
    coprime: every root of h is a root of both, so of modulus below
    1 + min(|a|_inf, |b|_inf) <= xi/2, and |h(xi)| > xi/2 unless h is
    constant.  Otherwise the symmetric xi-adic digits of the integer gcd
    give a candidate, and its primitive part is the gcd exactly when it
    divides both inputs (Theorem 7.7), which the division that yields the
    cofactors checks.  A point whose candidate fails is followed by the
    next; when all fail, `_int_euclid` answers.
    """
    for xi in _eval_points(a, b):
        va = vb = 0
        for v in reversed(a):
            va = va * xi + v
        for v in reversed(b):
            vb = vb * xi + v
        gamma = _igcd(va, vb)
        half = xi >> 1
        if gamma <= half:
            return [1], a, b
        digits = []
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > half:
                d -= xi
                gamma += 1
            digits.append(d)
        h = _int_primitive(digits)
        qa = _int_quot(a, h)
        if qa is not None:
            qb = _int_quot(b, h)
            if qb is not None:
                return h, qa, qb
    h = _int_euclid(a, b)
    return h, _int_quot(a, h), _int_quot(b, h)


def _int_euclid(a, b):
    """The primitive gcd of primitive int lists of degree >= 1 by Euclid's
    algorithm on Z[x] that keeps the primitive part of each remainder (the
    primitive remainder sequence, Geddes, Czapor and Labahn, sec. 7.3)."""
    while len(b) > 1:
        r = Poly._new(tuple(a), 1) % Poly._new(tuple(b), 1)
        if not r:
            return b
        a, b = b, r.primitive_int()[1]
    return [1]


def poly_cofactors(a: Poly, b: Poly):
    """(g, a/g, b/g) with g the monic gcd over Q; (0, 0, 0) when both are
    zero.  Each result is exact: a == g * (a/g) and b == g * (b/g)."""
    an, bn = a._num, b._num
    if not an or not bn:
        if an:
            return a.monic(), _canon([an[-1]], a._den), _ZERO
        if bn:
            return b.monic(), _ZERO, _canon([bn[-1]], b._den)
        return _ZERO, _ZERO, _ZERO
    if len(an) == 1 or len(bn) == 1:
        return _ONE, a, b
    ia, ib = _int_primitive(an), _int_primitive(bn)
    h, qa, qb = _int_cofactors(ia, ib)
    if len(h) == 1:
        return _ONE, a, b
    # an == c * ia with c = an[-1] // ia[-1] and ia == qa * h, so
    # a / (h / lead) == qa * c * lead / a._den; h / lead is canonical and
    # monic, as h is primitive with a positive lc
    lead = h[-1]
    ma, mb = an[-1] // ia[-1] * lead, bn[-1] // ib[-1] * lead
    return (Poly._new(tuple(h), lead), _canon([v * ma for v in qa], a._den),
            _canon([v * mb for v in qb], b._den))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    return poly_cofactors(a, b)[0]


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return _ZERO
    return (poly_cofactors(a, b)[1] * b).monic()


def _remembered(fn):
    """fn, its answers kept by the FactorBase of the enclosing
    shared_factors() block, if there is one, and read back when the same
    arguments come again."""

    @wraps(fn)
    def remembered(*args):
        base = _FACTOR_BASE.get()
        if base is None:
            return fn(*args)
        key = (fn, *args)
        if key not in base.answers:
            base.answers[key] = fn(*args)
        return base.answers[key]

    return remembered


@_remembered
def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd over Q: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.const(1), Poly()
    t0, t1 = Poly(), Poly.const(1)
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = QQ1 / r0.lc
    return r0.scale(c), s0.scale(c), t0.scale(c)


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: list of (monic factor, multiplicity), p = lc * prod f_i^m_i.

    Factors are squarefree, pairwise coprime and nonconstant; multiplicities
    ascend.
    """
    if p.is_constant:
        return []
    return list(_yun(p.monic()))


@_remembered
def _yun(p: Poly):
    """squarefree_decomposition of a nonconstant monic p."""
    _, b, c = poly_cofactors(p, p.derivative())
    d = c - b.derivative()
    out = []
    i = 1
    while not b.is_constant:
        a2, b, c = poly_cofactors(b, d)
        if not a2.is_constant:
            out.append((a2, i))
        d = c - b.derivative()
        i += 1
    return out


# ---- factorization: int lists modulo m, ascending, entries in [0, m) ------


def _mod_strip(a, m):
    out = [v % m for v in a]
    while out and not out[-1]:
        out.pop()
    return out


def _mod_add(a, b, m, sign=1):
    """a + sign*b modulo m."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] += sign * v
    return _mod_strip(out, m)


def _mod_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, v in enumerate(a):
        if v:
            for j, w in enumerate(b, i):
                out[j] += v * w
    return _mod_strip(out, m)


def _mod_divmod(a, b, m):
    """(q, r) with a = q*b + r modulo m; lc(b) must be a unit modulo m."""
    inv, nb = pow(b[-1], -1, m), len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - nb, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb] * inv % m
        if c:
            q[k] = c
            for j in range(nb):
                r[k + j] -= c * b[j]
    return _mod_strip(q, m), _mod_strip(r[:nb], m)


def _mod_monic(a, m):
    inv = pow(a[-1], -1, m)
    return [v * inv % m for v in a]


def _mod_gcd(a, b, p):
    """The monic gcd modulo the prime p; a nonzero."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p)


def _mod_bezout(a, b, p):
    """(s, t) with s*a + t*b = 1 modulo the prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_add(s0, _mod_mul(q, s1, p), p, -1)
        t0, t1 = t1, _mod_add(t0, _mod_mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return [v * inv % p for v in s0], [v * inv % p for v in t0]


def _mod_powmod(a, n, f, p):
    """a^n modulo f and p."""
    out = [1]
    while n:
        if n & 1:
            out = _mod_divmod(_mod_mul(out, a, p), f, p)[1]
        n >>= 1
        if n:
            a = _mod_divmod(_mod_mul(a, a, p), f, p)[1]
    return out


def _mod_distinct_degree(f, p):
    """[(g, d)]: g the product of the irreducible factors of degree d of the
    monic squarefree f modulo p (von zur Gathen and Gerhard, Alg. 14.3)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _mod_powmod(h, p, f, p)
        g = _mod_gcd(f, _mod_add(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _mod_equal_degree(f, d, p, rng):
    """The monic irreducible factors modulo the odd prime p of f, a product
    of distinct ones of degree d, by Cantor and Zassenhaus's random split."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _mod_strip([rng.randrange(p) for _ in range(len(f) - 1)], p)
        g = _mod_gcd(f, _mod_add(_mod_powmod(a, e, f, p), [1], p, -1), p)
        if 1 < len(g) < len(f):
            return (_mod_equal_degree(g, d, p, rng)
                    + _mod_equal_degree(_mod_divmod(f, g, p)[0], d, p, rng))


def _hensel_step(f, g, h, s, t, m):
    """f = g*h and s*g + t*h = 1 modulo m, h monic, lifted to modulo m^2
    (von zur Gathen and Gerhard, Alg. 15.10)."""
    mm = m * m
    e = _mod_add(f, _mod_mul(g, h, mm), mm, -1)
    q, r = _mod_divmod(_mod_mul(s, e, mm), h, mm)
    g = _mod_add(g, _mod_add(_mod_mul(t, e, mm), _mod_mul(q, g, mm), mm), mm)
    h = _mod_add(h, r, mm)
    b = _mod_add(_mod_add(_mod_mul(s, g, mm), _mod_mul(t, h, mm), mm), [1], mm, -1)
    c, d = _mod_divmod(_mod_mul(s, b, mm), h, mm)
    s = _mod_add(s, d, mm, -1)
    t = _mod_add(t, _mod_add(_mod_mul(t, b, mm), _mod_mul(c, g, mm), mm), mm, -1)
    return g, h, s, t


def _hensel_lift(f, facs, p, m):
    """The monic factors modulo m, a power p^(2^k), of f = lc(f) * prod(facs)
    modulo p, the facs monic and pairwise coprime: split facs in halves,
    lift the two products together, and recurse into each."""
    if len(facs) == 1:
        return [_mod_monic(f, m)]
    k = len(facs) // 2
    g = [f[-1] % p]
    for u in facs[:k]:
        g = _mod_mul(g, u, p)
    h = [1]
    for u in facs[k:]:
        h = _mod_mul(h, u, p)
    s, t = _mod_bezout(g, h, p)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
        q *= q
    return _hensel_lift(g, facs[:k], p, m) + _hensel_lift(h, facs[k:], p, m)


def _factor_squarefree(f: Poly):
    """The monic irreducible factors over Q of f, squarefree and of degree at
    least 2, by Zassenhaus's method (J. Number Theory 1, 1969) on its
    primitive integer part: factor modulo an odd prime that keeps the degree
    and the squarefreeness (distinct-degree, then equal-degree), lift the
    factors until the modulus exceeds twice the leading coefficient times
    the Mignotte bound, and recombine subsets of them, the smallest first,
    by exact division over Z."""
    from itertools import combinations
    from random import Random

    from .errors import check_deadline

    ints = f.primitive_int()[1]
    p = 3
    while True:
        if ints[-1] % p and all(p % q for q in range(3, _isqrt(p) + 1, 2)):
            fp = _mod_monic(_mod_strip(ints, p), p)
            dfp = _mod_strip([i * v for i, v in enumerate(fp)][1:], p)
            if len(_mod_gcd(fp, dfp, p)) == 1:
                break
        p += 2
    rng = Random(0)
    facs = [u for g, d in _mod_distinct_degree(fp, p)
            for u in _mod_equal_degree(g, d, p, rng)]
    found = []
    if len(facs) > 1:
        m = p
        while m <= 2 * ints[-1] * _mignotte_bound(ints):
            m *= m
        lifted = _hensel_lift(ints, facs, p, m)
        s = 1
        while 2 * s <= len(lifted):
            for sub in combinations(range(len(lifted)), s):
                check_deadline()
                g = [ints[-1]]
                for i in sub:
                    g = _mod_mul(g, lifted[i], m)
                g = _int_primitive([v - m if 2 * v > m else v for v in g])
                q = _int_quot(ints, g)
                if q is not None:
                    found.append(g)
                    ints = q
                    lifted = [u for i, u in enumerate(lifted) if i not in sub]
                    break
            else:
                s += 1
    return [Poly._new(tuple(g), 1).monic() for g in found + [ints]]


def _factor_full(p: Poly):
    """factor_irreducible(p), p nonzero, computed from scratch: Yun's
    squarefree split, then _factor_squarefree on each part beyond degree one."""
    if p.is_constant:
        return p.lc, []
    factors = {}
    for sqf, mult in squarefree_decomposition(p):
        irrs = [sqf] if sqf.degree == 1 else _factor_squarefree(sqf)
        for f in irrs:
            factors[f] = factors.get(f, 0) + mult
    ordered = sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.lc, ordered


class FactorBase:
    """The monic irreducible factors met so far, to factor by trial division.

    factor(p) returns what _factor_full(p) returns, for a nonzero p.
    p.monic() is divided by each factor held, as often as it goes exactly,
    and only a nonconstant cofactor that is left is factored in full; its
    factors join the base.  Factorization over Q is unique, so the result
    does not depend on what the base holds.  The base also remembers the factor list
    of every monic input it has factored and returns a fresh copy of it
    when that input comes again, and so it remembers the squarefree split of
    each monic input and the Bezout cofactors of each argument pair of
    poly_xgcd, the two things a Hermite reduction asks of a denominator
    again and again.  It lives only as long as the outermost
    shared_factors() block, so nothing it remembers outlives that block.
    """

    def __init__(self):
        self._factors = []  # ascending degree
        self._known = {}  # monic input -> its (factor, multiplicity) list
        self.answers = {}  # (function, *arguments) -> answer, for @_remembered

    def factor(self, p: Poly):
        monic = rest = p.monic()
        known = self._known.get(monic)
        if known is not None:
            return p.lc, list(known)
        found = []
        for q in self._factors:
            if q.degree > rest.degree:
                break
            k = 0
            quo, r = rest.divmod(q)
            while r.is_zero:
                rest, k = quo, k + 1
                quo, r = rest.divmod(q)
            if k:
                found.append((q, k))
        if not rest.is_constant:
            new = _factor_full(rest)[1]
            found.extend(new)
            self._factors.extend(q for q, _ in new)
            self._factors.sort(key=lambda q: q.degree)
        found.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
        self._known[monic] = found
        return p.lc, list(found)


# the FactorBase of the enclosing shared_factors() block; None: no block
_FACTOR_BASE = ContextVar("varred_factor_base", default=None)


@contextmanager
def shared_factors():
    """Make factor_irreducible answer through one FactorBase inside the
    with-block.  A nested block reuses the enclosing block's base; the
    outermost block drops it on exit, also when an exception leaves it."""
    base = _FACTOR_BASE.get()
    token = _FACTOR_BASE.set(FactorBase() if base is None else base)
    try:
        yield
    finally:
        _FACTOR_BASE.reset(token)


def factor_irreducible(p: Poly):
    """Full factorization over Q: (lc, [(monic irreducible, multiplicity)...]).

    Deterministic order: by (degree, coefficient tuple).  Inside a
    shared_factors() block the block's FactorBase answers; outside one,
    p is factored from scratch.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    base = _FACTOR_BASE.get()
    return _factor_full(p) if base is None else base.factor(p)
