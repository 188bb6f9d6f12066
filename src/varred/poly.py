"""Univariate polynomials over the rationals.

Dense coefficient representation, ascending order.  The zero polynomial has
an empty coefficient tuple and its degree is the ``None`` sentinel -- code
that needs a degree must handle the zero case explicitly instead of
inheriting a -1 from somewhere.

The gcd runs on primitive integer coefficient lists with the subresultant
polynomial remainder sequence, which keeps intermediate coefficients from
exploding; everything user-facing is monic over Q.
"""
from __future__ import annotations

from .rationals import QQ, QQ0, QQ1

from math import gcd as _igcd


def _strip(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_strip([QQ(c) for c in coeffs]))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def _raw(coeffs) -> "Poly":
        """Internal: coefficients already QQ and stripped."""
        p = object.__new__(Poly)
        p.coeffs = tuple(coeffs)
        return p

    @staticmethod
    def const(c) -> "Poly":
        c = QQ(c)
        return Poly._raw((c,)) if c else Poly._raw(())

    @staticmethod
    def variable() -> "Poly":
        return Poly._raw((QQ0, QQ1))

    # ---- basic structure ----------------------------------------------

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else QQ0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from .expr import poly_to_text

        return f"Poly({poly_to_text(self, 'x')})"

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._raw(_strip(out))

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [QQ0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return Poly._raw(_strip(out))

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._raw(())
        out = [QQ0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return Poly._raw(_strip(out))

    def scale(self, c) -> "Poly":
        c = QQ(c)
        if not c:
            return Poly._raw(())
        return Poly._raw(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly._raw((QQ1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        """Exact field division with remainder; other must be nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return Poly._raw(()), Poly._raw(())
        db = other.degree
        if db == 0:
            inv = QQ1 / other.coeffs[0]
            return self.scale(inv), Poly._raw(())
        rem = list(self.coeffs)
        db_lc = other.coeffs[-1]
        q = [QQ0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / db_lc
            q[i - db] = f
            rem[i] = QQ0
            for j in range(db):
                rem[i - db + j] -= f * other.coeffs[j]
        return Poly._raw(_strip(q)), Poly._raw(_strip(rem))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        c = self.coeffs
        return Poly._raw(_strip([c[i] * i for i in range(1, len(c))]))

    def antiderivative(self) -> "Poly":
        """The primitive with zero constant term."""
        c = self.coeffs
        return Poly._raw(_strip([QQ0] + [c[i] / (i + 1) for i in range(len(c))]))

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(QQ1 / self.lc)

    # ---- integer normal form -------------------------------------------

    def primitive_int(self):
        """Return (content, int coefficient list) with self = content * list.

        The integer list has gcd 1 and positive leading coefficient; the
        sign lives in the content.  Zero polynomial: (0, []).
        """
        if self.is_zero:
            return QQ0, []
        den_lcm = 1
        for c in self.coeffs:
            d = c.denominator
            den_lcm = den_lcm * d // _igcd(den_lcm, int(d))
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = _igcd(g, v)
        if ints[-1] < 0:
            g = -g
        return QQ(g, den_lcm), [v // g for v in ints]


# ---- gcd machinery ------------------------------------------------------


def _int_lc(a):
    return a[-1]


def _int_prem(a, b):
    """Pseudo-remainder lc(b)^(da-db+1)*a mod b on int lists (ascending).

    Callers guarantee deg(a) >= deg(b) >= 1.
    """
    da, db = len(a) - 1, len(b) - 1
    r = list(a)
    lb = b[-1]
    for k in range(da - db, -1, -1):
        c = r[db + k]
        for i in range(len(r)):
            r[i] *= lb
        for j in range(db + 1):
            r[k + j] -= c * b[j]
    n = len(r)
    while n and r[n - 1] == 0:
        n -= 1
    return r[:n]


def _int_primitive(a):
    g = 0
    for v in a:
        g = _igcd(g, v)
    if not g:
        return []
    if a[-1] < 0:
        g = -g
    return [v // g for v in a]


def _int_gcd_prs(a, b):
    """Primitive gcd of primitive int lists via subresultant PRS."""
    if len(a) < len(b):
        a, b = b, a
    g = h = 1
    while True:
        d = len(a) - len(b)
        r = _int_prem(a, b)
        if not r:
            return _int_primitive(b)
        if len(r) == 1:
            return [1]
        a, b = b, [v // (g * h**d) for v in r]
        g = _int_lc(a)
        h = g**d // h ** (d - 1) if d >= 1 else h
        if len(b) == 1:
            return [1]


# Primes for the modular gcd, each below 2^31 so products with balanced
# residues stay cheap machine-word-ish operations.
_GCD_PRIMES = (
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
)


def _modp_gcd_monic(a, b, p):
    """Monic gcd of two int lists in F_p[x] (both nonzero mod p)."""
    fa = [v % p for v in a]
    fb = [v % p for v in b]
    while fa and fa[-1] == 0:
        fa.pop()
    while fb and fb[-1] == 0:
        fb.pop()
    while fb:
        # fa mod fb by synthetic division
        inv = pow(fb[-1], p - 2, p)
        db = len(fb) - 1
        r = fa[:]
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[db + k] * inv % p
            if c:
                for j in range(db):
                    r[k + j] = (r[k + j] - c * fb[j]) % p
                r[db + k] = 0
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    inv = pow(fa[-1], p - 2, p)
    return [v * inv % p for v in fa]


def _int_divides(h, a):
    """Exact quotient a / h over Z[x] (both primitive), or None."""
    dh = len(h) - 1
    da = len(a) - 1
    if da < dh:
        return None
    lead = h[-1]
    r = list(a)
    q = [0] * (da - dh + 1)
    for k in range(da - dh, -1, -1):
        c = r[dh + k]
        if c % lead:
            return None
        c //= lead
        q[k] = c
        if c:
            for j in range(dh + 1):
                r[k + j] -= c * h[j]
    return q if not any(r) else None


def _int_gcd(a, b):
    """Primitive gcd of primitive int lists, modular with PRS fallback.

    One good prime settles coprimality for sure (the gcd cannot drop degree
    mod p unless p divides a leading coefficient); nontrivial candidates are
    lifted with balanced residues, CRT-combined across primes until stable,
    and verified by exact division before being believed.
    """
    lc_pair = _igcd(a[-1], b[-1])
    best_deg = None
    residues = None  # balanced lift of lc_pair * monic gcd
    modulus = None
    for p in _GCD_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        gp = _modp_gcd_monic(a, b, p)
        deg = len(gp) - 1
        if deg == 0:
            return [1]
        if best_deg is None or deg < best_deg:
            # previous primes were unlucky (their gcd degree was too big)
            best_deg = deg
            residues = None
            modulus = None
        elif deg > best_deg:
            continue
        scaled = [v * lc_pair % p for v in gp]
        if modulus is None:
            modulus = p
            residues = [v - p if 2 * v > p else v for v in scaled]
        else:
            m, mp = modulus, modulus * p
            inv = pow(m % p, p - 2, p)
            combined = []
            for r0, rp in zip(residues, scaled):
                v = (r0 + (rp - r0) * inv % p * m) % mp
                combined.append(v - mp if 2 * v > mp else v)
            residues, modulus = combined, mp
        h = _int_primitive(residues)
        if h and len(h) - 1 == best_deg:
            qa = _int_divides(h, a)
            if qa is not None and _int_divides(h, b) is not None:
                return h
    return _int_gcd_prs(a, b)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return Poly._raw((QQ1,))
    _, ia = a.primitive_int()
    _, ib = b.primitive_int()
    ig = _int_gcd(ia, ib)
    return Poly(ig).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly._raw(())
    return (a * b).exact_div(poly_gcd(a, b)).monic()


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
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    d = c - b.derivative()
    out = []
    i = 1
    while not b.is_constant:
        a2 = poly_gcd(b, d)
        if not a2.is_constant:
            out.append((a2, i))
        b = b.exact_div(a2)
        c = d.exact_div(a2)
        d = c - b.derivative()
        i += 1
    return out


def _sympy_factor_squarefree(f: Poly):
    import sympy

    x = sympy.Symbol("x")
    _, ints = f.primitive_int()
    sp = sympy.Poly(list(reversed(ints)), x)
    out = []
    for fac, mult in sp.factor_list()[1]:
        coeffs = [QQ(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.extend([Poly(coeffs).monic()] * mult)
    return out


def factor_irreducible(p: Poly):
    """Full factorization over Q: (lc, [(monic irreducible, multiplicity)...]).

    Deterministic order: by (degree, coefficient tuple).  Squarefree splitting
    is Yun's algorithm; the remaining irreducible split of each squarefree
    part beyond degree one is delegated to sympy.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant:
        return p.lc, []
    factors = {}
    for sqf, mult in squarefree_decomposition(p):
        irrs = [sqf] if sqf.degree == 1 else _sympy_factor_squarefree(sqf)
        for f in irrs:
            factors[f] = factors.get(f, 0) + mult
    ordered = sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.lc, ordered
