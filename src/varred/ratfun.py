"""Rational functions in one variable over Q, and the calculus on them that
the reduction steps consume: the Hermite split of a function into a
derivative part plus a simple-pole part, recognition of logarithmic
derivatives c*w'/w, and rational solutions of first order equations
y' = gamma*y + beta.  The three read the part of a function over one
factor of its denominator through one helper, _part_over; no full
partial-fraction decomposition is built.

Canonical form: numerator and denominator coprime, denominator monic.  The
add/mul routines follow the gcd-avoiding scheme of the stdlib Fraction type
(Henrici), which keeps the polynomial gcds small; each gcd comes from
poly.poly_cofactors together with both operands divided by it.  The
Hermite split keeps one numerator per squarefree factor of the denominator
and normalizes each of its two parts once, over one denominator, instead
of adding a normalized term per pole order; the rational solver builds its
linear system from shifts of two polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .rationals import QQ, QQ0, QQ1, is_integer
from .poly import (
    Poly,
    derivative_cofactors,
    factor_irreducible,
    poly_cofactors,
    poly_lcm,
    poly_xgcd,
    squarefree_decomposition,
)
from .expr import parse_expression, poly_to_text, _is_bare_atom

_ONE = Poly((QQ1,))
_ZERO_POLY = Poly()


class RatFun:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = Poly(), _ONE
            return
        _, num, den = poly_cofactors(num, den)
        lc = den.lc
        if lc != 1:
            inv = QQ1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.num, self.den = num, den

    @staticmethod
    def _raw(num: Poly, den: Poly) -> "RatFun":
        f = object.__new__(RatFun)
        f.num, f.den = num, den
        return f

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun._raw(Poly.const(c), _ONE)

    @staticmethod
    def variable() -> "RatFun":
        return RatFun._raw(Poly.variable(), _ONE)

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun._raw(p, _ONE)

    # ---- structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_one

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({self.render()})"

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if na.is_zero:
            return other
        if nb.is_zero:
            return self
        if da == db:
            num = na + nb
            if num.is_zero:
                return _ZERO
            _, num, da = poly_cofactors(num, da)
            return RatFun._raw(num, da)
        g, da_r, db_r = poly_cofactors(da, db)
        if g.is_one:
            num = na * db + nb * da
            if num.is_zero:
                return _ZERO
            return RatFun._raw(num, da * db)
        t = na * db_r + nb * da_r
        if t.is_zero:
            return _ZERO
        g2, t, g_r = poly_cofactors(t, g)
        # da * db / g2 == da_r * db_r * (g / g2), and db == db_r * g
        return RatFun._raw(t, da_r * (db if g2.is_one else db_r * g_r))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFun._raw(-self.num, self.den)

    def __mul__(self, other):
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if na.is_zero or nb.is_zero:
            return _ZERO
        _, na, db = poly_cofactors(na, db)
        _, nb, da = poly_cofactors(nb, da)
        return RatFun._raw(na * nb, da * db)

    def __truediv__(self, other):
        nb, db = other.num, other.den
        if nb.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        inv = QQ1 / nb.lc
        return self * RatFun._raw(db.scale(inv), nb.scale(inv))

    def scale(self, c) -> "RatFun":
        c = QQ(c)
        if not c:
            return _ZERO
        return RatFun._raw(self.num.scale(c), self.den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of rational function; use division")
        if n == 0:
            return RatFun.const(1)
        if self.is_zero:
            return _ZERO
        return RatFun._raw(self.num**n, self.den**n)

    def power_size(self, n: int) -> int:
        """The most coefficients the numerator or denominator of self**n has."""
        return n * max(self.num.degree or 0, self.den.degree) + 1

    def product_size(self, other) -> int:
        """The most coefficients the numerator or denominator of self*other
        or self/other has."""
        return (max(self.num.degree or 0, self.den.degree)
                + max(other.num.degree or 0, other.den.degree) + 1)

    def derivative(self) -> "RatFun":
        """(n/d)' = (n' r - n q) / (d r) with g = gcd(d, d'), r = d/g and
        q = d'/g, already reduced: an irreducible p with p^e || d divides
        d r e + 1 times but not the numerator, which is -e n p' r/p modulo
        p.  r and q come from poly.derivative_cofactors, so inside a
        shared_factors() block each distinct denominator costs one gcd.
        """
        n, d = self.num, self.den
        if d.is_one:
            return RatFun._raw(n.derivative(), _ONE)
        r, q = derivative_cofactors(d)
        return RatFun._raw(n.derivative() * r - n * q, d * r)

    # ---- text ------------------------------------------------------------

    def render(self, var: str = "x") -> str:
        """Canonical expression text; integer-primitive numerator/denominator."""
        if self.is_zero:
            return "0"
        cn, n_int = self.num.primitive_int()
        cd, d_int = self.den.primitive_int()
        c = cn / cd  # d_int has a positive lc, and so has c.denominator * d_int
        num = Poly._new(tuple(v * c.numerator for v in n_int), 1)
        den = Poly._new(tuple(v * c.denominator for v in d_int), 1)
        ns = poly_to_text(num, var)
        if den.is_one:
            return ns
        ds = poly_to_text(den, var)
        if not _is_bare_atom(ns):
            ns = f"({ns})"
        if not _is_bare_atom(ds):
            ds = f"({ds})"
        return f"{ns}/{ds}"


_ZERO = RatFun._raw(Poly(), _ONE)


def common_denominator(funcs):
    """(den, nums): the monic lcm of the denominators of funcs and their
    numerators over it.

    Each distinct denominator is visited once, highest degree first, and
    one that already divides the running lcm costs a division, not an lcm.
    """
    quots = dict.fromkeys(f.den for f in funcs)
    den = _ONE
    for d in sorted(quots, key=lambda d: -d.degree):
        if den.degree < d.degree or not (den % d).is_zero:
            den = poly_lcm(den, d)
    for d in quots:
        quots[d] = _ONE if d == den else den.exact_div(d)
    return den, [f.num if quots[f.den].is_one else f.num * quots[f.den] for f in funcs]


def parse_ratfun(text: str, var: str = "x") -> RatFun:
    """Parse expression text into a rational function of the given variable."""

    def resolve(name):
        return RatFun.variable() if name == var else None

    return parse_expression(text, resolve, RatFun.const)


# ---- the part of a function over one factor of its denominator -------------


def _part_over(num: Poly, den: Poly, qm: Poly) -> Poly:
    """The numerator over qm of the part of num/den over the factor qm of
    den, which must be coprime to den/qm: num * (den/qm)^-1 mod qm."""
    rest = den.exact_div(qm)
    if rest.is_one:
        return num % qm
    g, s, _ = poly_xgcd(rest, qm)
    if not g.is_one:
        raise ValueError("denominator factors not coprime")
    return (num * s) % qm


# ---- Hermite split ----------------------------------------------------------


@dataclass
class HermiteSplit:
    r: RatFun  # rational part: f = r' + l
    l: RatFun  # only simple poles, zero or with squarefree denominator


def hermite_split(f: RatFun) -> HermiteSplit:
    """Split f = R' + L with L having only simple poles.

    Uses the squarefree decomposition of the denominator only -- no
    irreducible factorization.  L collects the residue parts; the polynomial
    part of f integrates into R.  Each squarefree factor q of multiplicity
    m leaves one numerator over q^(m-1) in R and one over q in L, and each
    of R and L is normalized once, over the product of its denominators
    (Bronstein, Symbolic Integration I, ch. 2).
    """
    polypart, rem = f.num.divmod(f.den)
    rpoly = polypart.antiderivative()
    r_parts, l_parts = [], []  # (numerator, denominator) pairs
    if not rem.is_zero:
        for q, mult in squarefree_decomposition(f.den):
            comp = _part_over(rem, f.den, q**mult)
            dq = q.derivative()
            _, s2, t2 = poly_xgcd(q, dq)  # s2*q + t2*q' = 1, q squarefree
            num, qpow = _ZERO_POLY, _ONE  # num over q^(mult-1); qpow = q^(mult-j)
            for j in range(mult, 1, -1):
                # comp/q^j = (-b/((j-1) q^(j-1)))' + (comp*s2 + h*q' + b'/(j-1)) / q^(j-1)
                # where comp*t2 = h*q + b
                h, b = (comp * t2).divmod(q)
                if not b.is_zero:
                    num = num + b._scale(-1, j - 1) * qpow
                comp = comp * s2 + h * dq + b.derivative()._scale(1, j - 1)
                qpow = qpow * q
            hh, low = comp.divmod(q)
            rpoly = rpoly + hh.antiderivative()
            if not num.is_zero:
                r_parts.append((num, qpow))
            if not low.is_zero:
                l_parts.append((low, q))
    return HermiteSplit(_over_product(rpoly, r_parts), _over_product(_ZERO_POLY, l_parts))


def _over_product(poly: Poly, parts) -> RatFun:
    """poly + sum of num/den over (num, den) parts with pairwise coprime
    monic dens, normalized once over the product of the dens."""
    if not parts:
        return RatFun.from_poly(poly)
    den = _ONE
    for _, d in parts:
        den = den * d
    num = poly * den
    for k, (n, _) in enumerate(parts):
        for i, (_, d) in enumerate(parts):
            if i != k:
                n = n * d
        num = num + n
    return RatFun(num, den)


# ---- logarithmic derivative recognition -------------------------------------

# the largest deg(w) / deg(den) that as_log_derivative multiplies out
_LOG_DEGREE_FACTOR = 16


def as_log_derivative(f: RatFun):
    """If f = c * w'/w with c rational and w a rational function, return (c, w).

    Otherwise None.  f must be proper with only simple poles, and its
    residue part over each irreducible factor q of the denominator a
    rational multiple lambda of q'.  Normalized so the integer exponent
    vector of w has gcd 1 and positive first exponent, factors ordered as
    factor_irreducible orders them.  The exponents are in the ratio of the
    residues, so 1/x + 3000/(x - 1) asks for a w of degree 3001: None also
    when deg(w) = sum |e_i| deg q_i exceeds _LOG_DEGREE_FACTOR * deg(den),
    which is checked before any power is formed.
    """
    if f.is_zero or f.num.degree >= f.den.degree:
        return None
    _, factors = factor_irreducible(f.den)
    if any(mult != 1 for _, mult in factors):
        return None
    lambdas = []
    for q, _ in factors:
        res = _part_over(f.num, f.den, q)
        dq = q.derivative()
        lam = res.lc / dq.lc
        if res != dq.scale(lam):
            return None
        lambdas.append(lam)
    # write lambda_i = c * e_i with e_i coprime integers, e_1 > 0
    den_lcm = lcm(*[lam.denominator for lam in lambdas])
    ints = [int(lam * den_lcm) for lam in lambdas]
    g = gcd(*ints)
    if ints[0] < 0:
        g = -g
    exps = [v // g for v in ints]
    if sum(abs(e) * q.degree for (q, _), e in zip(factors, exps)) > (
            _LOG_DEGREE_FACTOR * f.den.degree):
        return None
    c = QQ(g, den_lcm)
    wn, wd = _ONE, _ONE
    for (q, _), e in zip(factors, exps):
        if e > 0:
            wn = wn * q**e
        else:
            wd = wd * q ** (-e)
    return c, RatFun._raw(wn, wd)


# ---- first order rational solutions ------------------------------------------


def _pole_order(den_factors, q):
    for fac, mult in den_factors:
        if fac == q:
            return mult
    return 0


def _shift(p: Poly, k: int) -> Poly:
    """p * x^k; prepending zeros keeps the pair canonical."""
    return Poly._new((0,) * k + p._num, p._den) if p._num else p


def _equation_rows(gamma: RatFun, beta: RatFun, w: Poly, udeg: int):
    """The rows of g' = gamma*g + beta for g = u/w, one per coefficient of u.

    Multiplied out, (u'w - u w') * Gd * Bd = Gn * u * w * Bd + Bn * Gd * w^2
    is linear in u.  The row of u_i = x^i is i*x^(i-1)*P - x^i*Q with
    P = w*Gd*Bd and Q = w'*Gd*Bd + Gn*w*Bd, so every row is a shift and a
    scaling of the same two polynomials.
    """
    gd_bd = gamma.den * beta.den
    p = w * gd_bd
    q = w.derivative() * gd_bd + gamma.num * w * beta.den
    rows = [-q]
    for i in range(1, udeg + 1):
        rows.append(_shift(p, i - 1)._scale(i, 1) - _shift(q, i))
    return rows


def solve_first_order_rational(gamma: RatFun, beta: RatFun):
    """A rational solution g of g' = gamma*g + beta, or None if none exists.

    Completeness: a denominator bound is assembled from the poles of gamma
    and beta (with the usual residue refinement at simple poles of gamma),
    a degree bound from the behaviour at infinity, and the remaining linear
    system over Q is solved exactly on one `matrices.SpanQQ`: the
    coefficient vectors of the unknowns go in in order, those that enlarge
    it are the pivot unknowns and every other unknown is 0; the pivot
    unknowns are the coordinates of the rhs over them, and an rhs outside
    the span means no solution.  Any returned solution is verified by
    substitution.  The denominators go to poly.factor_irreducible, so a
    caller that solves many equations whose denominators share their poles
    enters one poly.shared_factors() block around them.
    """
    if gamma.is_zero:
        split = hermite_split(beta)
        if split.l.is_zero:
            return split.r
        return None
    _, gden_factors = factor_irreducible(gamma.den)
    _, bden_factors = factor_irreducible(beta.den)
    qs = {q: m for q, m in bden_factors}
    for q, m in gden_factors:
        qs.setdefault(q, 0)
    den_bound = _ONE
    for q in sorted(qs, key=lambda p: (p.degree, p.coeffs)):
        a = _pole_order(gden_factors, q)
        b = qs[q]
        if a >= 2:
            k = max(b - a, 0)
        else:
            k = max(b - 1, 0)
            if a == 1:
                # residue refinement: gamma ~ rho*q'/q locally allows order -rho
                loc = _part_over(gamma.num, gamma.den, q)
                _, sq, _ = poly_xgcd(q.derivative() % q, q)
                rho = (loc * sq) % q
                if rho.is_constant and not rho.is_zero:
                    val = -rho.lc
                    if is_integer(val) and int(val) > k:
                        k = int(val)
        if k:
            den_bound = den_bound * q**k
    # degree bound at infinity for u with g = u/den_bound
    def inf_deg(h: RatFun):
        if h.is_zero:
            return None
        return (h.num.degree if h.num.degree is not None else 0) - h.den.degree

    e = inf_deg(gamma)
    fdeg = inf_deg(beta)
    candidates = [0]
    if fdeg is not None:
        if e is not None and e >= 0:
            candidates.append(fdeg - e)
        else:
            candidates.append(fdeg + 1)
    if e == -1:
        c = gamma.num.lc / gamma.den.lc
        if is_integer(c) and int(c) > 0:
            candidates.append(int(c))
    delta = max(candidates)
    w = den_bound
    udeg = delta + (w.degree or 0)
    lhs_rows = _equation_rows(gamma, beta, w, udeg)
    rhs_const = beta.num * gamma.den * w * w
    # solve sum u_i * lhs_rows[i] = rhs_const coefficientwise
    from .matrices import SpanQQ  # imported here: matrices imports this module

    span = SpanQQ(max(p.degree or 0 for p in lhs_rows + [rhs_const]) + 1)
    pivots = [i for i, p in enumerate(lhs_rows) if span.add(p)]
    coords = span.coords_in_added(rhs_const)
    if coords is None:
        return None  # rhs_const is outside the span of the rows: inconsistent
    sol = [QQ0] * (udeg + 1)  # free unknowns stay 0
    for i, c in zip(pivots, coords):
        sol[i] = c
    u = Poly(sol)
    g = RatFun(u, w)
    if g.derivative() != gamma * g + beta:
        return None
    return g
