"""Gauge transformations of linear systems and symmetric powers.

A change of frame z = P(x) w turns the system z' = A(x) z into w' = P[A] w
with  P[A] = P^(-1) (A P - P').  Symmetric powers appear because a frame
change on first variations induces one on every block of monomials: the
group action Sym^m(P) by substitution, and its infinitesimal counterpart
sym^m(A) by derivation.  That derivation on monomials is written once, in
monomial_derivation, and varequations builds the variational systems with
it too.  carries replays a gauge without reading its inverse; BlockGauge
keeps a total gauge in lower block-triangular form, which it cuts and joins
with RatMat.cut and RatMat.join.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import check_deadline
from .rationals import QQ
from .ratfun import RatFun
from .matrices import ConstMat, RatMat

_RF_ONE = RatFun.const(1)
_RF_MINUS_ONE = RatFun.const(-1)


class SymIndex:
    """Monomials of a fixed degree in n variables, in a fixed order.

    Each monomial is an exponent vector alpha with |alpha| = degree; the
    order is combinations-with-replacement order of the variable indices,
    so for n = 2, degree = 2: (2,0), (1,1), (0,2).
    """

    def __init__(self, n_vars: int, degree: int):
        self.n_vars = n_vars
        self.degree = degree
        exps = []
        for combo in combinations_with_replacement(range(n_vars), degree):
            alpha = [0] * n_vars
            for i in combo:
                alpha[i] += 1
            exps.append(tuple(alpha))
        self.exponents = exps
        self.position = {alpha: k for k, alpha in enumerate(exps)}

    def __len__(self):
        return len(self.exponents)

    def index(self, alpha) -> int:
        return self.position[tuple(alpha)]


def monomial_derivation(position, terms) -> RatMat:
    """The derivation w_i' = sum_beta c w^beta on monomials of w.

    position numbers the monomials, rows and columns alike, in its order;
    terms[i] holds the terms {beta: c} of w_i'.  As (w^alpha)' = sum_i
    alpha_i w^(alpha - e_i) w_i', row alpha gets alpha_i c at column
    alpha - e_i + beta for each term c w^beta of w_i'; a column that
    position lacks is dropped.
    """
    size = len(position)
    out = RatMat.zeros(size, size)
    for alpha, r in position.items():
        orow = out.data[r]
        for i, ai in enumerate(alpha):
            if not ai:
                continue
            lowered = alpha[:i] + (ai - 1,) + alpha[i + 1:]
            k = QQ(ai)
            for beta, c in terms[i].items():
                col = position.get(tuple([x + y for x, y in zip(lowered, beta)]))
                if col is not None:
                    orow[col] = orow[col] + c.scale(k)
    return out


def _form_mul(acc, form, n_vars):
    """Multiply a monomial->coefficient dict by a linear form dict."""
    out = {}
    for ea, ca in acc.items():
        for j, cj in form.items():
            eb = list(ea)
            eb[j] += 1
            eb = tuple(eb)
            prev = out.get(eb)
            term = ca * cj
            out[eb] = term if prev is None else prev + term
    return out


def sym_power_group(p: RatMat, m: int) -> RatMat:
    """Sym^m of an invertible frame change (substitution action).

    Row alpha holds the expansion of prod_i (P w)_i^(alpha_i) in the degree-m
    monomials of w.  Functorial: Sym^m(PQ) = Sym^m(P) Sym^m(Q), so the
    inverse of Sym^m(P) is Sym^m of the inverse.  The time budget is
    checked before each row.
    """
    if p.rows != p.cols:
        raise ValueError("frame change must be square")
    n = p.rows
    idx = SymIndex(n, m)
    size = len(idx)
    out = RatMat.zeros(size, size)
    forms = []
    for i in range(n):
        forms.append({j: p.data[i][j] for j in range(n) if not p.data[i][j].is_zero})
    zero_exp = (0,) * n
    for r, alpha in enumerate(idx.exponents):
        check_deadline()
        acc = {zero_exp: _RF_ONE}
        for i, ai in enumerate(alpha):
            for _ in range(ai):
                acc = _form_mul(acc, forms[i], n)
        orow = out.data[r]
        for beta, c in acc.items():
            orow[idx.index(beta)] = c
    return out


def sym_power_algebra(a: RatMat, m: int) -> RatMat:
    """sym^m of a system matrix: the derivation w' = a w on degree-m monomials."""
    if a.rows != a.cols:
        raise ValueError("system matrix must be square")
    units = SymIndex(a.rows, 1).exponents
    terms = [{e: f for e, f in zip(units, row) if not f.is_zero} for row in a.data]
    return monomial_derivation(SymIndex(a.rows, m).position, terms)


# ---- gauge transformations -----------------------------------------------------


class GaugeMatrix:
    """Invertible frame change P with its inverse carried along.

    The constructor does not check the pair; from_p builds the inverse from
    p alone.  p_inv may be given as a function of no arguments, called when
    the inverse is first read.  reduce_block_systems checks the first-order
    pair once; later total gauges are invertible by construction (see
    BlockGauge).
    """

    __slots__ = ("p", "_p_inv")

    def __init__(self, p: RatMat, p_inv):
        self.p = p
        self._p_inv = p_inv

    @property
    def p_inv(self) -> RatMat:
        if callable(self._p_inv):
            self._p_inv = self._p_inv()
        return self._p_inv

    @staticmethod
    def from_p(p: RatMat) -> "GaugeMatrix":
        return GaugeMatrix(p, p.inverse())


def apply_gauge(a: RatMat, p: GaugeMatrix) -> RatMat:
    """P[a] = P^(-1) (a P - P'), correct only if p.p_inv inverts p.p.

    In the pipeline only the order-1 assembly calls it; the replays use
    carries and BlockGauge.carries.  The time budget is checked before each
    of the two products.
    """
    check_deadline()
    inner = a * p.p - p.p.derivative()
    check_deadline()
    return p.p_inv * inner


def carries(a: RatMat, p, f: RatMat) -> bool:
    """True when a P - P' == P f: for an invertible P, exactly P[a] == f.

    p None is the identity, which carries a to a alone.  No inverse is
    read; the zero matrix carries every a to every f.  The time budget is
    checked before each side.
    """
    if p is None:
        return a == f
    check_deadline()
    moved = a * p - p.derivative()
    check_deadline()
    return moved == p * f


def exp_sub_nilpotent(g: RatFun, b: ConstMat) -> GaugeMatrix:
    """The gauge Id + g(x) b for a square-zero constant matrix b.

    With b*b = 0 the exponential series stops after the linear term and the
    inverse is Id - g b.  Raises ValueError if b is not square-zero.
    """
    if not (b * b).is_zero:
        raise ValueError("matrix is not square-zero")
    n = b.rows
    p = RatMat.identity(n)
    p_inv = RatMat.identity(n)
    for i, row in b.num.items():
        for j, v in row.items():
            c = QQ(v, b.den)
            p.data[i][j] = p.data[i][j] + g.scale(c)
            p_inv.data[i][j] = p_inv.data[i][j] - g.scale(c)
    return GaugeMatrix(p, p_inv)


# ---- the total gauge in block form ------------------------------------------------


class BlockGauge:
    """A gauge in lower block-triangular form, P = [[T, 0], [L, R]].

    P = diag(T, R) (Id + S), where S is zero outside its lower-left block
    low, so L = R low.  top and rest are the gauges T and R of the diagonal
    blocks, of sizes d and n - d; None stands for an identity block.  P is
    invertible when T and R are, and P^-1 = (Id - S) diag(T^-1, R^-1) =
    [[T^-1, 0], [-low T^-1, R^-1]].

    The reduction builds three of them: the assembly gauge Q = diag(T, R),
    with low None; the sweep's Id + S, with top and rest None; and their
    composition Q (Id + S) (then), the total gauge of an order.  Above
    order 1, T = Sym^m(p1) and R is the total gauge of order m - 1, so
    nothing of size n is multiplied inside the pipeline.  p and p_inv are
    multiplied out when first read, and kept; L is formed once.  known,
    when given, is a pair (A_r, F_r) that R is already known to carry one
    to the other, and carries does not replay that block.  With d == n the
    gauge is top alone: the pipeline wraps the first-order gauge so, as it
    need not respect the blocks of its system.
    """

    __slots__ = ("d", "n", "top", "rest", "low", "known", "_l", "_p", "_p_inv")

    def __init__(self, d: int, n: int, top=None, rest=None, low=None, known=None):
        self.d, self.n = d, n
        self.top, self.rest, self.low, self.known = top, rest, low, known
        self._l = self._p = self._p_inv = None

    def then(self, sweep: "BlockGauge") -> "BlockGauge":
        """This block-diagonal gauge Q followed by sweep, a gauge Id + S with
        S in its lower-left block: Q (Id + S), which keeps S's block as low.
        Nothing is multiplied unless d == n and S is not zero: then top, a
        first-order gauge that need not respect the sweep's blocks, takes
        Id + S in as T (Id + S)."""
        if self.d < self.n or sweep.low is None:
            return BlockGauge(self.d, self.n, self.top, self.rest, sweep.low, self.known)
        t = self.top
        return BlockGauge(self.n, self.n, GaugeMatrix(t.p * sweep.p, lambda: sweep.p_inv * t.p_inv))

    @property
    def l(self):
        """The lower-left block R low of p, or None when low is None."""
        if self._l is None and self.low is not None:
            self._l = self.low if self.rest is None else self.rest.p * self.low
        return self._l

    @property
    def p(self) -> RatMat:
        if self._p is None:
            top = RatMat.identity(self.d) if self.top is None else self.top.p
            rest = RatMat.identity(self.n - self.d) if self.rest is None else self.rest.p
            self._p = RatMat.join(top, None, self.l, rest)
        return self._p

    @property
    def p_inv(self) -> RatMat:
        if self._p_inv is None:
            t_inv = RatMat.identity(self.d) if self.top is None else self.top.p_inv
            r_inv = RatMat.identity(self.n - self.d) if self.rest is None else self.rest.p_inv
            low = self.low
            if low is not None:
                low = (low if self.top is None else low * t_inv).scale(_RF_MINUS_ONE)
            self._p_inv = RatMat.join(t_inv, None, low, r_inv)
        return self._p_inv

    def carries(self, a: RatMat, f: RatMat) -> bool:
        """True when a P - P' == P f, checked block by block.

        For an invertible P that is exactly P[a] == f.  With a = [[a_t, 0],
        [c, a_r]] and f = [[f_t, 0], [f_c, f_r]], the blocks read
        a_t T - T' == T f_t, c T + a_r L - L' == L f_t + R f_c and
        a_r R - R' == R f_r.  The last is not replayed when (a_r, f_r) is
        the known pair.  Nonzero top-right blocks of a or f are refused.  No
        product has an operand of size n, and the time budget is checked
        before each side of each block.
        """
        a_t, a_tr, c, a_r = a.cut(self.d)
        f_t, f_tr, f_c, f_r = f.cut(self.d)
        if not (a_tr.is_zero and f_tr.is_zero):
            return False
        t = None if self.top is None else self.top.p
        if not carries(a_t, t, f_t):
            return False
        if self.d == self.n:
            return True
        r = None if self.rest is None else self.rest.p
        if self.known != (a_r, f_r) and not carries(a_r, r, f_r):
            return False
        check_deadline()
        moved = c if t is None else c * t
        want = f_c if r is None else r * f_c
        l = self.l
        if l is not None:
            moved = moved + a_r * l - l.derivative()
            check_deadline()
            want = want + l * f_t
        return moved == want
