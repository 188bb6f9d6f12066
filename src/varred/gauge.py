"""Gauge transformations of linear systems and symmetric powers.

A change of frame z = P(x) w turns the system z' = A(x) z into w' = P[A] w
with  P[A] = P^(-1) (A P - P').  Symmetric powers appear because a frame
change on first variations induces one on every block of monomials: the
group action Sym^m(P) by substitution, and its infinitesimal counterpart
sym^m(A) by derivation.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import PreconditionFailure, check_deadline
from .rationals import QQ
from .ratfun import RatFun
from .matrices import ConstMat, RatMat

_RF_ZERO = RatFun.const(0)
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
    """sym^m of a system matrix (derivation action on degree-m monomials).

    (w^alpha)' = sum_i alpha_i w^(alpha - e_i) w_i' picks up the entry
    alpha_i * a_ij at column alpha - e_i + e_j.
    """
    if a.rows != a.cols:
        raise ValueError("system matrix must be square")
    n = a.rows
    idx = SymIndex(n, m)
    size = len(idx)
    out = RatMat.zeros(size, size)
    for r, alpha in enumerate(idx.exponents):
        orow = out.data[r]
        for i in range(n):
            ai = alpha[i]
            if not ai:
                continue
            arow = a.data[i]
            for j in range(n):
                if arow[j].is_zero:
                    continue
                beta = list(alpha)
                beta[i] -= 1
                beta[j] += 1
                c = idx.index(beta)
                orow[c] = orow[c] + arow[j].scale(QQ(ai))
    return out


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


def carries(a: RatMat, p: RatMat, f: RatMat) -> bool:
    """True when a P - P' == P f: for an invertible P, exactly P[a] == f.

    No inverse is read; the zero matrix carries every a to every f.  The
    time budget is checked before each side.
    """
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


def assemble_block_diag(blocks) -> RatMat:
    """Block-diagonal rational matrix from square blocks."""
    total = sum(b.rows for b in blocks)
    out = RatMat.zeros(total, total)
    pos = 0
    for b in blocks:
        out.set_block(pos, pos, b)
        pos += b.rows
    return out


# ---- the total gauge in block form ------------------------------------------------


def _lower_triangular(d, n, top, low, rest) -> RatMat:
    """[[top, 0], [low, rest]] at size n; None is an identity or zero block."""
    out = RatMat.identity(n)
    for r0, c0, block in ((0, 0, top), (d, 0, low), (d, d, rest)):
        if block is not None:
            out.set_block(r0, c0, block)
    return out


def _carries_block(a: RatMat, p, f: RatMat) -> bool:
    """carries(a, p, f), where p None is the identity."""
    return a == f if p is None else carries(a, p, f)


class BlockGauge:
    """A gauge in lower block-triangular form, P = [[T, 0], [L, R]].

    P = diag(T, R) (Id + S), where S is zero outside its lower-left block
    low, so L = R low.  top and rest are the gauges T and R of the diagonal
    blocks, of sizes d and n - d; None stands for an identity block.  P is
    invertible when T and R are, and P^-1 = (Id - S) diag(T^-1, R^-1) =
    [[T^-1, 0], [-low T^-1, R^-1]].

    The total gauge of an order m > 1 keeps this form, with T = Sym^m(p1)
    and R the total gauge of order m - 1, so nothing of size n is
    multiplied inside the pipeline.  p and p_inv are multiplied out when
    first read, and kept; L is formed once.  known, when given, is a pair
    (A_r, F_r) that R is already known to carry one to the other, and
    carries does not replay that block.  With d == n the gauge is top
    alone: the pipeline wraps the first-order gauge so, as it need not
    respect the blocks of its system.
    """

    __slots__ = ("d", "n", "top", "rest", "low", "known", "_l", "_p", "_p_inv")

    def __init__(self, d: int, n: int, top=None, rest=None, low=None, known=None):
        self.d, self.n = d, n
        self.top, self.rest, self.low, self.known = top, rest, low, known
        self._l = self._p = self._p_inv = None

    @staticmethod
    def split(g, d: int) -> "BlockGauge":
        """A caller's block-diagonal gauge g, checked, in block form.

        PreconditionFailure unless g.p and g.p_inv are square, zero outside
        their diagonal blocks of sizes d and n - d, and p_inv p == Id on
        each block.
        """
        n = g.p.rows
        for m in (g.p, g.p_inv):
            if (m.rows, m.cols) != (n, n) or any(
                    not m.data[i][j].is_zero for i in range(n) for j in range(n)
                    if (i < d) != (j < d)):
                raise PreconditionFailure(
                    "assembly gauge is not block-diagonal with blocks %d and %d" % (d, n - d))
        blocks = []
        for r0, r1 in ((0, d), (d, n)):
            p, p_inv = g.p.submatrix(r0, r1, r0, r1), g.p_inv.submatrix(r0, r1, r0, r1)
            if r1 > r0 and p_inv * p != RatMat.identity(r1 - r0):
                raise PreconditionFailure(
                    "assembly gauge: p_inv * p is not the identity on its diagonal "
                    "block of rows %d to %d" % (r0, r1 - 1))
            blocks.append(GaugeMatrix(p, p_inv) if r1 > r0 else None)
        return BlockGauge(d, n, *blocks)

    def then(self, s: RatMat) -> "BlockGauge":
        """This block-diagonal gauge followed by Id + s, for s zero outside
        the lower-left block of the system.  Nothing is multiplied unless
        d == n: then top, a first-order gauge, takes s in as T + T s."""
        if self.d < self.n:
            low = s.submatrix(self.d, self.n, 0, self.d)
            return BlockGauge(self.d, self.n, self.top, self.rest, low, self.known)
        t = self.top
        return BlockGauge(self.n, self.n, GaugeMatrix(t.p + t.p * s, lambda: t.p_inv - s * t.p_inv))

    @property
    def l(self):
        """The lower-left block R low of p, or None when low is None."""
        if self._l is None and self.low is not None:
            self._l = self.low if self.rest is None else self.rest.p * self.low
        return self._l

    @property
    def p(self) -> RatMat:
        if self._p is None:
            self._p = _lower_triangular(
                self.d, self.n, None if self.top is None else self.top.p, self.l,
                None if self.rest is None else self.rest.p)
        return self._p

    @property
    def p_inv(self) -> RatMat:
        if self._p_inv is None:
            t_inv = None if self.top is None else self.top.p_inv
            low = self.low
            if low is not None:
                low = (low if t_inv is None else low * t_inv).scale(_RF_MINUS_ONE)
            self._p_inv = _lower_triangular(
                self.d, self.n, t_inv, low, None if self.rest is None else self.rest.p_inv)
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
        d, n = self.d, self.n
        if any(not e.is_zero for m in (a, f) for row in m.data[:d] for e in row[d:]):
            return False
        t = None if self.top is None else self.top.p
        f_t = f.submatrix(0, d, 0, d)
        if not _carries_block(a.submatrix(0, d, 0, d), t, f_t):
            return False
        if d == n:
            return True
        a_r, f_r = a.submatrix(d, n, d, n), f.submatrix(d, n, d, n)
        r = None if self.rest is None else self.rest.p
        known = self.known
        if not (known is not None and known[0] == a_r and known[1] == f_r):
            if not _carries_block(a_r, r, f_r):
                return False
        check_deadline()
        c, f_c = a.submatrix(d, n, 0, d), f.submatrix(d, n, 0, d)
        moved = c if t is None else c * t
        want = f_c if r is None else r * f_c
        l = self.l
        if l is not None:
            moved = moved + a_r * l - l.derivative()
            check_deadline()
            want = want + l * f_t
        return moved == want
