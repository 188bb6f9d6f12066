"""Gauge transformations of linear systems and symmetric powers.

A change of frame z = P(x) w turns the system z' = A(x) z into w' = P[A] w
with  P[A] = P^(-1) (A P - P').  Symmetric powers appear because a frame
change on first variations induces one on every block of monomials: the
group action Sym^m(P) by substitution, and its infinitesimal counterpart
sym^m(A) by derivation.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import check_deadline
from .rationals import QQ
from .ratfun import RatFun
from .matrices import ConstMat, RatMat

_RF_ZERO = RatFun.const(0)
_RF_ONE = RatFun.const(1)


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
    p alone.  reduce_block_systems checks the first-order pair once; later
    total gauges are invertible by construction (see reduce_subdiagonal).
    """

    __slots__ = ("p", "p_inv")

    def __init__(self, p: RatMat, p_inv: RatMat):
        self.p = p
        self.p_inv = p_inv

    @staticmethod
    def identity(n: int) -> "GaugeMatrix":
        eye = RatMat.identity(n)
        return GaugeMatrix(eye, eye)

    @staticmethod
    def from_p(p: RatMat) -> "GaugeMatrix":
        return GaugeMatrix(p, p.inverse())


def apply_gauge(a: RatMat, p: GaugeMatrix) -> RatMat:
    """P[a] = P^(-1) (a P - P'), correct only if p.p_inv inverts p.p.

    In the pipeline only the order-1 assembly calls it; the replays use
    carries.  The time budget is checked before each of the two products.
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


def block_diag_gauge(gauges) -> GaugeMatrix:
    """Block-diagonal gauge from per-block gauges (inverses assemble blockwise)."""
    p = assemble_block_diag([g.p for g in gauges])
    p_inv = assemble_block_diag([g.p_inv for g in gauges])
    return GaugeMatrix(p, p_inv)
