"""Decompositions of rational matrices over constant Lie algebras.

A rational matrix A(x) is written as a finite sum  A = sum_k a_k(x) * M_k
with Q-linearly independent coefficient functions a_k and constant matrices
M_k.  The Lie algebra generated by the M_k bounds what gauge transformations
can remove from A, so everything downstream starts from this decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import QQ, QQ0, QQ1
from .poly import Poly, poly_lincomb
from .ratfun import RatFun, common_denominator
from .matrices import ConstMat, RatMat, SpanQQ, comm, lincomb
from .errors import PreconditionFailure, check_deadline


class WeiNormanDecomp:
    """A(x) = sum of funcs[k](x) * mats[k] with independent coefficient functions."""

    def __init__(self, funcs, mats, rows, cols):
        self.funcs = funcs
        self.mats = mats
        self.rows = rows
        self.cols = cols

    @property
    def dim(self) -> int:
        return len(self.funcs)

    def functions(self):
        return list(self.funcs)

    def matrices(self):
        return list(self.mats)

    def recombine(self) -> RatMat:
        return rat_lincomb(self.funcs, self.mats, self.rows, self.cols)


def rat_lincomb(funcs, mats, rows, cols) -> RatMat:
    """The rational matrix sum funcs[k] * mats[k], over nonzero terms and entries.

    An entry with one term is that function scaled.  An entry with more is
    summed over the common denominator L of the functions, as
    (sum v_k / den_k * num_k) / L with v_k / den_k the int entry of mats[k]
    over its denominator and num_k the numerator of funcs[k] over L: one
    integer dot product of the numerators (poly_lincomb), normalized once.
    """
    terms = [(f, m) for f, m in zip(funcs, mats) if not f.is_zero]
    by_entry = {}
    for k, (_, m) in enumerate(terms):
        for i, row in m.num.items():
            for j, v in row.items():
                by_entry.setdefault((i, j), []).append((k, v))
    out = RatMat.zeros(rows, cols)
    if not by_entry:
        return out
    den, nums = common_denominator([f for f, _ in terms])
    for (i, j), parts in by_entry.items():
        if len(parts) == 1:
            k, v = parts[0]
            f, m = terms[k]
            out.data[i][j] = f.scale(QQ(v, m.den))
        else:
            num = poly_lincomb([(v, terms[k][1].den, nums[k]) for k, v in parts])
            if num:
                out.data[i][j] = RatFun(num, den)
    return out


def wei_norman(a: RatMat) -> WeiNormanDecomp:
    """Decompose a rational matrix as sum a_k(x) * M_k, constant M_k.

    The construction is deterministic: all nonzero entries are brought over
    their common denominator (the monic lcm), and their numerators go, as
    coefficient vectors, in row-major order into a SpanQQ.  Each vector that
    enlarges the span leaves a nonzero residual, which, divided back by the
    common denominator, becomes a coefficient function; the terms come in
    order of acceptance, and the multipliers of an entry's vector over the
    residuals, which SpanQQ.add_coords hands back from the one reduction of
    that vector, are its entries in the M_k.  The rows have distinct pivots, so
    residuals and multipliers do not depend on the elimination order.  The
    residuals are kept unnormalized, which makes the resulting functions
    independent of the denominator representative.  The time budget is
    checked between entries.
    """
    entries = []
    for i in range(a.rows):
        for j in range(a.cols):
            f = a.data[i][j]
            if not f.is_zero:
                entries.append((i, j, f))
    if not entries:
        return WeiNormanDecomp([], [], a.rows, a.cols)
    den, nums = common_denominator([f for _, _, f in entries])
    span = SpanQQ(max(p.degree for p in nums) + 1)
    entries_of = []  # per term: {i: {j: coefficient}}
    for (i, j, _), v in zip(entries, nums):
        check_deadline()
        grew, coords = span.add_coords(v)
        if grew:
            entries_of.append({})
        for k, f in enumerate(coords):
            if f:
                entries_of[k].setdefault(i, {})[j] = f
    funcs = [None] * span.dim
    for _, ints, scale, k in span.rows:
        funcs[k] = RatFun(Poly([ints.get(i, 0) for i in range(max(ints) + 1)]).scale(scale), den)
    mats = [ConstMat.from_rows(a.rows, a.cols, e) for e in entries_of]
    return WeiNormanDecomp(funcs, mats, a.rows, a.cols)


# ---- Lie closure ---------------------------------------------------------------


# a pair of LieBasis.records not taken yet
_MISSING = object()


@dataclass
class LieBasis:
    """Basis of a matrix Lie algebra over Q.

    mats[0:n_generators] are the independent generators in input order; the
    rest are brackets in the order they were discovered, so mats spans the
    algebra the generators generate.  span is the SpanQQ of mats, so the
    coordinates of a bracket along mats are read off it.  records holds
    the brackets taken so far: (i, j), i < j, maps to None when
    [mats[i], mats[j]] is zero, else to its coordinates along mats or to
    the reduction span kept of it, which the first read turns into them.
    lie_closure records every bracket it takes, each element with every
    generator before it, so the generators' adjoints and every pair of
    generators are read, not taken; a query takes and records the pairs
    that are missing, each once.
    """

    mats: list
    n_generators: int
    span: SpanQQ = field(compare=False, repr=False)
    records: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.mats)

    def _record(self, i, j):
        """The record of the pair i < j, the bracket taken if it is missing;
        ValueError if that bracket lies outside the span."""
        rec = self.records.get((i, j), _MISSING)
        if rec is _MISSING:
            check_deadline()
            b = comm(self.mats[i], self.mats[j])
            rec = None
            if not b.is_zero:
                rec = self.span.coords_in_added(b)
                if rec is None:
                    raise ValueError("bracket outside the span of the basis")
            self.records[(i, j)] = rec
        return rec

    def _bracket(self, i, k):
        """The coordinates of [mats[i], mats[k]] along mats, i != k."""
        a, b = (i, k) if i < k else (k, i)
        rec = self._record(a, b)
        if rec is None:
            return [QQ0] * self.dim
        if type(rec) is tuple:
            rec = self.records[(a, b)] = self.span.coords_of(rec)
        return rec if i < k else [-c for c in rec]

    def is_abelian(self) -> bool:
        """The generators commute pairwise, so they span the algebra."""
        return self.first_noncommuting_pair() is None

    def commuting(self, indices) -> bool:
        """True when the mats[k], k in indices (ascending), commute pairwise;
        a pair missing from the records is taken and recorded, once."""
        return all(self._record(a, b) is None for j, b in enumerate(indices) for a in indices[:j])

    def adjoint(self, i):
        """(others, ad): the matrix of ad(mats[i]) on the other basis elements.

        others lists the other indices in order, and column c of ad holds
        the coordinates of [mats[i], mats[others[c]]] along them, read off
        the records, the sign flipped for a pair recorded as (others[c], i).
        None when some bracket has a component along mats[i].  The time
        budget is checked between brackets.
        """
        others = [k for k in range(self.dim) if k != i]
        cols = []
        for k in others:
            check_deadline()
            cols.append(self._bracket(i, k))
            if cols[-1][i]:
                return None
        return others, ConstMat([[c[o] for c in cols] for o in others])

    def first_noncommuting_pair(self):
        """Smallest (i, j), i < j, with [mats[i], mats[j]] != 0, or None.

        Only pairs of generators are scanned, in that order.  That gives the
        same pair as scanning every pair: if (a, b) is the smallest pair of
        generators that do not commute, each generator i < a commutes with
        every generator, so with every bracket of them (Jacobi), and is
        central; and every j < b is a generator that commutes with mats[a].
        When the generators commute pairwise, they span an abelian algebra.
        """
        g = self.n_generators
        return next(((i, j) for i in range(g) for j in range(i + 1, g)
                     if self._record(i, j) is not None), None)


def lie_closure(generators) -> LieBasis:
    """Smallest Lie algebra over Q containing the given constant matrices.

    The algebra generated by S is spanned by the right-normed brackets
    [s1, [s2, ..., sk]] with every si in S (Reutenauer, Free Lie Algebras,
    1993, ch. 0), so a span holding S and closed under each ad(s) is all of
    it.  Basis element j is bracketed, in order, with the generators
    i < min(j, n_generators) only, and a bracket that enlarges the span is
    appended, so the basis is reproducible.  Each bracket is recorded in
    the basis's records: a zero one as None, without a reduction, and any
    other as the reduction SpanQQ.add_kept made of it.  Terminates inside
    gl_n.  The time budget is checked before each element's brackets.
    """
    gens = list(generators)
    if not gens:
        return LieBasis([], 0, SpanQQ(0))
    span = SpanQQ(gens[0].rows * gens[0].cols)
    basis = [g for g in gens if span.add(g)]
    n_gen = len(basis)
    records = {}
    j = 1
    while j < len(basis):
        check_deadline()
        for i in range(min(j, n_gen)):
            b = comm(basis[i], basis[j])
            if b.is_zero:
                records[(i, j)] = None
                continue
            grew, records[(i, j)] = span.add_kept(b)
            if grew:
                basis.append(b)
        j += 1
    return LieBasis(basis, n_gen, span, records)


# ---- block structure ------------------------------------------------------------


def diag_projection(m: ConstMat, d1: int) -> ConstMat:
    """The block-diagonal part of m along the (d1, n-d1) partition."""
    num = {i: {j: v for j, v in row.items() if (j < d1) == (i < d1)} for i, row in m.num.items()}
    return ConstMat.from_ints(m.rows, m.cols, num, m.den)


def check_block_lower(mats, d1: int) -> None:
    """PreconditionFailure naming the first nonzero upper-right entry, if any."""
    for m in mats:
        for i in range(d1):
            upper = [j for j in m.num.get(i, ()) if j >= d1]
            if upper:
                raise PreconditionFailure(
                    f"matrix is not block lower triangular at the ({d1},{m.rows - d1}) "
                    f"split: entry ({i + 1},{min(upper) + 1}) is nonzero"
                )


def split_diag_sub(mats, d1: int):
    """Split block lower-triangular matrices along the (d1, n-d1) partition.

    Returns (diag_basis, sub_basis, lead): a basis of the projections of the
    input span onto the block-diagonal part, a basis of its intersection
    with the strictly sub-diagonal part, and the first lift, the first input
    with a nonzero diagonal part (or None); all are full-size matrices.  The
    input matrices must be independent and block lower triangular; a
    nonzero entry in the upper-right block raises PreconditionFailure.
    """
    if not mats:
        return [], [], None
    check_block_lower(mats, d1)
    n = mats[0].rows
    span = SpanQQ(n * n)
    diag_basis, lifts, sub_basis = [], [], []
    for m in mats:
        p = diag_projection(m, d1)
        grew, c = span.add_coords(p)
        # m minus the lifts of the rows that p's coordinates take: lifts[k]
        # is the combination of inputs whose projection is row k, so this
        # has p's residual, the new row, as its projection, or none at all
        rest = lincomb([QQ1] + [-ck for ck in c[:len(lifts)]], [m] + lifts)
        if grew:
            diag_basis.append(p)
            lifts.append(rest)
        else:
            sub_basis.append(rest)
    return diag_basis, sub_basis, lifts[0] if lifts else None


class DualFrame:
    """Coordinates of rational matrices over a frame in a Lie algebra.

    The frame is lie.mats[lead], if lead is not None, then lincomb(v, others)
    for each vector v, with others the other elements of lie in order.  A
    matrix is read through its Wei-Norman decomposition a = sum f_j M_j,
    which the caller already holds.  The f_j are Q-linearly independent, so
    a lies in the Q(x)-span of the frame exactly when every M_j lies in its
    Q-span; the coordinates are then sum f_j * kappa(M_j), with kappa(M_j)
    read off lie.span and its part along others solved over the vectors.
    """

    def __init__(self, lie: LieBasis, lead, vectors):
        self.lie = lie
        self.head = [] if lead is None else [lead]
        self.others = [k for k in range(lie.dim) if k != lead]
        self.span = SpanQQ(len(self.others))
        if not all(self.span.add(v) for v in vectors):
            raise ValueError("basis matrices are linearly dependent")
        other_mats = [lie.mats[k] for k in self.others]
        self.basis = [lie.mats[k] for k in self.head] + [lincomb(v, other_mats) for v in vectors]
        if not self.basis:
            raise ValueError("empty basis")

    def coords(self, wn: WeiNormanDecomp):
        """Coefficients c with a = sum c_k * basis[k], where wn = wei_norman(a);
        ValueError if a has another shape or lies outside the span."""
        b = self.basis[0]
        if (wn.rows, wn.cols) != (b.rows, b.cols):
            raise ValueError("shape mismatch")
        kappas = []
        for m in wn.matrices():
            kappa = self.lie.span.coords_in_added(m)
            x = None if kappa is None else self.span.coords_in_added(
                [kappa[k] for k in self.others])
            if x is None:
                raise ValueError("matrix is outside the span of the basis")
            kappas.append(ConstMat([[kappa[k] for k in self.head] + x]))
        return rat_lincomb(wn.functions(), kappas, 1, len(self.basis)).data[0]

    def combine(self, coeffs) -> RatMat:
        """The rational matrix sum coeffs[k] * basis[k]."""
        b = self.basis[0]
        return rat_lincomb(coeffs, self.basis, b.rows, b.cols)
