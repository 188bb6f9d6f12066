"""Exact matrices: constant (over Q) and rational-function entries.

A constant matrix (ConstMat) is stored sparse and fraction-free, as FLINT's
fmpq_mat keeps it: the rows that hold nonzeros, each as {column: int}, over
one positive int denominator, in a canonical form so that equality is
structural.  Its arithmetic (comm, lincomb, products) runs on those ints and
touches only stored entries, which matters a lot here -- the Lie closure
matrices hold a few dozen nonzeros in a thousand entries; entries reach
callers as QQ only through the read-only `data` view.  SpanQQ's Gauss
elimination, incremental, and nullspace's rref run on these ints, or a
Poly's, fraction-free; both keep the leftmost-nonzero pivot rule so every
result is deterministic.
Rational-function matrices (RatMat) are dense lists of RatFun, and products
skip zero entries, since the block systems and their gauges are sparse.  A
product normalizes once per nonzero output entry, not once per term: an
entry with one term is a RatFun product, and one with more is summed as
polynomials over the lcms of the denominators of its row and its column.
"""
from __future__ import annotations

from math import gcd as _igcd, lcm as _ilcm

from .rationals import QQ, QQ0, QQ1
from .poly import Poly, factor_irreducible
from .ratfun import RatFun, common_denominator
from .errors import UnsupportedRegime, check_deadline


class ConstMat:
    """A constant matrix over Q: int entries over one positive int denominator.

    num maps a row index to {column index: int} and the matrix is num/den,
    as FLINT's fmpq_mat keeps it.  The pair is canonical: no zero entry and
    no empty row is stored, and den is coprime to the gcd of the entries
    (zero is ({}, 1)), so equal matrices are equal structures.  rows and
    cols are the shape.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __new__(cls, data):
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged matrix")
        entries = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(data)}
        return ConstMat.from_rows(len(data), cols, entries)

    @staticmethod
    def from_rows(rows, cols, entries) -> "ConstMat":
        """The matrix with the rational entries {i: {j: value}}, others zero."""
        ints, den = _int_entries(
            ((i, j), QQ(v)) for i, row in entries.items() for j, v in row.items()
        )
        num = {}
        for (i, j), v in ints.items():
            num.setdefault(i, {})[j] = v
        return ConstMat.from_ints(rows, cols, num, den)

    @staticmethod
    def from_ints(rows, cols, num, den) -> "ConstMat":
        """The matrix num/den for {i: {j: int}} and a positive int den.

        Drops zero entries and empty rows and divides out the gcd, which
        makes the pair canonical.
        """
        out = {}
        g = den
        for i, row in num.items():
            row = {j: v for j, v in row.items() if v}
            if row:
                out[i] = row
                if g != 1:
                    g = _igcd(g, *row.values())
        if not out:
            den = 1
        elif g != 1:
            den //= g
            out = {i: {j: v // g for j, v in row.items()} for i, row in out.items()}
        return ConstMat._new(rows, cols, out, den)

    @staticmethod
    def _new(rows, cols, num, den) -> "ConstMat":
        """Internal: (num, den) already canonical."""
        m = object.__new__(ConstMat)
        m.rows, m.cols, m.num, m.den = rows, cols, num, den
        return m

    @staticmethod
    def zeros(rows, cols=None) -> "ConstMat":
        return ConstMat._new(rows, rows if cols is None else cols, {}, 1)

    @staticmethod
    def identity(n) -> "ConstMat":
        return ConstMat._new(n, n, {i: {i: 1} for i in range(n)}, 1)

    def __eq__(self, other):
        return (
            isinstance(other, ConstMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        return f"ConstMat({self.rows}x{self.cols})"

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def data(self):
        """The entries as QQ: a read-only tuple of row tuples, built on each read."""
        zero_row = (QQ0,) * self.cols
        out = []
        for i in range(self.rows):
            row = self.num.get(i)
            if row is None:
                out.append(zero_row)
                continue
            dense = [QQ0] * self.cols
            for j, v in row.items():
                dense[j] = QQ(v, self.den)
            out.append(tuple(dense))
        return tuple(out)

    def flatten(self):
        """The entries as one row-major list of QQ."""
        out = []
        for row in self.data:
            out.extend(row)
        return out

    def _plus(self, other, sign):
        """self + sign*other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        g = _igcd(self.den, other.den)
        ma, mb = other.den // g, sign * (self.den // g)
        out = {i: {j: ma * v for j, v in row.items()} for i, row in self.num.items()}
        for i, row in other.num.items():
            orow = out.setdefault(i, {})
            for j, v in row.items():
                orow[j] = orow.get(j, 0) + mb * v
        return ConstMat.from_ints(self.rows, self.cols, out, self.den // g * other.den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        num = {i: {j: -v for j, v in row.items()} for i, row in self.num.items()}
        return ConstMat._new(self.rows, self.cols, num, self.den)

    def scale(self, c) -> "ConstMat":
        c = QQ(c)
        p, q = c.numerator, c.denominator
        num = {i: {j: p * v for j, v in row.items()} for i, row in self.num.items()}
        return ConstMat.from_ints(self.rows, self.cols, num, q * self.den)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bn = other.num
        out = {}
        for i, arow in self.num.items():
            orow = out[i] = {}
            for k, aik in arow.items():
                brow = bn.get(k)
                if brow:
                    for j, bkj in brow.items():
                        orow[j] = orow.get(j, 0) + aik * bkj
        return ConstMat.from_ints(self.rows, other.cols, out, self.den * other.den)

    def apply(self, vec):
        """Matrix times coordinate vector (list of QQ)."""
        w, den = _int_entries(enumerate(vec))
        den *= self.den
        out = [QQ0] * self.rows
        for i, row in self.num.items():
            s = sum(v * w[j] for j, v in row.items() if j in w)
            if s:
                out[i] = QQ(s, den)
        return out


def _int_entries(items):
    """({index: int}, den) for the nonzero rationals of (index, value) pairs:
    value = int / den for each of them."""
    nz = [(i, v) for i, v in items if v]
    den = _ilcm(*[v.denominator for _, v in nz])
    return {i: v.numerator * (den // v.denominator) for i, v in nz}, den


def comm(a: ConstMat, b: ConstMat) -> ConstMat:
    """Commutator [a, b] = a*b - b*a, on the stored rows and entries only."""
    n = a.rows
    if not (a.cols == b.rows == n and b.cols == n):
        raise ValueError("shape mismatch")
    an, bn = a.num, b.num
    out = {}
    for i, arow in an.items():
        orow = out[i] = {}
        for k, aik in arow.items():
            brow = bn.get(k)
            if brow:
                for j, bkj in brow.items():
                    orow[j] = orow.get(j, 0) + aik * bkj
    for i, brow in bn.items():
        orow = out.setdefault(i, {})
        for k, bik in brow.items():
            arow = an.get(k)
            if arow:
                for j, akj in arow.items():
                    orow[j] = orow.get(j, 0) - bik * akj
    return ConstMat.from_ints(n, n, out, a.den * b.den)


def lincomb(coeffs, mats) -> ConstMat:
    """sum c_k * mats[k] over nonzero coefficients, on ints over one denominator."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    den = _ilcm(*[c.denominator * m.den for c, m in terms])
    out = {}
    for c, m in terms:
        f = c.numerator * (den // (c.denominator * m.den))
        for i, row in m.num.items():
            orow = out.setdefault(i, {})
            for j, v in row.items():
                orow[j] = orow.get(j, 0) + f * v
    return ConstMat.from_ints(mats[0].rows, mats[0].cols, out, den)


# ---- Gauss elimination over Q ---------------------------------------------


class SpanQQ:
    """Incremental echelon span of rational vectors, tracking coordinates.

    A vector is a ConstMat, read row-major, a Poly, read as its coefficient
    vector, or a dense sequence of rationals; each becomes ints over one
    denominator at _int_vector, and elimination is fraction-free, by integer
    cross-multiplication.  Row k is stored as (pivot, ints, scale, index),
    the rational vector scale * ints, with ints a primitive {index: int}
    whose pivot entry is positive, and index the row's place in the order
    of acceptance.  Rows are kept sorted by pivot (their smallest index) and
    unreduced against each other, so an added vector's residual after
    forward reduction becomes the new basis row as the same rational vector
    whatever the scaling -- callers rely on that (basis = reduced residuals
    in input order).  An add reduces its vector once; add_coords also hands
    back the coordinates that gives, and add_kept the reduction itself, for
    coords_of to read the coordinates over the accepted vectors later.  The
    combos, the rows over the accepted vectors, are built on the first
    coords_of call, from the kept reductions.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows = []  # (pivot, {index: int}, QQ scale, acceptance index) sorted by pivot
        self._kept = []  # per accepted vector: (t, sn, sd, g) of its reduction
        self._combos = []  # per accepted vector: ({accepted index: int}, int den)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """(w, t, sn, sd), vec = sn/sd * (w + sum t[k] * ints of row index k):
        each row whose pivot is still in w clears it, w becoming a*w - b*ints
        for the pivot ratio a/b in lowest terms, a > 0, after a budget check."""
        check_deadline()
        w, sn, sd = _int_vector(vec)
        t = {}
        for p, r, _, k in self.rows:
            c = w.get(p)
            if c is None:
                continue
            rp = r[p]
            g = _igcd(c, rp)
            a, b = rp // g, c // g
            if a != 1:
                w = {i: a * v for i, v in w.items()}
                for i in t:
                    t[i] *= a
                sd *= a
            _axpy(w, -b, r)
            t[k] = b
        return w, t, sn, sd

    def _insert(self, vec):
        """(t, sn, sd, g): the residual w, if any, becomes the row w / g."""
        w, t, sn, sd = self._reduce(vec)
        g = 0
        if w:
            pivot = min(w)
            g = _igcd(*w.values()) * (1 if w[pivot] > 0 else -1)
            row = (pivot, {i: v // g for i, v in w.items()}, QQ(sn * g, sd), len(self._kept))
            self.rows.insert(sum(p < pivot for p, *_ in self.rows), row)
            self._kept.append((t, sn, sd, g))
        return t, sn, sd, g

    def add(self, vec) -> bool:
        """Add vector; True if it enlarged the span (residual became a row)."""
        return self._insert(vec)[3] != 0

    def add_coords(self, vec):
        """(grew, coords): add vec; coords are its coordinates over the rows
        by acceptance index, and 1 on its own row, the last, if it grew."""
        t, sn, sd, g = self._insert(vec)
        out = [QQ0] * len(self._kept)
        for k, tk in t.items():
            _, snk, sdk, gk = self._kept[k]  # row k is snk * gk / sdk * its ints
            out[k] = QQ(sn * tk * sdk, sd * snk * gk)
        if g:
            out[-1] = QQ1
        return g != 0, out

    def add_kept(self, vec):
        """(grew, kept): add vec and keep its reduction, from which
        coords_of reads its coordinates at any later time."""
        t, sn, sd, g = self._insert(vec)
        return g != 0, (t, sn, sd, len(self._kept) - 1 if g else None)

    def coords_in_added(self, vec):
        """Coordinates of vec in the accepted original vectors, or None."""
        w, t, sn, sd = self._reduce(vec)
        return None if w else self.coords_of((t, sn, sd, None))

    def coords_of(self, kept):
        """Coordinates in the accepted original vectors, as many as there
        are now, of the vector kept reduces: kept is (t, sn, sd, own), the
        vector sn/sd * sum t[k] * (ints of row index k) -- or, when own is
        not None, the accepted vector own itself."""
        t, sn, sd, own = kept
        out = [QQ0] * len(self.rows)
        if own is not None:
            out[own] = QQ1
            return out
        for tk, snk, sdk, gk in self._kept[len(self._combos):]:
            # ints_k = (sdk/snk * (k-th vector) - sum tk[a] * ints_a) / gk
            acc, den = self._over_added(tk)
            combo = {i: -snk * v for i, v in acc.items()}
            combo[len(self._combos)] = sdk * den
            den *= snk * gk
            h = _igcd(den, *combo.values()) * (1 if den > 0 else -1)
            self._combos.append(({i: v // h for i, v in combo.items()}, den // h))
        acc, den = self._over_added(t)
        for i, v in acc.items():
            out[i] = QQ(sn * v, sd * den)
        return out

    def _over_added(self, t):
        """(acc, den) with sum t[k] * (ints of row index k) = acc / den over
        the accepted vectors."""
        den = _ilcm(*[self._combos[k][1] for k in t])
        acc = {}
        for k, tk in t.items():
            ck, ek = self._combos[k]
            _axpy(acc, tk * (den // ek), ck)
        return acc, den


def _int_vector(vec):
    """(w, sn, sd): vec = sn/sd * w with w a primitive {index: int}, sn > 0.

    vec is a ConstMat (row-major), a Poly (by degree) or a dense sequence.
    """
    if isinstance(vec, Poly):
        c, ints = vec.primitive_int()  # the zero Poly gives (0, []), so ({}, 1, 1)
        s = -1 if c < 0 else 1
        return {i: s * v for i, v in enumerate(ints) if v}, abs(c.numerator) or 1, c.denominator
    if isinstance(vec, ConstMat):
        cols = vec.cols
        w = {i * cols + j: v for i, row in vec.num.items() for j, v in row.items()}
        den = vec.den
    else:
        w, den = _int_entries(enumerate(vec))
    if not w:
        return w, 1, 1
    g = _igcd(*w.values())
    if g != 1:
        w = {i: v // g for i, v in w.items()}
    return w, g, den


def _axpy(v: dict, f, w: dict) -> None:
    """v += f*w on sparse vectors, dropping entries that cancel to zero."""
    for i, wi in w.items():
        x = v.get(i)
        if x is None:
            v[i] = f * wi
        else:
            x += f * wi
            if x:
                v[i] = x
            else:
                del v[i]


def nullspace(m: ConstMat):
    """Canonical nullspace basis of m, as dense lists of QQ: rref's basis.

    Each stored row of m is reduced by the pivot rows, and a residual left
    is cleared from them and joins them.  Free column j gives the vector
    with 1 in slot j and minus column j of the rref in the pivot slots.
    The time budget is checked before each row."""
    piv = {}  # pivot column -> its row of the rref, a primitive {column: int}
    for w in m.num.values():
        check_deadline()
        for p, r in piv.items():
            if p in w:
                w = _eliminate(w, r, p)
        if w:
            p, g = min(w), _igcd(*w.values())
            w = {i: v // g for i, v in w.items()}
            for q, r in piv.items():
                if p in r:
                    piv[q] = _eliminate(r, w, p)
            piv[p] = w
    basis = []
    for j in range(m.cols):
        if j not in piv:
            v = [QQ0] * m.cols
            v[j] = QQ1
            for p, r in piv.items():
                v[p] = QQ(-r.get(j, 0), r[p])
            basis.append(v)
    return basis


def _eliminate(w: dict, r: dict, p) -> dict:
    """The primitive a*w - b*r that has no entry at p."""
    g = _igcd(w[p], r[p])
    out = {i: r[p] // g * v for i, v in w.items()}
    _axpy(out, -(w[p] // g), r)
    g = _igcd(*out.values())
    return {i: v // g for i, v in out.items()} if g > 1 else out


# ---- rational-function matrices ---------------------------------------------

_RF_ZERO = RatFun.const(0)


class RatMat:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [
            [e if isinstance(e, RatFun) else RatFun.const(e) for e in row] for row in data
        ]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def _new(rows, cols, data) -> "RatMat":
        """Internal: rows x cols from RatFun rows kept as given, 0 x cols too."""
        m = object.__new__(RatMat)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @staticmethod
    def zeros(rows, cols=None) -> "RatMat":
        cols = rows if cols is None else cols
        return RatMat._new(rows, cols, [[_RF_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n) -> "RatMat":
        m = RatMat.zeros(n, n)
        one = RatFun.const(1)
        for i in range(n):
            m.data[i][i] = one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, RatMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"RatMat({self.rows}x{self.cols})"

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.data for e in row)

    def is_constant(self) -> bool:
        return all(e.is_constant or e.is_zero for row in self.data for e in row)

    def to_const(self) -> ConstMat:
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return ConstMat(
            [[e.num.lc if not e.is_zero else QQ0 for e in row] for row in self.data]
        )

    def _entrywise(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMat._new(self.rows, self.cols, [[op(a, b) for a, b in zip(ra, rb)]
                                                  for ra, rb in zip(self.data, other.data)])

    def __add__(self, other):
        return self._entrywise(other, RatFun.__add__)

    def __sub__(self, other):
        return self._entrywise(other, RatFun.__sub__)

    def scale(self, f: RatFun) -> "RatMat":
        return RatMat._new(self.rows, self.cols, [[a * f if not a.is_zero else _RF_ZERO
                                                   for a in row] for row in self.data])

    def __mul__(self, other):
        """The product, normalized once per nonzero output entry.

        An entry with one term a_ik * b_kj is that RatFun product.  An entry
        with more is summed as polynomials over d_i * e_j, where d_i is the
        lcm of the denominators of the a_ik in such entries of row i and e_j
        that of column j of other, and normalized once.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bcols = [[j for j, b in enumerate(brow) if b] for brow in other.data]
        columns = {}  # j -> (e_j, {k: b_kj over e_j}), built on first use
        out = [[_RF_ZERO] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            meet = {}  # j -> the k with a_ik * b_kj != 0
            for k, a in enumerate(arow):
                if a:
                    for j in bcols[k]:
                        meet.setdefault(j, []).append(k)
            orow = out[i]
            shared = sorted({k for ks in meet.values() if len(ks) > 1 for k in ks})
            if shared:
                d, anums = common_denominator([arow[k] for k in shared])
                anums = dict(zip(shared, anums))
            for j, ks in meet.items():
                if len(ks) == 1:
                    orow[j] = arow[ks[0]] * other.data[ks[0]][j]
                    continue
                if j not in columns:
                    col = [(k, brow[j]) for k, brow in enumerate(other.data) if brow[j]]
                    e, nums = common_denominator([b for _, b in col])
                    columns[j] = e, {k: num for (k, _), num in zip(col, nums)}
                e, bnums = columns[j]
                s = Poly()
                for k in ks:
                    s = s + anums[k] * bnums[k]
                if s:
                    orow[j] = RatFun(s, e if d.is_one else d if e.is_one else d * e)
        return RatMat._new(self.rows, other.cols, out)

    def derivative(self) -> "RatMat":
        return RatMat._new(self.rows, self.cols,
                           [[e.derivative() for e in row] for row in self.data])

    def submatrix(self, r0, r1, c0, c1) -> "RatMat":
        rows = self.data[r0:r1]
        return RatMat._new(len(rows), len(range(self.cols)[c0:c1]), [r[c0:c1] for r in rows])

    def set_block(self, r0, c0, block: "RatMat") -> None:
        for i in range(block.rows):
            for j in range(block.cols):
                self.data[r0 + i][c0 + j] = block.data[i][j]

    def cut(self, d: int):
        """The blocks (top, top_right, low, rest) of a square matrix split
        after row and column d; join puts them back together.  ValueError
        unless the matrix is square and 0 <= d <= rows."""
        n = self.rows
        if self.cols != n or not 0 <= d <= n:
            raise ValueError("cannot cut a %dx%d matrix at %d" % (n, self.cols, d))
        return (self.submatrix(0, d, 0, d), self.submatrix(0, d, d, n),
                self.submatrix(d, n, 0, d), self.submatrix(d, n, d, n))

    @staticmethod
    def join(top, top_right, low, rest) -> "RatMat":
        """[[top, top_right], [low, rest]] for square top and rest; a
        top_right or low of None is a zero block."""
        d = top.rows
        out = RatMat.zeros(d + rest.rows)
        for r0, c0, block in ((0, 0, top), (0, d, top_right), (d, 0, low), (d, d, rest)):
            if block is not None:
                out.set_block(r0, c0, block)
        return out

    def inverse(self) -> "RatMat":
        """Gauss-Jordan inverse; raises ValueError if singular."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of non-square matrix")
        one = RatFun.const(1)
        aug = [row[:] + [one if i == j else _RF_ZERO for j in range(n)]
               for i, row in enumerate(self.data)]
        rank = 0
        for col in range(n):
            piv = None
            for r in range(rank, n):
                if not aug[r][col].is_zero:
                    piv = r
                    break
            if piv is None:
                raise ValueError("singular matrix")
            aug[rank], aug[piv] = aug[piv], aug[rank]
            pr = aug[rank]
            inv = one / pr[col]
            for j in range(2 * n):
                if not pr[j].is_zero:
                    pr[j] = pr[j] * inv
            for r in range(n):
                if r != rank and not aug[r][col].is_zero:
                    f = aug[r][col]
                    row = aug[r]
                    for j in range(2 * n):
                        if not pr[j].is_zero:
                            row[j] = row[j] - f * pr[j]
            rank += 1
        return RatMat._new(n, n, [row[n:] for row in aug])


# ---- nilpotent structure ------------------------------------------------------


def trace_shows_not_nilpotent(m: ConstMat) -> bool:
    """True when tr(m) or tr(m^2) is nonzero, which proves m not nilpotent.

    Both are read off the stored int entries in O(nnz): tr(m^2) is
    sum m_ij * m_ji, and m^2 is never formed.  False proves nothing; a
    caller that needs to know goes on to nilpotent_jordan_chains.
    """
    num = m.num
    if sum(row.get(i, 0) for i, row in num.items()):
        return True
    return sum(v * num[j].get(i, 0) for i, row in num.items()
               for j, v in row.items() if j in num) != 0


def kernel_chains(m: ConstMat, dim: int):
    """(chains, rank): the Jordan chains of m on its generalized kernel, of
    dimension dim, and the rank n - dim ker(m^q) at which the powers stop.

    The powers stop when ker(m^q) reaches dim or stops growing.  Each chain
    is a list of coordinate vectors, kernel-first: m(chain[j]) = chain[j-1],
    m(chain[0]) = 0.  Chains are sorted by length descending, ties by the
    first free position of ker(m^q) (where its canonical basis vectors hold
    their 1) at which the kernel vector is nonzero: that basis depends on
    the subspace alone, so the order is that of m restricted to it.  The
    time budget is checked before each power and each row of its nullspace.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("operator must be square")
    # powers[j] = m^j and kernels[j] = basis of ker(m^j)
    powers = [ConstMat.identity(n)]
    kernels = [[]]
    while len(kernels[-1]) < dim:
        check_deadline()
        powers.append(powers[-1] * m)
        kernels.append(nullspace(powers[-1]))
        if len(kernels[-1]) == len(kernels[-2]):
            break
    q = len(powers) - 1  # ker(m^q) is the generalized kernel
    # choose chain tops, highest stage first
    tops_by_stage = {}
    for j in range(q, 0, -1):
        span = SpanQQ(n)
        for v in kernels[j - 1]:
            span.add(v)
        for k in range(j + 1, q + 1):
            pw = powers[k - j]
            for t in tops_by_stage.get(k, []):
                span.add(pw.apply(t))
        stage_tops = [v for v in kernels[j] if span.add(v)]
        if stage_tops:
            tops_by_stage[j] = stage_tops
    chains = []
    for j, tops in tops_by_stage.items():
        for t in tops:
            chain = [t]
            for _ in range(j - 1):
                chain.append(m.apply(chain[-1]))
            chain.reverse()  # kernel element first
            chains.append(chain)

    free = [max(i for i, c in enumerate(v) if c) for v in kernels[-1]]  # ascending
    chains.sort(key=lambda ch: (-len(ch), next(i for i in free if ch[0][i])))
    return chains, n - len(kernels[-1])


def nilpotent_jordan_chains(m: ConstMat) -> list:
    """The Jordan chains of a nilpotent m over Q, as kernel_chains(m, n)
    gives them (ties by the first-nonzero index of the kernel vector); their
    lengths are the Jordan block sizes, the longest the nilpotency index.
    Raises UnsupportedRegime (with the stabilized rank as evidence) if m is
    not nilpotent.
    """
    chains, rank = kernel_chains(m, m.rows)
    if rank:
        raise UnsupportedRegime(
            "operator is not nilpotent: rank of powers stabilizes at %d" % rank
        )
    return chains


def charpoly(m: ConstMat) -> Poly:
    """Characteristic polynomial det(xI - m) by the Faddeev-LeVerrier scheme;
    the time budget is checked before each product."""
    n = m.rows
    coeffs = [QQ0] * (n + 1)
    coeffs[n] = QQ1
    eye = ConstMat.identity(n)
    mk = eye
    for k in range(1, n + 1):
        check_deadline()
        mk = m * mk
        c = -QQ(sum(row.get(i, 0) for i, row in mk.num.items()), k * mk.den)
        coeffs[n - k] = c
        mk = mk + eye.scale(c)
    return Poly(coeffs)


def rational_eigenvalues(m: ConstMat):
    """Eigenvalues with multiplicity, all in Q, else UnsupportedRegime."""
    cp = charpoly(m)
    _, factors = factor_irreducible(cp)
    out = []
    for f, mult in factors:
        if f.degree != 1:
            raise UnsupportedRegime(
                "eigenvalues outside Q: constant field too small for the "
                "generalized eigenspace split"
            )
        out.append((-f.coeffs[0], mult))
    out.sort()
    return out
