"""Exact matrices: constant (over Q) and rational-function entries.

Products skip zero entries, which matters a lot here -- the block systems
and their gauge factors are sparse.  The constant Lie-algebra kernel goes
further: comm and SpanQQ work on nonzero entries only, since the Lie
closure matrices hold a few dozen nonzeros in a thousand entries.  Row
reduction is plain Gauss with the leftmost-nonzero pivot rule so every
result is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rationals import QQ, QQ0, QQ1
from .poly import Poly, factor_irreducible
from .ratfun import RatFun
from .errors import UnsupportedRegime


class ConstMat:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[QQ(v) for v in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def _raw(data) -> "ConstMat":
        m = object.__new__(ConstMat)
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        return m

    @staticmethod
    def zeros(rows, cols=None) -> "ConstMat":
        cols = rows if cols is None else cols
        return ConstMat._raw([[QQ0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n) -> "ConstMat":
        m = ConstMat.zeros(n, n)
        for i in range(n):
            m.data[i][i] = QQ1
        return m

    def __eq__(self, other):
        return (
            isinstance(other, ConstMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"ConstMat({self.rows}x{self.cols})"

    @property
    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)

    def flatten(self):
        out = []
        for row in self.data:
            out.extend(row)
        return out

    def __add__(self, other):
        return ConstMat._raw(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        return ConstMat._raw(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __neg__(self):
        return ConstMat._raw([[-a for a in row] for row in self.data])

    def scale(self, c) -> "ConstMat":
        c = QQ(c)
        return ConstMat._raw([[a * c for a in row] for row in self.data])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [[QQ0] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if not aik:
                    continue
                brow = other.data[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] += aik * bkj
        return ConstMat._raw(out)

    def submatrix(self, r0, r1, c0, c1) -> "ConstMat":
        return ConstMat([row[c0:c1] for row in self.data[r0:r1]])

    def apply(self, vec):
        """Matrix times coordinate vector (list of QQ)."""
        out = []
        for row in self.data:
            s = QQ0
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(s)
        return out


def _nonzero_rows(m: ConstMat):
    # the identity test passes the shared zero without a Fraction.__bool__ call
    return [[(j, v) for j, v in enumerate(row) if v is not QQ0 and v] for row in m.data]


def comm(a: ConstMat, b: ConstMat) -> ConstMat:
    """Commutator [a, b] = a*b - b*a, summed over nonzero entries only."""
    n = a.rows
    if not (a.cols == b.rows == n and b.cols == n):
        raise ValueError("shape mismatch")
    an, bn = _nonzero_rows(a), _nonzero_rows(b)
    out = [[QQ0] * n for _ in range(n)]
    for orow, arow, brow in zip(out, an, bn):
        for k, aik in arow:
            for j, bkj in bn[k]:
                orow[j] += aik * bkj
        for k, bik in brow:
            for j, akj in an[k]:
                orow[j] -= bik * akj
    return ConstMat._raw(out)


def lincomb(coeffs, mats) -> ConstMat:
    """sum c_k * mats[k] over nonzero coefficients and entries, into one output."""
    out = [[QQ0] * mats[0].cols for _ in range(mats[0].rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for orow, mrow in zip(out, m.data):
                for j, v in enumerate(mrow):
                    if v:
                        orow[j] += c * v
    return ConstMat._raw(out)


# ---- Gauss elimination over Q ---------------------------------------------


def rref(rows):
    """Reduced row echelon form of a list of QQ rows; returns (rows, pivots).

    Pivot choice: leftmost nonzero column, first available row.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        inv = QQ1 / pr[col]
        for j in range(col, n):
            if pr[j]:
                pr[j] = pr[j] * inv
        for r in range(m):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                row = mat[r]
                for j in range(col, n):
                    if pr[j]:
                        row[j] -= f * pr[j]
        pivots.append(col)
        rank += 1
    return mat, pivots


def nullspace(mat_rows, n):
    """Canonical nullspace basis of the matrix given by rows of length n."""
    red, pivots = rref(mat_rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [QQ0] * n
        v[free] = QQ1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


class SpanQQ:
    """Incremental echelon span of QQ vectors with coordinate tracking.

    Vectors come in dense (lists of length `length`); rows and combos are
    stored sparse, as {index: nonzero value}.  Rows are kept sorted by pivot
    (their smallest index) and unreduced against each other, so an added
    vector is stored verbatim as the new basis row after forward reduction
    -- callers rely on that (basis = reduced residuals in input order).
    """

    def __init__(self, length: int, track: bool = False):
        self.length = length
        self.rows = []  # (pivot, {index: value}) sorted by pivot
        self.track = track
        self.combos = []  # combos[k]: row k as {original index: coefficient}
        self.n_added = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        v = {i: c for i, c in enumerate(vec) if c is not QQ0 and c}  # as in _nonzero_rows
        mults = []
        for idx, (p, row) in enumerate(self.rows):
            c = v.get(p)
            if c is not None:
                f = c / row[p]
                _axpy(v, -f, row)
                mults.append((idx, f))
        return v, mults

    def add(self, vec) -> bool:
        """Add vector; True if it enlarged the span (residual became a row)."""
        v, mults = self._reduce(vec)
        if not v:
            return False
        pivot = min(v)
        pos = next((k for k, (p, _) in enumerate(self.rows) if p > pivot), len(self.rows))
        self.rows.insert(pos, (pivot, v))
        if self.track:
            combo = {self.n_added: QQ1}
            for idx, f in mults:
                _axpy(combo, -f, self.combos[idx])
            self.combos.insert(pos, combo)
            self.n_added += 1
        return True

    def coords_in_rows(self, vec):
        """Coordinates of vec in the current rows, or None if outside."""
        v, mults = self._reduce(vec)
        if v:
            return None
        out = [QQ0] * len(self.rows)
        for idx, f in mults:
            out[idx] = f
        return out

    def coords_in_added(self, vec):
        """Coordinates of vec in the accepted original vectors, or None."""
        if not self.track:
            raise ValueError("span built without tracking")
        row_coords = self.coords_in_rows(vec)
        if row_coords is None:
            return None
        out = [QQ0] * self.n_added
        for k, f in enumerate(row_coords):
            if f:
                for i, ci in self.combos[k].items():
                    out[i] += f * ci
        return out


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


def coordinates_in_span(target: ConstMat, basis) -> list | None:
    """Coordinates of target in the span of basis matrices, or None.

    The basis must be linearly independent (ValueError otherwise).  The
    pipeline reads coordinates off the spans it already builds; the tests
    use this function as their independent reference.
    """
    if not basis:
        raise ValueError("empty basis")
    n = basis[0].rows * basis[0].cols
    span = SpanQQ(n, track=True)
    for b in basis:
        if not span.add(b.flatten()):
            raise ValueError("basis matrices are linearly dependent")
    return span.coords_in_added(target.flatten())


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
    def zeros(rows, cols=None) -> "RatMat":
        cols = rows if cols is None else cols
        return RatMat([[_RF_ZERO] * cols for _ in range(rows)])

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

    def __add__(self, other):
        return RatMat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        return RatMat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __neg__(self):
        return RatMat([[-a for a in row] for row in self.data])

    def scale(self, f: RatFun) -> "RatMat":
        return RatMat([[a * f if not a.is_zero else _RF_ZERO for a in row] for row in self.data])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [[_RF_ZERO] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik.is_zero:
                    continue
                brow = other.data[k]
                for j, bkj in enumerate(brow):
                    if not bkj.is_zero:
                        orow[j] = orow[j] + aik * bkj
        m = object.__new__(RatMat)
        m.rows, m.cols = self.rows, other.cols
        m.data = out
        return m

    def derivative(self) -> "RatMat":
        return RatMat([[e.derivative() for e in row] for row in self.data])

    def submatrix(self, r0, r1, c0, c1) -> "RatMat":
        return RatMat([row[c0:c1] for row in self.data[r0:r1]])

    def set_block(self, r0, c0, block: "RatMat") -> None:
        for i in range(block.rows):
            for j in range(block.cols):
                self.data[r0 + i][c0 + j] = block.data[i][j]

    def det(self) -> RatFun:
        """Determinant by fraction-free-ish Gauss elimination (plain pivots)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of non-square matrix")
        work = [row[:] for row in self.data]
        sign = 1
        out = RatFun.const(1)
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not work[r][col].is_zero:
                    piv = r
                    break
            if piv is None:
                return _RF_ZERO
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                sign = -sign
            pr = work[col]
            out = out * pr[col]
            inv = RatFun.const(1) / pr[col]
            for r in range(col + 1, n):
                if not work[r][col].is_zero:
                    f = work[r][col] * inv
                    row = work[r]
                    for j in range(col + 1, n):
                        if not pr[j].is_zero:
                            row[j] = row[j] - f * pr[j]
        return out if sign > 0 else -out

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
        return RatMat([row[n:] for row in aug])


# ---- nilpotent structure ------------------------------------------------------


@dataclass
class JordanChains:
    """Chains of a nilpotent operator N on Q^n.

    Each chain is a list of coordinate vectors ordered kernel-first:
    N(chain[j]) = chain[j-1] and N(chain[0]) = 0.  Chains are sorted by
    length descending, ties by the first-nonzero index of the kernel vector.
    """

    chains: list
    nilpotency_index: int

    @property
    def block_sizes(self):
        return [len(c) for c in self.chains]


def nilpotent_jordan_chains(m: ConstMat) -> JordanChains:
    """Jordan chain decomposition of a nilpotent matrix over Q.

    Raises UnsupportedRegime (with the stabilized rank as evidence) if m is
    not nilpotent.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("operator must be square")
    # powers[j] = m^j and kernels[j] = basis of ker(m^j), up to the first
    # zero power, or until the kernel stops growing (then it never grows again)
    powers = [ConstMat.identity(n)]
    kernels = [[]]
    while len(kernels[-1]) < n:
        powers.append(powers[-1] * m)
        kernels.append(nullspace(powers[-1].data, n))
        if len(kernels[-1]) == len(kernels[-2]):
            break
    if len(kernels[-1]) != n:
        raise UnsupportedRegime(
            "operator is not nilpotent: rank of powers stabilizes at %d"
            % (n - len(kernels[-1]))
        )
    q = len(powers) - 1  # nilpotency index: m^q = 0, m^(q-1) != 0
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
        stage_tops = []
        for v in kernels[j]:
            if span.add(v):
                stage_tops.append(v)
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

    def first_nonzero(vec):
        return next(i for i, c in enumerate(vec) if c)

    chains.sort(key=lambda ch: (-len(ch), first_nonzero(ch[0])))
    return JordanChains(chains, q)


def charpoly(m: ConstMat) -> Poly:
    """Characteristic polynomial det(xI - m) by the Faddeev-LeVerrier scheme."""
    n = m.rows
    coeffs = [QQ0] * (n + 1)
    coeffs[n] = QQ1
    mk = ConstMat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        tr = sum((mk.data[i][i] for i in range(n)), QQ0)
        c = -tr / k
        coeffs[n - k] = c
        for i in range(n):
            mk.data[i][i] += c
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
