"""Dense reference linear algebra for the tests.

Plain Gauss-Jordan elimination on dense lists of Fraction (and of RatFun
for the determinant), written for clarity, not speed.  The package runs
its eliminations over Q on sparse, fraction-free ints, in SpanQQ and in
nullspace's rref; these functions compute the same things independently
of them, so the tests can compare the two.  Likewise entrywise_mul multiplies rational matrices term
by term in RatFun arithmetic, where the package works over row and column
common denominators, and breadth_first_basis brackets every pair of
basis elements, where the package's Lie closure brackets each element
with the generators only, and all_seed_working_basis seeds the working
subdiagonal space with the lower-left block of every element of the
initial algebra, where the package takes one seed.

The scalar kernels have references too: derivative_by_two_gcds reduces
n'd - nd' over d^2 by a gcd with the numerator, where the package takes
only gcd(d, d') and reads the reduced denominator off the pole orders;
hermite_split_by_sums adds one normalized RatFun per pole order, where
the package normalizes once over the product of the denominators;
equation_rows_by_products builds each row of the rational-solution
system from its five products, where the package shifts two polynomials;
as_log_derivative_by_partial_fractions reads the residues off a full
partial-fraction decomposition, where the package reads the part over
each simple pole only; and fraction_poly_to_text and fraction_render
print through Fraction coefficients, where the package reads the int
numerators.

block_diag_gauge builds a block-diagonal gauge as two whole matrices,
where the package keeps a gauge as its blocks (BlockGauge) and multiplies
it out only when it is read.

two_pass_wei_norman decomposes a rational matrix in two passes: every
numerator goes into the echelon rows first, and each entry is written over
the finished rows after, where the package's wei_norman takes an entry's
coordinates from the one reduction that adds it.

eigen_chains_by_restriction splits the Jordan chains of a matrix by
restricting psi - lam to a basis of each generalized eigenspace, taking
the nilpotent chains there and mapping them back, where the package runs
one routine (kernel_chains) on psi - lam itself.

FlatDualFrame is the coordinate frame as DualFrame used to build it: the
basis is summed term by term from the lead and the vectors, and its
matrices, flattened to rows * cols entries, fill a span of their own, in
which every Wei-Norman matrix is solved; the package's DualFrame reads a
matrix through the span its Lie closure already holds and solves only the
short coordinate vectors.
"""

from dataclasses import dataclass
from math import gcd, lcm

from varred.expr import _is_bare_atom
from varred.gauge import GaugeMatrix
from varred.liealgebra import rat_lincomb
from varred.matrices import (
    ConstMat,
    RatMat,
    SpanQQ,
    nilpotent_jordan_chains,
    rational_eigenvalues,
)
from varred.poly import (
    Poly,
    factor_irreducible,
    poly_gcd,
    poly_xgcd,
    squarefree_decomposition,
)
from varred.rationals import QQ, QQ0, QQ1
from varred.ratfun import HermiteSplit, RatFun, common_denominator

_RF_ZERO = RatFun.const(0)


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


def dense_nullspace(mat_rows, n):
    """Canonical nullspace basis of the matrix given by rows of length n:
    one vector per free column of the rref, 1 in that column."""
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


def two_pass_wei_norman(a: RatMat):
    """(funcs, mats) of wei_norman(a), on dense Fraction vectors: the entries'
    numerators over their common denominator are added to echelon rows
    sorted by pivot, each residual a coefficient function; then each
    numerator is written over the finished rows, its multipliers entries of
    the matrices, in the order the rows were accepted."""
    entries = [(i, j, f) for i, row in enumerate(a.data) for j, f in enumerate(row) if f]
    if not entries:
        return [], []
    den, nums = common_denominator([f for _, _, f in entries])
    n = max(p.degree for p in nums) + 1
    vecs = [list(p.coeffs) + [QQ0] * (n - len(p.coeffs)) for p in nums]
    rows = []  # (pivot, residual, index of acceptance), sorted by pivot

    def reduce(v):
        mults = {}
        for p, row, k in rows:
            if v[p]:
                f = v[p] / row[p]
                v = [x - f * y for x, y in zip(v, row)]
                mults[k] = f
        return v, mults

    for v in vecs:
        res = reduce(v)[0]
        if any(res):
            pivot = next(i for i, x in enumerate(res) if x)
            rows.insert(sum(1 for p, _, _ in rows if p < pivot), (pivot, res, len(rows)))
    funcs = [None] * len(rows)
    for _, res, k in rows:
        funcs[k] = RatFun(Poly(res), den)
    entries_of = [{} for _ in rows]
    for (i, j, _), v in zip(entries, vecs):
        res, mults = reduce(v)
        assert not any(res)
        for k, f in mults.items():
            entries_of[k].setdefault(i, {})[j] = f
    return funcs, [ConstMat.from_rows(a.rows, a.cols, e) for e in entries_of]


def coordinates_in_span(target: ConstMat, basis) -> list | None:
    """Coordinates of target in the span of basis matrices, or None.

    The basis must be linearly independent (ValueError otherwise).  Solved
    by rref of the flattened matrices as columns, target last.
    """
    if not basis:
        raise ValueError("empty basis")
    k = len(basis)
    columns = [b.flatten() for b in basis] + [target.flatten()]
    red, pivots = rref([list(row) for row in zip(*columns)])
    if [p for p in pivots if p < k] != list(range(k)):
        raise ValueError("basis matrices are linearly dependent")
    if pivots[-1] == k:
        return None
    return [red[r][k] for r in range(k)]


def _bracket(a, b):
    return a * b - b * a


class _SparseSpan:
    """A reduced row echelon form of flattened matrices, in sparse Fraction
    rows: pivot -> {index: Fraction}, 1 at the pivot, 0 at the other pivots."""

    def __init__(self):
        self.rows = {}

    @staticmethod
    def _sub_scaled(w, c, row):
        for k, v in row.items():
            x = w.get(k, QQ0) - c * v
            if x:
                w[k] = x
            else:
                del w[k]

    def add(self, m) -> bool:
        """Add m; True when it was outside the span so far."""
        w = {i * m.cols + j: QQ(v, m.den) for i, row in m.num.items() for j, v in row.items()}
        for p, row in self.rows.items():
            if p in w:
                self._sub_scaled(w, w[p], row)
        if not w:
            return False
        p = min(w)
        new = {k: v / w[p] for k, v in w.items()}
        for row in self.rows.values():
            if p in row:
                self._sub_scaled(row, row[p], new)
        self.rows[p] = new
        return True


def span_dim(mats):
    """Dimension of the Q-span of constant matrices."""
    span = _SparseSpan()
    return sum(span.add(m) for m in mats)


def breadth_first_basis(generators):
    """Basis of the Lie closure that brackets every pair of basis elements.

    The nonzero generators that enlarge the span come first, in input
    order.  Then pair (i, j), i < j, is bracketed before (i', j') when
    (j, i) < (j', i'), and a bracket outside the span so far is appended.
    Brackets are the dense products a*b - b*a, and the span is a reduced
    row echelon form of the flattened basis in sparse Fraction rows.
    """
    span = _SparseSpan()
    basis = [g for g in generators if span.add(g)]
    j = 1
    while j < len(basis):
        for i in range(j):
            b = _bracket(basis[i], basis[j])
            if span.add(b):
                basis.append(b)
        j += 1
    return basis


def lower_left(m: ConstMat, d1: int) -> ConstMat:
    """m with every entry outside its lower-left block, rows >= d1 and
    columns < d1, set to zero."""
    return ConstMat([[v if i >= d1 > j else QQ0 for j, v in enumerate(row)]
                     for i, row in enumerate(m.data)])


def all_seed_working_basis(d0, sub_basis, algebra, d1):
    """The working subdiagonal space by the all-seed rule: the all-pairs
    closure of d0, sub_basis and the lower-left block of every element of
    the initial algebra, in that order."""
    seeds = [lower_left(m, d1) for m in algebra]
    return breadth_first_basis([d0] + list(sub_basis) + seeds)


def structure_table(basis):
    """{(i, j): coordinates of [basis[i], basis[j]] along basis} for i < j.

    Solved at once, by the rref of the flattened basis matrices as columns
    with the brackets after them; ValueError if the basis is dependent or
    a bracket lies outside its span.
    """
    k = len(basis)
    pairs = [(i, j) for j in range(k) for i in range(j)]
    columns = [b.flatten() for b in basis]
    columns += [_bracket(basis[i], basis[j]).flatten() for i, j in pairs]
    red, pivots = rref([list(row) for row in zip(*columns)])
    if pivots != list(range(k)):
        raise ValueError("dependent basis, or a bracket outside its span")
    return {key: [red[r][k + c] for r in range(k)] for c, key in enumerate(pairs)}


def breadth_first_closure(generators):
    """(basis, table): breadth_first_basis and its full structure table."""
    basis = breadth_first_basis(generators)
    return basis, structure_table(basis)


def det(m: RatMat) -> RatFun:
    """Determinant of a square RatMat by Gauss elimination (plain pivots)."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    work = [row[:] for row in m.data]
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


def entrywise_mul(a: RatMat, b: RatMat) -> RatMat:
    """a * b summed term by term: one RatFun product and one RatFun sum,
    each normalized on its own, per pair of nonzero entries."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = [[_RF_ZERO] * b.cols for _ in range(a.rows)]
    for i, arow in enumerate(a.data):
        orow = out[i]
        for k, aik in enumerate(arow):
            if aik.is_zero:
                continue
            for j, bkj in enumerate(b.data[k]):
                if not bkj.is_zero:
                    orow[j] = orow[j] + aik * bkj
    return RatMat(out)


def entrywise_gauge(a: RatMat, p) -> RatMat:
    """P[a] = P^(-1) (a P - P') with entrywise_mul for both products."""
    return entrywise_mul(p.p_inv, entrywise_mul(a, p.p) - p.p.derivative())


def derivative_by_two_gcds(f: RatFun) -> RatFun:
    """(n/d)' = (n'd - nd')/d^2, reduced by its gcd with d * gcd(d, d'),
    which holds every factor that the numerator shares with d^2."""
    n, d = f.num, f.den
    if d.is_one:
        return RatFun.from_poly(n.derivative())
    cand = n.derivative() * d - n * d.derivative()
    if cand.is_zero:
        return _RF_ZERO
    g = poly_gcd(cand, d * poly_gcd(d, d.derivative()))
    if g.is_one:
        return RatFun._raw(cand, d * d)
    return RatFun._raw(cand.exact_div(g), (d * d).exact_div(g))


def hermite_split_by_sums(f: RatFun) -> HermiteSplit:
    """f = R' + L with L having only simple poles, R and L summed one
    normalized RatFun at a time: one term per squarefree factor q of the
    denominator and per power of q above one."""
    polypart, rem = f.num.divmod(f.den)
    r = RatFun.from_poly(polypart.antiderivative())
    l = _RF_ZERO
    if not rem.is_zero:
        for q, mult in squarefree_decomposition(f.den):
            qm = q**mult
            rest = f.den.exact_div(qm)
            if rest.is_one:
                comp = rem
            else:
                _, s, _ = poly_xgcd(rest, qm)
                comp = (rem * s) % qm
            dq = q.derivative()
            _, s2, t2 = poly_xgcd(q, dq)
            for j in range(mult, 1, -1):
                h, b = (comp * t2).divmod(q)
                r = r + RatFun(b.scale(QQ(-1, j - 1)), q ** (j - 1))
                comp = comp * s2 + h * dq + b.derivative().scale(QQ(1, j - 1))
            hh, low = comp.divmod(q)
            r = r + RatFun.from_poly(hh.antiderivative())
            if not low.is_zero:
                l = l + RatFun(low, q)
    return HermiteSplit(r, l)


@dataclass
class PFTerm:
    factor: Poly  # monic irreducible
    power: int  # >= 1
    numerator: Poly  # deg < deg factor, nonzero


@dataclass
class PFDecomp:
    poly_part: Poly
    terms: list  # of PFTerm, deterministic order

    def recombine(self) -> RatFun:
        out = RatFun.from_poly(self.poly_part)
        for t in self.terms:
            out = out + RatFun(t.numerator, t.factor**t.power)
        return out


def partial_fractions(f: RatFun) -> PFDecomp:
    """Full partial fraction decomposition over Q.

    Terms are grouped by irreducible factor of the denominator (sorted by
    degree, then coefficient tuple) with powers descending inside each group.
    """
    polypart, rem = f.num.divmod(f.den)
    terms = []
    if not rem.is_zero:
        _, factors = factor_irreducible(f.den)
        for q, mult in factors:
            qm = q**mult
            # component of rem/den over q^mult: rem * inv(den/q^mult) mod q^mult
            g, s, _ = poly_xgcd(f.den.exact_div(qm), qm)
            if not g.is_one:
                raise ValueError("denominator factors not coprime")
            comp = (rem * s) % qm
            power = mult
            while not comp.is_zero and power >= 1:
                comp, low = comp.divmod(q)
                if not low.is_zero:
                    terms.append(PFTerm(q, power, low))
                power -= 1
    return PFDecomp(polypart, terms)


def as_log_derivative_by_partial_fractions(f: RatFun):
    """(c, w) with f = c * w'/w, or None, read off partial_fractions(f):
    no polynomial part, every term of power one, and every numerator a
    rational multiple of its factor's derivative."""
    if f.is_zero:
        return None
    pf = partial_fractions(f)
    if not pf.poly_part.is_zero or not pf.terms:
        return None
    lambdas = []
    for t in pf.terms:
        if t.power != 1:
            return None
        dq = t.factor.derivative()
        lam = t.numerator.lc / dq.lc
        if t.numerator != dq.scale(lam):
            return None
        lambdas.append(lam)
    den_lcm = lcm(*[lam.denominator for lam in lambdas])
    ints = [int(lam * den_lcm) for lam in lambdas]
    g = gcd(*ints)
    if ints[0] < 0:
        g = -g
    wn = wd = Poly([QQ1])
    for t, v in zip(pf.terms, ints):
        e = v // g
        if e > 0:
            wn = wn * t.factor**e
        else:
            wd = wd * t.factor ** (-e)
    return QQ(g, den_lcm), RatFun._raw(wn, wd)


def equation_rows_by_products(gamma: RatFun, beta: RatFun, w: Poly, udeg: int):
    """Row i of (u'w - u w') * Gd * Bd = Gn * u * w * Bd + ... for u = x^i,
    multiplied out term by term."""
    gn, gd = gamma.num, gamma.den
    bd = beta.den
    wp = w.derivative()
    rows = []
    for i in range(udeg + 1):
        xi = Poly((QQ0,) * i + (QQ1,))
        xip = xi.derivative()
        rows.append((xip * w - xi * wp) * gd * bd - gn * xi * w * bd)
    return rows


def _fraction_text(c) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def fraction_poly_to_text(p: Poly, var: str) -> str:
    """Text of a Poly, descending degree, from its Fraction coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        neg = c < 0
        a = -c if neg else c
        if k == 0:
            body = _fraction_text(a)
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if a == 1 else f"{_fraction_text(a)}*{xs}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)


def fraction_render(f: RatFun, var: str = "x") -> str:
    """Text of a RatFun over integer-primitive polynomials, built by
    Fraction scaling and printed by fraction_poly_to_text."""
    if f.is_zero:
        return "0"
    cn, n_int = f.num.primitive_int()
    cd, d_int = f.den.primitive_int()
    c = cn / cd
    num = Poly(n_int).scale(c.numerator)
    den = Poly(d_int).scale(c.denominator)
    if den.lc < 0:
        num, den = num.scale(-1), den.scale(-1)
    ns = fraction_poly_to_text(num, var)
    if den.is_one:
        return ns
    ds = fraction_poly_to_text(den, var)
    if not _is_bare_atom(ns):
        ns = f"({ns})"
    if not _is_bare_atom(ds):
        ds = f"({ds})"
    return f"{ns}/{ds}"


def block_diag_gauge(gauges) -> GaugeMatrix:
    """Block-diagonal gauge from two per-block gauges (inverses assemble
    blockwise)."""
    top, rest = gauges
    return GaugeMatrix(RatMat.join(top.p, None, None, rest.p),
                       RatMat.join(top.p_inv, None, None, rest.p_inv))


def eigen_chains_by_restriction(psi: ConstMat):
    """(lam, chain) pairs as reduction._eigen_chains gives them, for each
    rational eigenvalue lam in ascending order: the canonical basis of
    ker (psi - lam)^mult, the matrix of psi - lam in that basis, its
    nilpotent Jordan chains, and those chains mapped back to coordinates."""
    n = psi.rows
    out = []
    eye = ConstMat.identity(n)
    for lam, mult in rational_eigenvalues(psi):
        shifted = psi - eye.scale(lam)
        power = eye
        for _ in range(mult):
            power = power * shifted
        vecs = dense_nullspace([list(r) for r in power.data], n)
        basis = [ConstMat([v]) for v in vecs]
        cols = []
        for v in vecs:
            c = coordinates_in_span(ConstMat([shifted.apply(v)]), basis)
            if c is None:
                raise RuntimeError("generalized eigenspace is not invariant")
            cols.append(c)
        k = len(vecs)
        restriction = ConstMat([[cols[j][i] for j in range(k)] for i in range(k)])
        eigenbasis = ConstMat(list(zip(*vecs)))  # columns: vecs
        for ch in nilpotent_jordan_chains(restriction):
            out.append((lam, [eigenbasis.apply(u) for u in ch]))
    return out


class FlatDualFrame:
    """The frame of DualFrame(lie, lead, vectors) over a span of its matrices
    flattened to rows * cols entries; ValueError as DualFrame raises it."""

    def __init__(self, lie, lead, vectors):
        others = [m for k, m in enumerate(lie.mats) if k != lead]
        basis = [] if lead is None else [lie.mats[lead]]
        for v in vectors:
            m = ConstMat.zeros(others[0].rows, others[0].cols)
            for c, o in zip(v, others):
                m = m + o.scale(c)
            basis.append(m)
        if not basis:
            raise ValueError("empty basis")
        self.basis = basis
        self.span = SpanQQ(basis[0].rows * basis[0].cols)
        for b in basis:
            if not self.span.add(b):
                raise ValueError("basis matrices are linearly dependent")

    def coords(self, wn):
        b = self.basis[0]
        if (wn.rows, wn.cols) != (b.rows, b.cols):
            raise ValueError("shape mismatch")
        kappas = []
        for m in wn.matrices():
            kappa = self.span.coords_in_added(m)
            if kappa is None:
                raise ValueError("matrix is outside the span of the basis")
            kappas.append(ConstMat([kappa]))
        return rat_lincomb(wn.functions(), kappas, 1, len(self.basis)).data[0]
