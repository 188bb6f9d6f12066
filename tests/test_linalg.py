"""Constant and rational matrices: elimination, spans, Jordan chains."""

import itertools
import random
from fractions import Fraction

import pytest

from varred import matrices
from varred.errors import ReductionTimeout
from varred.gauge import GaugeMatrix, apply_gauge
from varred.liealgebra import wei_norman
from varred.matrices import (
    ConstMat,
    RatMat,
    SpanQQ,
    charpoly,
    comm,
    lincomb,
    nilpotent_jordan_chains,
    nullspace,
    rational_eigenvalues,
    trace_shows_not_nilpotent,
)
from varred.poly import Poly
from varred.ratfun import RatFun, parse_ratfun, solve_first_order_rational
from varred.reduction import _letters_independent, reduce_variational_tower

from dense_oracle import (
    coordinates_in_span,
    dense_nullspace,
    det,
    entrywise_gauge,
    entrywise_mul,
    rref,
)


def rand_const(rng, n, m=None, lo=-5, hi=5):
    m = n if m is None else m
    return ConstMat([[Fraction(rng.randint(lo, hi)) for _ in range(m)]
                     for _ in range(n)])


def rand_ratmat(rng, n, deg=2):
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)])
            den = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg)]
                       + [Fraction(1)])
            row.append(RatFun(num, den))
        out.append(row)
    return RatMat(out)


def rand_sparse_entry(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 3 ** 10))


def rand_sparse_const(rng, n, density=0.08):
    """n x n matrix with about density*n*n nonzeros, denominators up to 3^10."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(max(1, round(density * n * n))):
        m[rng.randrange(n)][rng.randrange(n)] = rand_sparse_entry(rng)
    return ConstMat(m)


def rand_sparse_vec(rng, n, density=0.05):
    """Length-n vector with about density*n nonzeros, denominators up to 3^10."""
    v = [Fraction(0)] * n
    for i in rng.sample(range(n), max(1, round(density * n))):
        v[i] = rand_sparse_entry(rng)
    return v


def sparse_span_cases(rng, count):
    """Long sparse vectors, some of them combinations of earlier ones."""
    for _ in range(count):
        n = rng.randint(200, 260)
        vecs = [rand_sparse_vec(rng, n) for _ in range(rng.randint(8, 16))]
        for _ in range(rng.randint(2, 5)):
            picks = rng.sample(vecs, rng.randint(2, 3))
            coeffs = [rand_sparse_entry(rng) for _ in picks]
            vecs.insert(rng.randrange(len(vecs) + 1),
                        [sum(c * v[k] for c, v in zip(coeffs, picks)) for k in range(n)])
        yield n, vecs


def span_rows(span):
    """(pivot, {index: value}) for each row of a span, read back as exact
    rationals from its stored ints and scale."""
    return [(p, {i: scale * v for i, v in ints.items()}) for p, ints, scale, _ in span.rows]


def check_span(span, vecs):
    """The span's rank, echelon rows and row coordinates against rref; the
    vectors must lie in the span, so adding them again changes nothing."""
    assert span.dim == len(rref(vecs)[1])
    rows = span_rows(span)
    pivots = [p for p, _ in rows]
    assert pivots == sorted(pivots)
    order = [k for *_, k in span.rows]
    assert sorted(order) == list(range(span.dim))
    for p, row in rows:
        assert p == min(i for i, c in row.items() if c)
    by_acceptance = [row for _, row in sorted(zip(order, rows))]
    for v in vecs:
        grew, coords = span.add_coords(list(v))
        assert not grew
        rebuilt = [Fraction(0)] * len(v)
        for c, (_, row) in zip(coords, by_acceptance):
            for i, ri in row.items():
                rebuilt[i] += c * ri
        assert rebuilt == v


def test_const_ring_identities():
    rng = random.Random(201)
    dense = ([rand_const(rng, n) for _ in range(3)]
             for n in (rng.randint(1, 5) for _ in range(100)))
    sparse = ([rand_sparse_const(rng, 20) for _ in range(3)] for _ in range(8))
    # coefficients for lincomb, drawn apart so the matrices stay as they were
    crng = random.Random(2010)
    for a, b, c in itertools.chain(dense, sparse):
        assert (a + b) * c == a * c + b * c
        assert comm(a, b) == a * b - b * a
        assert comm(a, b) == -(comm(b, a))
        # Jacobi identity
        assert (comm(a, comm(b, c)) + comm(b, comm(c, a))
                + comm(c, comm(a, b))).is_zero
        coeffs = [Fraction(crng.randint(-3, 3), crng.randint(1, 3)) for _ in range(3)]
        assert lincomb(coeffs, [a, b, c]) == (
            a.scale(coeffs[0]) + b.scale(coeffs[1]) + c.scale(coeffs[2]))
        # terms that cancel leave exact zeros behind
        assert lincomb([coeffs[0], Fraction(1), -coeffs[0]], [a, b, a]) == b
        assert lincomb([Fraction(2), Fraction(-1), Fraction(-1)], [a, a, a]).is_zero
    with pytest.raises(ValueError):
        comm(ConstMat.identity(2), ConstMat.identity(3))


def test_spanqq_dimension_and_membership():
    rng = random.Random(202)
    dense = ((n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                  for _ in range(rng.randint(1, n + 2))])
             for n in (rng.randint(2, 6) for _ in range(60)))
    for n, vecs in itertools.chain(dense, sparse_span_cases(rng, 6)):
        span = SpanQQ(n)
        added = []
        for v in vecs:
            if span.add(list(v)):
                added.append(v)
        assert span.dim == len(added)
        check_span(span, vecs)
        # every original vector is inside the closed span now
        for v in vecs:
            assert not span.add(list(v))


def test_spanqq_tracked_coordinates():
    rng = random.Random(203)
    dense = ((n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
             for n in (rng.randint(2, 5) for _ in range(60)))
    # lazy, so each case is drawn right before its coefficients
    for n, vecs in itertools.chain(dense, sparse_span_cases(rng, 6)):
        span = SpanQQ(n)
        basis = []
        for v in vecs:
            if span.add(list(v)):
                basis.append(v)
        if not basis:
            continue
        check_span(span, vecs)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in basis]
        target = [sum(c * v[k] for c, v in zip(coeffs, basis))
                  for k in range(n)]
        got = span.coords_in_added(list(target))
        assert got == coeffs
        rebuilt = [sum(c * v[k] for c, v in zip(got, basis)) for k in range(n)]
        assert rebuilt == target


# ---- the int kernel against a dense Fraction reference ----------------------

# denominators are products of these, so the ints meet primes beyond 2 and 3
REF_PRIMES = (2, 3, 5, 7, 11, 13)


def ref_entry(rng):
    """A Fraction that is zero about half the time."""
    if rng.random() < 0.5:
        return Fraction(0)
    den = 1
    for _ in range(rng.randint(0, 3)):
        den *= rng.choice(REF_PRIMES)
    return Fraction(rng.randint(-9, 9), den)


def ref_matrix(rng, n, m):
    return [[ref_entry(rng) for _ in range(m)] for _ in range(n)]


def ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def as_lists(m):
    return [list(row) for row in m.data]


class RefSpan:
    """Dense Fraction forward elimination: rows sorted by pivot, each the
    residual of an accepted vector, with coordinates over the accepted ones."""

    def __init__(self):
        self.rows = []  # (pivot, dense row, acceptance index)
        self.combos = []  # per accepted vector: dense coordinates of its row over them
        self.n_added = 0

    def reduce(self, v):
        v = list(v)
        mults = {}  # by acceptance index
        for p, row, k in self.rows:
            if v[p]:
                f = v[p] / row[p]
                v = [x - f * y for x, y in zip(v, row)]
                mults[k] = f
        return v, mults

    def add(self, v):
        """(grew, coordinates of v over the rows by acceptance index)."""
        res, mults = self.reduce(v)
        grew = any(res)
        if grew:
            pivot = next(i for i, x in enumerate(res) if x)
            pos = sum(1 for p, _, _ in self.rows if p < pivot)
            combo = {self.n_added: Fraction(1)}
            for k, f in mults.items():
                for i, c in self.combos[k].items():
                    combo[i] = combo.get(i, Fraction(0)) - f * c
            self.rows.insert(pos, (pivot, res, self.n_added))
            self.combos.append(combo)
            mults[self.n_added] = Fraction(1)
            self.n_added += 1
        return grew, [mults.get(k, Fraction(0)) for k in range(self.n_added)]

    def coords_in_added(self, v):
        res, mults = self.reduce(v)
        if any(res):
            return None
        out = [Fraction(0)] * self.n_added
        for k, f in mults.items():
            for i, c in self.combos[k].items():
                out[i] += f * c
        return out


def test_int_kernel_matches_dense_reference():
    """comm, products, sums, lincomb, scale and apply on the sparse int form
    against dense Fraction arithmetic, and equality after cancellation."""
    rng = random.Random(211)
    shapes = [(0, 0), (1, 1)] + [(n, n) for n in (rng.randint(2, 7) for _ in range(60))]
    for n, _ in shapes:
        a, b, c = (ref_matrix(rng, n, n) for _ in range(3))
        ma, mb, mc = ConstMat(a), ConstMat(b), ConstMat(c)
        assert (ma.rows, ma.cols) == (n, n)
        assert as_lists(ma) == a
        assert as_lists(ma * mb) == ref_mul(a, b)
        assert as_lists(comm(ma, mb)) == ref_sub(ref_mul(a, b), ref_mul(b, a))
        assert as_lists(ma + mb) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert as_lists(ma - mb) == ref_sub(a, b)
        coeffs = [ref_entry(rng) for _ in range(3)]
        want = [[coeffs[0] * x + coeffs[1] * y + coeffs[2] * z
                 for x, y, z in zip(ra, rb, rc)] for ra, rb, rc in zip(a, b, c)]
        got = lincomb(coeffs, [ma, mb, mc])
        assert as_lists(got) == want
        assert got == ConstMat(want)
        assert as_lists(ma.scale(coeffs[0])) == [[coeffs[0] * x for x in row] for row in a]
        vec = [ref_entry(rng) for _ in range(n)]
        assert ma.apply(vec) == [sum((x * y for x, y in zip(row, vec)), Fraction(0))
                                 for row in a]
        # entries that cancel to zero leave the canonical form of what stays
        assert ma * mb - mb * ma == comm(ma, mb)
        assert (ma - ma).is_zero and ma - ma == ConstMat.zeros(n, n)
        assert lincomb([Fraction(1, 7), Fraction(-1, 7)], [ma, ma]) == ConstMat.zeros(n)
        assert ma.scale(Fraction(3, 11)).scale(Fraction(11, 3)) == ma
        assert comm(ma, ma).is_zero
        zero = ConstMat.zeros(n)
        assert ma * zero == zero and comm(zero, mb) == zero and ma + zero == ma
        assert ConstMat.identity(n) * ma == ma == ma * ConstMat.identity(n)
    # canonical: no stored zero, no empty row, den coprime to the entries
    m = ConstMat([[Fraction(2, 35), Fraction(0)], [Fraction(0), Fraction(0)],
                  [Fraction(4, 5), Fraction(-6, 7)]])
    assert m.num == {0: {0: 2}, 2: {0: 28, 1: -30}} and m.den == 35
    assert ConstMat([[Fraction(3, 13)]]).scale(Fraction(13, 3)) == ConstMat([[1]])
    assert ConstMat([[Fraction(5, 11)]]).scale(0).num == {}
    assert ConstMat([[Fraction(5, 11)]]).scale(0).den == 1


def test_const_mat_data_is_read_only():
    m = ConstMat([[Fraction(1, 5), Fraction(0)], [Fraction(0), Fraction(2)]])
    with pytest.raises(TypeError):
        m.data[0][1] = Fraction(1)
    with pytest.raises(TypeError):
        m.data[0] = [Fraction(1), Fraction(1)]
    assert m.data == ((Fraction(1, 5), Fraction(0)), (Fraction(0), Fraction(2)))
    assert m.flatten() == [Fraction(1, 5), Fraction(0), Fraction(0), Fraction(2)]


def spans_agree(span, ref):
    """Rows read back as exact rationals equal the reference residuals, in
    the same order of acceptance."""
    assert span.dim == len(ref.rows)
    got = [(p, {i: scale * v for i, v in ints.items()}, k) for p, ints, scale, k in span.rows]
    want = [(p, {i: x for i, x in enumerate(row) if x}, k) for p, row, k in ref.rows]
    assert got == want


def test_spanqq_matches_dense_reference():
    """add_coords and coords_in_added against RefSpan on seeded vectors:
    primes up to 13 in the denominators, combinations of earlier vectors,
    vectors that cancel to zero and the zero vector; a dense list, the
    matrix and the polynomial of the same entries give the same span.  add
    builds no combos; the first coords_in_added builds them."""
    rng = random.Random(212)
    for case in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        n = r * c
        vecs = [[ref_entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 7))]
        for _ in range(rng.randint(1, 3)):
            picks = rng.sample(vecs, min(len(vecs), 2))
            coeffs = [ref_entry(rng) or Fraction(1, 5) for _ in picks]
            vecs.append([sum((f * v[k] for f, v in zip(coeffs, picks)), Fraction(0))
                         for k in range(n)])
        vecs.append([x - x for x in vecs[0]])  # cancels to the zero vector
        rng.shuffle(vecs)
        mats = [ConstMat([v[i * c:(i + 1) * c] for i in range(r)]) for v in vecs]
        ref = RefSpan()
        dense, matrix, poly = (SpanQQ(n) for _ in range(3))
        for v, m in zip(vecs, mats):
            want = ref.add(v)
            if not any(v):
                assert Poly(v) == Poly() and not want[0]
            assert dense.add_coords(list(v)) == want
            assert matrix.add_coords(m) == want
            assert poly.add_coords(Poly(v)) == want
            for span in (dense, matrix, poly):
                spans_agree(span, ref)
        assert not dense._combos and not matrix._combos and not poly._combos
        probes = vecs + [[ref_entry(rng) for _ in range(n)] for _ in range(3)]
        for v in probes:
            m = ConstMat([v[i * c:(i + 1) * c] for i in range(r)])
            for span in (dense, matrix, poly):
                for vec in (list(v), m, Poly(v)):
                    assert span.coords_in_added(vec) == ref.coords_in_added(v)
        assert dense._combos == matrix._combos == poly._combos
        assert len(dense._combos) == dense.dim
        # a vector already in the span leaves it as it was
        for v in vecs:
            assert dense.add_coords(list(v)) == ref.add(v)
            assert not dense.add(list(v))
    # 0x0 matrices, empty vectors and the zero polynomial span nothing
    span = SpanQQ(0)
    assert not span.add(ConstMat([])) and not span.add([]) and not span.add(Poly())
    assert span.add_coords(Poly()) == (False, [])
    assert span.coords_in_added(ConstMat([])) == []
    assert span.coords_in_added(Poly()) == []


def test_add_kept_reads_the_coordinates_later():
    """add_kept grows the span as add_coords does, and after every vector
    went in, coords_of reads each one's coordinates over all the accepted
    vectors from the reduction kept when it was added: RefSpan's
    coordinates, the vector's own unit when it grew the span."""
    rng = random.Random(213)
    for case in range(40):
        n = rng.randint(1, 6)
        vecs = [[ref_entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(1, 3)):
            picks = rng.sample(vecs, min(len(vecs), 2))
            coeffs = [ref_entry(rng) or Fraction(1, 5) for _ in picks]
            vecs.append([sum((f * v[k] for f, v in zip(coeffs, picks)), Fraction(0))
                         for k in range(n)])
        vecs.append([Fraction(0)] * n)
        rng.shuffle(vecs)
        ref, span, kept = RefSpan(), SpanQQ(n), []
        for v in vecs:
            grew, k = span.add_kept(rng.choice([list(v), Poly(v), ConstMat([v])]))
            assert grew == ref.add(v)[0]
            kept.append(k)
        spans_agree(span, ref)
        for v, k in zip(vecs, kept):
            assert span.coords_of(k) == ref.coords_in_added(v)


def test_spanqq_callers_pass_polys(monkeypatch, lve3_run):
    """wei_norman, solve_first_order_rational and the letter rank hand
    SpanQQ the numerator Polys themselves, not dense Fraction lists built
    from their ints: every vector that reaches _int_vector during them is a
    Poly or a ConstMat."""
    seen = []
    int_vector = matrices._int_vector

    def spy(vec):
        seen.append(type(vec))
        return int_vector(vec)

    monkeypatch.setattr(matrices, "_int_vector", spy)

    def kinds(run):
        start = len(seen)
        run()
        return set(seen[start:])

    rng = random.Random(217)
    for _ in range(20):
        a = rand_ratmat(rng, rng.randint(1, 4))
        got = kinds(lambda: wei_norman(a))
        assert got and got <= {Poly, ConstMat}
    # the cases of test_solve_first_order_rational_branches; gamma = 0 takes
    # the Hermite split and no span
    for gamma, beta in [("0", "2*x"), ("0", "1/x"), ("1/x^2", "-1/x^2 - 1/x^3"),
                        ("x", "-x^3 + x"), ("x^2 + 1", "1")]:
        gamma, beta = parse_ratfun(gamma), parse_ratfun(beta)
        got = kinds(lambda: solve_first_order_rational(gamma, beta))
        assert got <= {Poly, ConstMat} and (got or gamma.is_zero)
    tower = lve3_run[0][2].tower
    got = kinds(lambda: _letters_independent(tower))
    assert got and got <= {Poly, ConstMat}


def test_coordinates_in_span_matches_recombination():
    rng = random.Random(204)
    for _ in range(60):
        n = rng.randint(2, 4)
        basis = [rand_const(rng, n) for _ in range(rng.randint(1, 3))]
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        target = ConstMat.zeros(n, n)
        for c, b in zip(coeffs, basis):
            target = target + b.scale(c)
        got = coordinates_in_span(target, basis)
        assert got is not None
        rebuilt = ConstMat.zeros(n, n)
        for c, b in zip(got, basis):
            rebuilt = rebuilt + b.scale(c)
        assert rebuilt == target


def test_coordinates_in_span_outside():
    e11 = ConstMat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    e22 = ConstMat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert coordinates_in_span(e22, [e11]) is None


def nullspace_cases(rng):
    """Random integer matrices, then the zero matrix, 0-row matrices,
    full-rank, rank-deficient and mixed-denominator ones."""
    for _ in range(60):
        n = rng.randint(2, 5)
        yield rand_const(rng, rng.randint(1, 5), n)
    for n in (1, 3, 6):
        yield ConstMat.zeros(rng.randint(1, 4), n)
        yield ConstMat.zeros(0, n)
    for _ in range(20):
        n = rng.randint(1, 6)
        while True:
            m = rand_const(rng, n)
            if not dense_nullspace(m.data, n):
                break
        yield m  # full rank: trivial kernel
        rows = [list(r) for r in rand_const(rng, rng.randint(0, n - 1), n).data]
        for _ in range(rng.randint(1, 3)):
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
            rows.insert(rng.randrange(len(rows) + 1),
                        [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)])
        yield ConstMat(rows)  # rank < n, and some rows are combinations of others
        yield ConstMat([[rand_sparse_entry(rng) if rng.random() < 0.6 else Fraction(0)
                         for _ in range(n)] for _ in range(rng.randint(1, 6))])


def test_nullspace_vectors_annihilate(monkeypatch, hh_system, hh_p1):
    """nullspace(m) is the dense rref's canonical kernel basis, vector for
    vector, and a basis of the kernel: on seeded matrices up to 6x6, and on
    every power that kernel_chains takes a kernel of in the Henon-Heiles
    pipeline to order 2, among them the 10x10 psi whose denominator has 285
    bits, and in the 12 systems of synth-chains seed 0."""
    from test_reduction import reduce_system_text, synth_texts

    met = []

    def recorded(m):
        met.append(m)
        return nullspace(m)

    monkeypatch.setattr(matrices, "nullspace", recorded)
    reduce_variational_tower(hh_system, 2, hh_p1)
    assert any(m.rows == 10 and m.den.bit_length() == 285 for m in met)
    for text in synth_texts(0, 12):
        reduce_system_text(text)
    assert len(met) >= 95
    rng = random.Random(205)
    for m in itertools.chain(nullspace_cases(rng), met):
        n = m.cols
        basis = nullspace(m)
        assert basis == dense_nullspace([list(r) for r in m.data], n)
        span = SpanQQ(n)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0
                       for row in m.data)
            assert span.add(list(v))
        # rank-nullity
        rspan = SpanQQ(n)
        for row in m.data:
            rspan.add(list(row))
        assert rspan.dim + len(basis) == n


def test_nullspace_checks_the_budget_before_each_row(monkeypatch):
    """A budget that runs out at its third check stops a 12x12 nullspace."""
    calls = []

    def third_call_raises():
        calls.append(1)
        if len(calls) == 3:
            raise ReductionTimeout("budget spent")

    monkeypatch.setattr(matrices, "check_deadline", third_call_raises)
    m = rand_const(random.Random(206), 12)
    assert len(m.num) == 12
    with pytest.raises(ReductionTimeout):
        nullspace(m)
    assert len(calls) == 3


def test_a_span_checks_the_budget_before_each_vector(monkeypatch):
    """A budget that runs out at its third check stops filling a span with
    five vectors, before the third one is reduced."""
    calls = []

    def third_call_raises():
        calls.append(1)
        if len(calls) == 3:
            raise ReductionTimeout("budget spent")

    monkeypatch.setattr(matrices, "check_deadline", third_call_raises)
    span = SpanQQ(5)
    with pytest.raises(ReductionTimeout):
        for i in range(5):
            span.add([Fraction(int(i == j)) for j in range(5)])
    assert len(calls) == 3
    assert span.dim == 2


def test_ratmat_inverse_and_det():
    rng = random.Random(206)
    done = 0
    while done < 25:
        a = rand_ratmat(rng, rng.randint(1, 3), deg=1)
        try:
            inv = a.inverse()
        except ValueError:
            assert det(a).is_zero
            continue
        n = a.rows
        ident = RatMat.identity(n)
        assert a * inv == ident
        assert inv * a == ident
        assert not det(a).is_zero
        done += 1


# pole factors of the product tests: x and x^2 + 1 as in Henon-Heiles,
# x - 3 and 2x + 5 as in the synth-chains systems
POLE_FACTORS = [Poly([0, 1]), Poly([1, 0, 1]), Poly([-3, 1]), Poly([5, 2])]


def pole_entry(rng, constant=False):
    """A random entry: zero, a constant, or (unless constant) a polynomial
    or a quotient with a product of powers of the pole factors below."""
    kind = rng.choice(("zero", "zero", "const") if constant
                      else ("zero", "zero", "const", "poly", "pole", "pole", "pole"))
    if kind == "zero":
        return RatFun.const(0)
    if kind == "const":
        return RatFun.const(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
    num = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))] + [Fraction(rng.randint(1, 5))])
    if kind == "poly":
        return RatFun(num)
    den = Poly([1])
    for q in rng.sample(POLE_FACTORS, rng.randint(1, 3)):
        den = den * q ** rng.randint(1, 3)
    return RatFun(num, den)


def pole_matrix(rng, rows, cols, constant=False):
    return RatMat([[pole_entry(rng, constant) for _ in range(cols)] for _ in range(rows)])


def product_cases(rng, count):
    """(a, b) pairs: mixed shapes down to 1x1, zero rows of a and zero
    columns of b, constant-only operands and all-zero ones."""
    for case in range(count):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        if case % 10 == 0:
            r = k = c = 1
        constant = case % 7 == 3
        a = pole_matrix(rng, r, k, constant)
        b = pole_matrix(rng, k, c, constant and case % 2 == 1)
        if case % 3 == 0:
            a.data[rng.randrange(r)] = [RatFun.const(0)] * k
        if case % 4 == 0:
            j = rng.randrange(c)
            for row in b.data:
                row[j] = RatFun.const(0)
        if case % 25 == 24:
            b = RatMat.zeros(k, c)
        yield a, b


def test_ratmat_product_matches_entrywise_oracle():
    rng = random.Random(1301)
    for a, b in product_cases(rng, 300):
        out = a * b
        assert (out.rows, out.cols) == (a.rows, b.cols)
        assert out == entrywise_mul(a, b)
    # a zero row of a stays zero even where b is dense, and back
    a = pole_matrix(rng, 3, 3)
    a.data[1] = [RatFun.const(0)] * 3
    b = RatMat([[RatFun(Poly([1, 1]), POLE_FACTORS[k]) for k in range(3)]] * 3)
    assert all(e.is_zero for e in (a * b).data[1])
    assert a * b == entrywise_mul(a, b)
    for shape_a, shape_b in (((2, 3), (2, 3)), ((1, 2), (1, 2)), ((3, 1), (2, 1))):
        with pytest.raises(ValueError, match="shape mismatch"):
            pole_matrix(rng, *shape_a) * pole_matrix(rng, *shape_b)


def test_ratmat_sum_and_difference_refuse_a_shape_mismatch():
    # zip would cut identity(3) + identity(2) down to a 2x2 sum
    for a, b in ((RatMat.identity(3), RatMat.identity(2)),
                 (RatMat.zeros(2, 3), RatMat.zeros(3, 2)),
                 (RatMat.zeros(2, 3), RatMat.zeros(2, 2))):
        with pytest.raises(ValueError, match="shape mismatch"):
            a + b
        with pytest.raises(ValueError, match="shape mismatch"):
            a - b


def test_apply_gauge_matches_entrywise_oracle():
    rng = random.Random(1302)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        p = pole_matrix(rng, n, n)
        try:
            gauge = GaugeMatrix.from_p(p)
        except ValueError:
            continue  # singular: draw again
        assert entrywise_mul(p, gauge.p_inv) == RatMat.identity(n)
        a = pole_matrix(rng, n, n)
        assert apply_gauge(a, gauge) == entrywise_gauge(a, gauge)
        done += 1


def test_charpoly_cayley_hamilton():
    rng = random.Random(208)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_const(rng, n)
        p = charpoly(a)
        acc = ConstMat.zeros(n, n)
        power = ConstMat.identity(n)
        for c in p.coeffs:
            acc = acc + power.scale(c)
            power = power * a
        assert acc.is_zero


def test_rational_eigenvalues_on_triangular():
    rng = random.Random(209)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [list(row) for row in rand_const(rng, n).data]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = Fraction(0)
        a = ConstMat(a)
        counts = {}
        for i in range(n):
            counts[a.data[i][i]] = counts.get(a.data[i][i], 0) + 1
        got = rational_eigenvalues(a)
        assert sorted(got) == sorted(counts.items())


def conjugated(rng, m):
    """g * m * g^-1 for a random invertible integer matrix g."""
    n = m.rows
    while True:
        g = [list(row) for row in rand_const(rng, n, lo=-2, hi=2).data]
        for i in range(n):
            g[i][i] = g[i][i] + Fraction(1 + (i % 2))
        g = ConstMat(g)
        lifted = RatMat([[RatFun(Poly([v]), Poly([1])) for v in row]
                         for row in g.data])
        if not det(lifted).is_zero:
            break
    return g * m * lifted.inverse().to_const()


def hidden_nilpotent_shapes(rng, count):
    """(sizes, m): shift blocks of the given sizes on the diagonal,
    conjugated to hide the basis."""
    for _ in range(count):
        sizes = sorted((rng.randint(1, 4)
                        for _ in range(rng.randint(1, 3))), reverse=True)
        n = sum(sizes)
        m = [[Fraction(0)] * n for _ in range(n)]
        pos = 0
        for s in sizes:
            for k in range(s - 1):
                m[pos + k + 1][pos + k] = Fraction(1)
            pos += s
        yield sizes, conjugated(rng, ConstMat(m))


def test_nilpotent_jordan_chains_random_block_shapes():
    """Chains rebuilt as psi-orbits must match the declared lengths and span
    everything; kernel elements close each chain."""
    for sizes, hidden in hidden_nilpotent_shapes(random.Random(210), 40):
        n = hidden.rows
        chains = nilpotent_jordan_chains(hidden)
        assert sorted(map(len, chains), reverse=True) == sizes
        span = SpanQQ(n)
        for chain in chains:
            assert len(chain) >= 1
            # chain starts at the kernel: psi(chain[0]) == 0
            head = hidden.apply(chain[0])
            assert all(v == 0 for v in head)
            for k in range(1, len(chain)):
                assert hidden.apply(chain[k]) == chain[k - 1]
            for v in chain:
                assert span.add(list(v))
        assert span.dim == n


def test_trace_test_reads_nilpotent_shapes_and_rational_eigenvalues():
    """tr(m) and tr(m^2) both vanish on every hidden nilpotent shape, and
    one of them does not on a hidden triangular matrix with a nonzero
    rational eigenvalue, whose tr(m^2) is the sum of the squared
    eigenvalues; in half of those the eigenvalues sum to 0, as those of an
    adjoint often do, so only tr(m^2) shows it."""
    for _, hidden in hidden_nilpotent_shapes(random.Random(210), 40):
        assert not trace_shows_not_nilpotent(hidden)
    rng = random.Random(1904)
    traceless = 0
    for k in range(40):
        n = rng.randint(2, 6)
        eig = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        if not eig[0]:
            eig[0] = Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
        if k % 2:
            eig[-1] = -sum(eig[:-1])
        traceless += not sum(eig)
        m = [[eig[i] if i == j else Fraction(rng.randint(-2, 2)) if j < i else Fraction(0)
              for j in range(n)] for i in range(n)]
        hidden = conjugated(rng, ConstMat(m))
        assert trace_shows_not_nilpotent(hidden)
        with pytest.raises(ValueError, match="stabilizes at"):
            nilpotent_jordan_chains(hidden)
    assert traceless >= 20


def test_nilpotent_jordan_chains_rejects_non_nilpotent():
    m = ConstMat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(ValueError, match="stabilizes at 1"):
        nilpotent_jordan_chains(m)
    # rank 2, then 1 for every higher power: e1 is fixed, e2 -> e3 -> 0
    m3 = ConstMat([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="stabilizes at 1"):
        nilpotent_jordan_chains(m3)


def test_ratmat_blocks_and_submatrix():
    a = RatMat.zeros(4, 4)
    b = RatMat([[parse_ratfun("1/x"), parse_ratfun("x")],
                [parse_ratfun("0"), parse_ratfun("2")]])
    a.set_block(2, 0, b)
    assert a.submatrix(2, 4, 0, 2) == b
    assert a.submatrix(0, 2, 0, 2).is_zero
    top, top_right, low, rest = a.cut(2)
    assert (low, rest) == (b, RatMat.zeros(2)) and top.is_zero and top_right.is_zero
    assert RatMat.join(top, None, low, rest) == a
    assert a.cut(4)[0] == a and RatMat.join(a, None, None, RatMat.zeros(0)) == a
    # the empty blocks of a cut at 0 or n keep the side they share with a
    assert [(m.rows, m.cols) for m in a.cut(0)] == [(0, 0), (0, 4), (4, 0), (4, 4)]
    assert [(m.rows, m.cols) for m in a.cut(4)] == [(4, 4), (4, 0), (0, 4), (0, 0)]
    assert RatMat.zeros(0, 3).cols == 3


def test_ratmat_cut_refuses_what_it_cannot_cut():
    # a slice would truncate silently; the cut refuses instead
    with pytest.raises(ValueError, match="cannot cut a 2x3 matrix"):
        RatMat.zeros(2, 3).cut(1)
    for d in (-1, 4):
        with pytest.raises(ValueError, match="cannot cut a 3x3 matrix at %d" % d):
            RatMat.identity(3).cut(d)
