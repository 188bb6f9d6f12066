"""Constant and rational matrices: elimination, spans, Jordan chains."""

import itertools
import random
from fractions import Fraction

import pytest

from varred.matrices import (
    ConstMat,
    RatMat,
    SpanQQ,
    charpoly,
    comm,
    coordinates_in_span,
    lincomb,
    nilpotent_jordan_chains,
    nullspace,
    rational_eigenvalues,
    rref,
)
from varred.poly import Poly
from varred.ratfun import RatFun, parse_ratfun


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
    m = ConstMat.zeros(n, n)
    for _ in range(max(1, round(density * n * n))):
        m.data[rng.randrange(n)][rng.randrange(n)] = rand_sparse_entry(rng)
    return m


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


def check_span(span, vecs):
    """The span's rank, echelon rows and row coordinates against rref."""
    assert span.dim == len(rref(vecs)[1])
    pivots = [p for p, _ in span.rows]
    assert pivots == sorted(pivots)
    for p, row in span.rows:
        assert p == min(i for i, c in row.items() if c)
    for v in vecs:
        coords = span.coords_in_rows(list(v))
        rebuilt = [Fraction(0)] * len(v)
        for c, (_, row) in zip(coords, span.rows):
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
        span = SpanQQ(n, track=True)
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


def test_nullspace_vectors_annihilate():
    rng = random.Random(205)
    for _ in range(60):
        n = rng.randint(2, 5)
        m = rand_const(rng, rng.randint(1, 5), n)
        basis = nullspace([list(r) for r in m.data], n)
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


def test_ratmat_inverse_and_det():
    rng = random.Random(206)
    done = 0
    while done < 25:
        a = rand_ratmat(rng, rng.randint(1, 3), deg=1)
        try:
            inv = a.inverse()
        except ValueError:
            assert a.det().is_zero
            continue
        n = a.rows
        ident = RatMat.identity(n)
        assert a * inv == ident
        assert inv * a == ident
        assert not a.det().is_zero
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
        a = rand_const(rng, n)
        for i in range(n):
            for j in range(i + 1, n):
                a.data[i][j] = Fraction(0)
        counts = {}
        for i in range(n):
            counts[a.data[i][i]] = counts.get(a.data[i][i], 0) + 1
        got = rational_eigenvalues(a)
        assert sorted(got) == sorted(counts.items())


def test_nilpotent_jordan_chains_random_block_shapes():
    """Chains rebuilt as psi-orbits must match the declared lengths and span
    everything; kernel elements close each chain."""
    rng = random.Random(210)
    for _ in range(40):
        sizes = sorted((rng.randint(1, 4)
                        for _ in range(rng.randint(1, 3))), reverse=True)
        n = sum(sizes)
        m = ConstMat.zeros(n, n)
        # shift blocks on the diagonal
        pos = 0
        for s in sizes:
            for k in range(s - 1):
                m.data[pos + k + 1][pos + k] = Fraction(1)
            pos += s
        # conjugate by a random invertible integer matrix to hide the basis
        while True:
            g = rand_const(rng, n, lo=-2, hi=2)
            for i in range(n):
                g.data[i][i] = g.data[i][i] + Fraction(1 + (i % 2))
            lifted = RatMat([[RatFun(Poly([v]), Poly([1])) for v in row]
                             for row in g.data])
            if not lifted.det().is_zero:
                break
        ginv = lifted.inverse().to_const()
        hidden = g * m * ginv
        chains = nilpotent_jordan_chains(hidden)
        assert sorted(chains.block_sizes, reverse=True) == sizes
        span = SpanQQ(n)
        for chain in chains.chains:
            assert len(chain) >= 1
            # chain starts at the kernel: psi(chain[0]) == 0
            head = hidden.apply(chain[0])
            assert all(v == 0 for v in head)
            for k in range(1, len(chain)):
                assert hidden.apply(chain[k]) == chain[k - 1]
            for v in chain:
                assert span.add(list(v))
        assert span.dim == n


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
