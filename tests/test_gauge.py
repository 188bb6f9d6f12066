"""Gauge transformations, symmetric powers, and split-block identities."""

import random
from fractions import Fraction

import pytest

from varred.gauge import (
    BlockGauge,
    GaugeMatrix,
    apply_gauge,
    carries,
    exp_sub_nilpotent,
    sym_power_algebra,
    sym_power_group,
)
from varred.matrices import ConstMat, RatMat
from varred.poly import Poly
from varred.ratfun import RatFun, parse_ratfun

from dense_oracle import block_diag_gauge


def rand_ratfun(rng, deg=3):
    num = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])
    den = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg)]
               + [Fraction(1)])
    return RatFun(num, den)


def rand_ratmat(rng, n, deg=3):
    return RatMat([[rand_ratfun(rng, deg) for _ in range(n)]
                   for _ in range(n)])


def rand_gauge(rng, n, deg=1):
    """Random invertible rational gauge (resampled until nonsingular)."""
    while True:
        p = rand_ratmat(rng, n, deg)
        try:
            return GaugeMatrix.from_p(p)
        except ValueError:
            continue


def rand_sub_pair(rng, d1, d2):
    """Block-diagonal D and strictly-lower-left B for the (d1, d2) split."""
    n = d1 + d2
    d = RatMat.zeros(n, n)
    for i in range(d1):
        for j in range(d1):
            d.data[i][j] = rand_ratfun(rng, 1)
    for i in range(d1, n):
        for j in range(d1, n):
            d.data[i][j] = rand_ratfun(rng, 1)
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d1, n):
        for j in range(d1):
            b[i][j] = Fraction(rng.randint(-3, 3))
    return d, ConstMat(b)


def test_split_block_identities():
    """Products of strictly-lower-left blocks vanish; brackets with the
    block diagonal stay strictly lower; the sandwiched product B*D*B is
    zero.  200 random block matrices with total size up to 6."""
    rng = random.Random(401)
    for _ in range(200):
        d1 = rng.randint(1, 5)
        d2 = rng.randint(1, 6 - d1)
        dmat, b1 = rand_sub_pair(rng, d1, d2)
        _, b2 = rand_sub_pair(rng, d1, d2)
        n = d1 + d2
        assert (b1 * b2).is_zero and (b2 * b1).is_zero
        lifted = RatMat([[RatFun.const(v) for v in row] for row in b1.data])
        bracket = dmat * lifted - lifted * dmat
        for i in range(n):
            for j in range(n):
                if not (i >= d1 and j < d1):
                    assert bracket.data[i][j].is_zero
        sandwich = lifted * dmat * lifted
        assert sandwich.is_zero


def test_elimination_gauge_closed_form():
    """For P = Id + g*B with B strictly lower in a 2-block split and A
    block lower triangular, P[A] = A + g*[A, B] - g'*B."""
    rng = random.Random(402)
    for _ in range(60):
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        n = d1 + d2
        dmat, b = rand_sub_pair(rng, d1, d2)
        if b.is_zero:
            continue
        # block lower triangular A: diagonal blocks plus a random sub part
        a = dmat
        _, extra = rand_sub_pair(rng, d1, d2)
        a = a + RatMat([[RatFun.const(v) for v in row] for row in extra.data])
        g = rand_ratfun(rng, 2)
        gauge = exp_sub_nilpotent(g, b)
        lifted = RatMat([[RatFun.const(v) for v in row] for row in b.data])
        want = a + (a * lifted - lifted * a).scale(g) \
            - lifted.scale(g.derivative())
        assert apply_gauge(a, gauge) == want


def test_exp_sub_nilpotent_requires_square_zero():
    b = ConstMat([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        exp_sub_nilpotent(parse_ratfun("x"), b)


def test_gauge_composition_matches_sequential_application():
    """Q[P[A]] == (PQ)[A] on 100 random instances."""
    rng = random.Random(403)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = rand_ratmat(rng, n, 2)
        p = rand_gauge(rng, n)
        q = rand_gauge(rng, n)
        two_step = apply_gauge(apply_gauge(a, p), q)
        assert two_step == apply_gauge(a, GaugeMatrix(p.p * q.p, q.p_inv * p.p_inv))


def test_gauge_inverse_round_trip():
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = rand_ratmat(rng, n, 2)
        p = rand_gauge(rng, n)
        back = GaugeMatrix(p.p_inv, p.p)
        assert apply_gauge(apply_gauge(a, p), back) == a


def test_sym_power_group_is_multiplicative():
    """Sym2(PQ) == Sym2(P) * Sym2(Q) on 100 random instances."""
    rng = random.Random(405)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rand_ratmat(rng, n, 1)
        q = rand_ratmat(rng, n, 1)
        assert sym_power_group(p * q, 2) == \
            sym_power_group(p, 2) * sym_power_group(q, 2)


def test_sym_power_group_identity():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert sym_power_group(RatMat.identity(n), m) == \
                RatMat.identity(sym_power_group(RatMat.identity(n), m).rows)


def test_sym_power_algebra_is_group_derivative():
    """If P is invertible then sym(P'P^-1) * SymP == (SymP)', the defining
    compatibility between the group and algebra constructions."""
    rng = random.Random(406)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        p = rand_ratmat(rng, n, 1)
        try:
            p_inv = p.inverse()
        except ValueError:
            continue
        a = p.derivative() * p_inv
        sym_p = sym_power_group(p, m)
        assert sym_power_algebra(a, m) * sym_p == sym_p.derivative()


def test_sym_power_algebra_is_linear():
    rng = random.Random(407)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = rand_ratmat(rng, n, 1)
        b = rand_ratmat(rng, n, 1)
        assert sym_power_algebra(a + b, 2) == \
            sym_power_algebra(a, 2) + sym_power_algebra(b, 2)


def test_block_diag_gauge_acts_blockwise():
    rng = random.Random(408)
    for _ in range(20):
        n1 = rng.randint(1, 2)
        n2 = rng.randint(1, 2)
        p1 = rand_gauge(rng, n1)
        p2 = rand_gauge(rng, n2)
        a1 = rand_ratmat(rng, n1, 1)
        a2 = rand_ratmat(rng, n2, 1)
        big = RatMat.join(a1, None, None, a2)
        combined = apply_gauge(big, block_diag_gauge([p1, p2]))
        want = RatMat.join(apply_gauge(a1, p1), None, None, apply_gauge(a2, p2))
        assert combined == want


def sample_gauges(rng):
    """(a, gauge) pairs: unit-lower Id + g B with B strictly lower-left in a
    two-block split, and block-diagonal gauges of random blocks."""
    out = []
    while len(out) < 24:
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        dmat, b = rand_sub_pair(rng, d1, d2)
        if not b.is_zero:
            out.append((dmat, exp_sub_nilpotent(rand_ratfun(rng, 2), b)))
        blocks = [rand_gauge(rng, d1), rand_gauge(rng, d2)]
        out.append((rand_ratmat(rng, d1 + d2, 1), block_diag_gauge(blocks)))
    return out


def test_carries_agrees_with_apply_gauge():
    """carries(a, P, f) holds exactly when P[a] == f: for f = P[a], for
    P[a] with one entry changed, and for f = a."""
    rng = random.Random(409)
    for a, gauge in sample_gauges(rng):
        f = apply_gauge(a, gauge)
        changed = RatMat([list(row) for row in f.data])
        i, j = rng.randrange(f.rows), rng.randrange(f.cols)
        changed.data[i][j] = changed.data[i][j] + parse_ratfun("1/(x - 7)")
        assert carries(a, gauge.p, f)
        assert not carries(a, gauge.p, changed)
        assert carries(a, gauge.p, a) == (f == a)


def test_block_gauge_multiplies_out_to_its_factors():
    """p and p_inv are diag(T, R) (Id + S) and its inverse, and the block
    replay agrees with the whole one on block lower-triangular matrices,
    for f = P[a] and with one entry of f changed; None blocks are Id."""
    rng = random.Random(411)
    for k in range(24):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        n = d1 + d2
        top = rand_gauge(rng, d1) if k % 3 else None
        rest = rand_gauge(rng, d2) if k % 4 else None
        s = RatMat.zeros(n)
        for i in range(d1, n):
            for j in range(d1):
                s.data[i][j] = rand_ratfun(rng, 1)
        gauge = BlockGauge(d1, n, top, rest).then(BlockGauge(d1, n, low=s.cut(d1)[2]))
        eye = [GaugeMatrix(RatMat.identity(m), RatMat.identity(m)) for m in (d1, d2)]
        q = block_diag_gauge([top or eye[0], rest or eye[1]])
        assert gauge.p == q.p * (RatMat.identity(n) + s)
        assert gauge.p_inv == (RatMat.identity(n) - s) * q.p_inv
        assert gauge.p_inv * gauge.p == RatMat.identity(n)
        a = rand_ratmat(rng, n, 1)
        for i in range(d1):
            for j in range(d1, n):
                a.data[i][j] = parse_ratfun("0")
        f = apply_gauge(a, gauge)
        changed = RatMat([list(row) for row in f.data])
        i, j = rng.randrange(n), rng.randrange(n)
        changed.data[i][j] = changed.data[i][j] + parse_ratfun("1/(x - 7)")
        assert gauge.carries(a, f)
        assert not gauge.carries(a, changed)


def test_the_two_factor_replays_prove_the_composed_one():
    """P = Q (Id + S) for a random invertible Q, block-diagonal or, as at
    order 1, whole, and S in the lower-left block.  With A0 = Q[A] and
    F = (Id + S)[A0], Q carries A to A0, Id + S carries A0 to F and P
    carries A to F: A P - P' = (A Q - Q')(Id + S) - Q S' =
    Q (A0 (Id + S) - S') = P F.  With one entry of F changed, the Id + S
    replay and the composed one both fail."""
    rng = random.Random(412)
    for k in range(16):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        n = d1 + d2
        if k % 4:
            q = BlockGauge(d1, n, rand_gauge(rng, d1), rand_gauge(rng, d2))
        else:
            q = BlockGauge(n, n, rand_gauge(rng, n))
        sweep = BlockGauge(d1, n, low=RatMat([[rand_ratfun(rng, 1) for _ in range(d1)]
                                             for _ in range(d2)]))
        p = q.then(sweep)
        a0 = rand_ratmat(rng, n, 1)
        for i in range(d1):
            for j in range(d1, n):
                a0.data[i][j] = parse_ratfun("0")
        a = apply_gauge(a0, GaugeMatrix(q.p_inv, q.p))
        f = apply_gauge(a0, sweep)
        assert q.carries(a, a0)
        assert sweep.carries(a0, f)
        assert p.carries(a, f)
        assert apply_gauge(a, p) == f
        changed = RatMat([list(row) for row in f.data])
        i, j = rng.randrange(n), rng.randrange(n)
        changed.data[i][j] = changed.data[i][j] + parse_ratfun("1/(x - 7)")
        assert not sweep.carries(a0, changed)
        assert not p.carries(a, changed)


def test_the_zero_matrix_carries_every_matrix_to_every_other():
    # 0 A - 0' == 0 F for all A and F: carries proves P[A] == F only for
    # an invertible P, which is why the reduction establishes invertibility
    rng = random.Random(410)
    a, f = rand_ratmat(rng, 3, 2), rand_ratmat(rng, 3, 2)
    assert a != f
    assert carries(a, RatMat.zeros(3), f)
