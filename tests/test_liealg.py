"""Wei-Norman decompositions, Lie closures, and block splitting."""

import random
from fractions import Fraction

import pytest

from varred.errors import PreconditionFailure
from varred.liealgebra import (
    DualFrame,
    LieBasis,
    lie_closure,
    split_diag_sub,
    wei_norman,
)
from varred.matrices import ConstMat, RatMat, SpanQQ, comm
from varred.poly import Poly
from varred.fileformats import parse_hamiltonian, parse_system
from varred.reduction import reduce_variational_tower
from varred.ratfun import RatFun, parse_ratfun

from dense_oracle import (
    FlatDualFrame,
    breadth_first_basis,
    breadth_first_closure,
    dense_nullspace,
    rref,
    two_pass_wei_norman,
)


def rand_const(rng, n, m=None, lo=-3, hi=3):
    m = n if m is None else m
    return ConstMat([[Fraction(rng.randint(lo, hi)) for _ in range(m)]
                     for _ in range(n)])


def rand_ratfun(rng, deg=2):
    num = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)])
    den = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg)]
               + [Fraction(1)])
    return RatFun(num, den)


def brute_closure_dim(gens):
    """Reference Lie closure: keep bracketing every pair until stable.

    Independent of the span and bracket kernel under test: brackets are the
    dense products a*b - b*a, and a matrix is new when it raises the rref
    rank of the flattened basis.
    """
    basis = []
    echelon = []  # rref rows of the flattened basis

    def enlarges(m):
        nonlocal echelon
        if m.is_zero:
            return False
        red, pivots = rref(echelon + [m.flatten()])
        if len(pivots) == len(basis):
            return False
        echelon = red[:len(pivots)]
        return True

    for g in gens:
        if enlarges(g):
            basis.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                b = basis[i] * basis[j] - basis[j] * basis[i]
                if enlarges(b):
                    basis.append(b)
                    changed = True
    return len(basis)


def test_wei_norman_recombines_to_input():
    rng = random.Random(301)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = RatMat([[rand_ratfun(rng) for _ in range(n)] for _ in range(n)])
        wn = wei_norman(a)
        assert wn.recombine() == a


def test_wei_norman_coefficients_are_independent():
    """Decomposing a recombination of the terms never changes the count."""
    rng = random.Random(302)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = RatMat([[rand_ratfun(rng) for _ in range(n)] for _ in range(n)])
        wn = wei_norman(a)
        again = wei_norman(wn.recombine())
        assert again.dim == wn.dim


def test_wei_norman_known_split():
    a = RatMat([[parse_ratfun("1/x"), parse_ratfun("1/x + x")],
                [parse_ratfun("0"), parse_ratfun("x")]])
    wn = wei_norman(a)
    assert wn.dim == 2
    assert wn.recombine() == a
    # terms come in order of acceptance: the entry x (pivot 1) is read
    # before x + 1 (pivot 0), so ordering terms by pivot would swap them
    a = RatMat([[parse_ratfun("x"), parse_ratfun("x + 1")],
                [parse_ratfun("1"), parse_ratfun("0")]])
    wn = wei_norman(a)
    assert wn.functions() == [parse_ratfun("x"), parse_ratfun("1")]
    assert wn.matrices() == [ConstMat([[1, 1], [0, 0]]),
                             ConstMat([[0, 1], [1, 0]])]


def test_wei_norman_zero_matrix():
    assert wei_norman(RatMat.zeros(3, 3)).dim == 0


def test_one_pass_wei_norman_matches_the_two_pass_reference(lve3_run):
    """wei_norman, which takes each entry's coordinates from the reduction
    that adds it, gives the functions and matrices, in order, of adding
    every numerator first and writing each entry over the finished rows
    after: on LVE^1 to LVE^3, the 12 systems of synth-chains seed 0 and 20
    seeded random rational matrices."""
    from test_linalg import rand_ratmat
    from test_reduction import synth_texts

    mats = [rep.system.matrix for rep in lve3_run[0]]
    assert [m.rows for m in mats] == [4, 14, 34]
    mats += [parse_system(text).matrix for text in synth_texts(0, 12)]
    rng = random.Random(304)
    mats += [rand_ratmat(rng, rng.randint(1, 5), rng.randint(1, 3)) for _ in range(20)]
    for a in mats:
        wn = wei_norman(a)
        assert (wn.funcs, wn.mats) == two_pass_wei_norman(a)
    assert two_pass_wei_norman(RatMat.zeros(2, 2)) == ([], [])


def test_lie_closure_matches_brute_force():
    """50 random generator pairs, closure dimension against the naive
    fixed-point reference."""
    rng = random.Random(303)
    for _ in range(50):
        n = rng.randint(2, 3)
        gens = [rand_const(rng, n, lo=-2, hi=2) for _ in range(2)]
        if all(g.is_zero for g in gens):
            continue
        lie = lie_closure(gens)
        assert lie.dim == brute_closure_dim([g for g in gens
                                             if not g.is_zero])


def oracle_generator_sets(rng):
    """Seeded generator sets: pairs of random 2x2 and 3x3 matrices, three or
    four random ones of size 2 or 3, and sets whose first two generators
    commute (a random g and g*g + c*g, or two diagonal matrices) followed
    by up to two random matrices.  The last set's smallest noncommuting
    pair in (i, j) order, (0, 3), is not the smallest in (j, i) order."""
    sets = []
    for _ in range(20):
        n = rng.randint(2, 3)
        sets.append([rand_const(rng, n, lo=-2, hi=2) for _ in range(2)])
    for _ in range(6):
        n = rng.randint(2, 3)
        sets.append([rand_const(rng, n, lo=-1, hi=1) for _ in range(rng.randint(3, 4))])
    for k in range(14):
        n = rng.randint(2, 3)
        if k % 2:
            g = rand_const(rng, n, lo=-2, hi=2)
            pair = [g, g * g + g.scale(rng.randint(-2, 2))]
        else:
            pair = [ConstMat([[Fraction(rng.randint(-2, 2)) if i == j else Fraction(0)
                               for j in range(n)] for i in range(n)]) for _ in range(2)]
        assert comm(*pair).is_zero
        sets.append(pair + [rand_const(rng, n, lo=-1, hi=1) for _ in range(rng.randint(0, 2))])
    sets.append([unit(4, 3, 3), unit(4, 0, 1), unit(4, 1, 0), unit(4, 0, 3)])
    return [gens for gens in sets if not all(g.is_zero for g in gens)]


def test_lie_closure_matches_the_all_pairs_oracle():
    """The closure that brackets with the generators only spans what the
    all-pairs, breadth-first oracle spans; adjoint(i) equals the oracle's
    table on the closure's own basis, and the first noncommuting pair is
    the smallest nonzero entry of that table, None exactly when it is
    abelian."""
    for gens in oracle_generator_sets(random.Random(304)):
        lie = lie_closure(gens)
        basis = breadth_first_basis(gens)
        assert lie.dim == len(basis)
        assert len(rref([m.flatten() for m in basis + lie.mats])[1]) == len(basis)
        same, table = breadth_first_closure(lie.mats)
        assert same == lie.mats
        for i in range(lie.dim):
            others = [k for k in range(lie.dim) if k != i]
            cols = [table[(i, k)] if i < k else [-c for c in table[(k, i)]] for k in others]
            want = None
            if not any(c[i] for c in cols):
                want = (others, ConstMat([[c[o] for c in cols] for o in others]))
            assert lie.adjoint(i) == want
        nonzero = sorted(key for key, c in table.items() if any(c))
        pair = lie.first_noncommuting_pair()
        assert pair == (nonzero[0] if nonzero else None)
        assert lie.is_abelian() == (not nonzero)
        if pair is not None:
            assert not comm(lie.mats[pair[0]], lie.mats[pair[1]]).is_zero


def test_monogenous_two_block_closures_keep_the_all_pairs_order():
    """On block lower-triangular generators whose diagonal parts are
    multiples of one d0, brackets of two non-generators vanish, so the
    closure gives the oracle's basis in the oracle's order."""
    rng = random.Random(305)
    for _ in range(40):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        n = d1 + d2
        d0 = rand_const(rng, n, lo=-2, hi=2)
        d0 = ConstMat([[d0.data[i][j] if (i < d1) == (j < d1) else Fraction(0)
                        for j in range(n)] for i in range(n)])
        gens = []
        for _ in range(rng.randint(1, 4)):
            low = rand_const(rng, n, lo=-2, hi=2)
            low = ConstMat([[low.data[i][j] if i >= d1 > j else Fraction(0)
                             for j in range(n)] for i in range(n)])
            gens.append(low + d0.scale(rng.choice([0, 1, 2, -1])))
        rng.shuffle(gens)
        lie = lie_closure(gens)
        assert lie.mats == breadth_first_basis(gens)


def test_lie_closure_abelian_detection():
    e1 = ConstMat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    e2 = ConstMat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    lie = lie_closure([e1, e2])
    assert lie.dim == 2
    assert lie.is_abelian()
    assert lie.first_noncommuting_pair() is None


def test_lie_closure_empty():
    assert lie_closure([]).dim == 0


def test_working_space_psi_columns_are_bracket_coordinates():
    # the ad(d0)-closure of lower-left seeds is lie_closure([d0] + seeds)
    # without d0, since lower-left matrices commute; adjoint(0) is psi
    rng = random.Random(306)
    krylov_rng = random.Random(3060)
    for _ in range(30):
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        n = d1 + d2
        # block-diagonal generator and the full strictly-lower block space
        d0 = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(d1):
            for j in range(d1, n):
                d0[i][j] = Fraction(0)
        for i in range(d1, n):
            for j in range(d1):
                d0[i][j] = Fraction(0)
        d0 = ConstMat(d0)
        units = [unit(n, i, j) for i in range(d1, n) for j in range(d1)]
        # one random lower-left seed: the span grows by brackets with d0
        seed = ConstMat.zeros(n, n)
        for e in units:
            seed = seed + e.scale(krylov_rng.randint(-2, 2))
        for sub_basis in (units, [seed]):
            work = lie_closure([d0] + sub_basis)
            assert work.mats[0] == d0
            others, psi = work.adjoint(0)
            basis = [work.mats[k] for k in others]
            if sub_basis is units:
                assert basis == units
            assert psi.rows == psi.cols == len(basis)
            for j, b in enumerate(basis):
                got = ConstMat.zeros(n, n)
                for i in range(len(basis)):
                    if psi.data[i][j]:
                        got = got + basis[i].scale(psi.data[i][j])
                assert got == comm(d0, b)


def unit(n, i, j):
    e = [[Fraction(0)] * n for _ in range(n)]
    e[i][j] = Fraction(1)
    return ConstMat(e)


def test_adjoint_negates_the_entries_of_later_elements():
    # Heisenberg: [x, y] = z, so ad(y) sends x to -z, read off (0, 1)
    x, y = unit(3, 0, 1), unit(3, 1, 2)
    lie = lie_closure([x, y])
    assert lie.mats[2] == unit(3, 0, 2)
    others, ad_x = lie.adjoint(0)
    assert others == [1, 2]
    assert ad_x == ConstMat([[0, 0], [1, 0]])
    others, ad_y = lie.adjoint(1)
    assert others == [0, 2]
    assert ad_y == ConstMat([[0, 0], [-1, 0]])
    # [a, b] = b with b listed first: the (0, 1) entry holds [b, a] = -b
    a, b = unit(2, 0, 0), unit(2, 0, 1)
    others, ad_a = lie_closure([b, a]).adjoint(1)
    assert others == [0]
    assert ad_a == ConstMat([[1]])


def test_adjoint_is_none_when_a_bracket_leaves_a_component_along_the_element():
    # [a, b] = b: ad(b) sends a to -b, a component along b itself
    a, b = unit(2, 0, 0), unit(2, 0, 1)
    lie = lie_closure([a, b])
    assert lie.dim == 2 and breadth_first_closure([a, b])[1] == {(0, 1): [0, 1]}
    assert lie.adjoint(1) is None
    assert lie.adjoint(0)[1] == ConstMat([[1]])


def test_split_diag_sub_dimension_identity():
    """dim(span) = dim(diagonal projections) + dim(span intersect sub)."""
    rng = random.Random(305)
    for _ in range(40):
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        n = d1 + d2
        mats = []
        for _ in range(rng.randint(1, 5)):
            m = [list(row) for row in rand_const(rng, n).data]
            for i in range(d1):
                for j in range(d1, n):
                    m[i][j] = Fraction(0)
            mats.append(ConstMat(m))
        span = SpanQQ(n * n)
        indep = [m for m in mats if span.add(m.flatten())]
        if not indep:
            continue
        diag_basis, sub_basis = split_diag_sub(indep, d1)
        assert len(diag_basis) + len(sub_basis) == len(indep)
        for s in sub_basis:
            # strictly sub-diagonal: zero outside the lower-left block
            for i in range(n):
                for j in range(n):
                    inside = i >= d1 and j < d1
                    assert inside or s.data[i][j] == 0
        for m in indep:
            check = SpanQQ(n * n)
            for b in diag_basis:
                check.add(b.flatten())
            # the diagonal projection of every input lies in the span
            proj = [[Fraction(0)] * n for _ in range(n)]
            for i in range(d1):
                proj[i][:d1] = m.data[i][:d1]
            for i in range(d1, n):
                proj[i][d1:] = m.data[i][d1:]
            proj = ConstMat(proj)
            assert not check.add(proj.flatten()) or proj.is_zero


def dense_split_diag_sub(mats, d1):
    """The dense-kernel construction split_diag_sub replaced.

    diag_basis holds the diagonal projections that raise the rref rank, in
    input order; sub_basis holds one combination of the inputs per vector
    of the rref kernel of the projections, one equation per entry.
    """
    n = mats[0].rows
    projs = [[m.data[i][j] if (i < d1) == (j < d1) else Fraction(0)
              for i in range(n) for j in range(n)] for m in mats]
    diag_basis, rank = [], 0
    for k, p in enumerate(projs):
        if len(rref(projs[:k + 1])[1]) > rank:
            diag_basis.append(ConstMat([p[i * n:(i + 1) * n] for i in range(n)]))
            rank += 1
    kernel = dense_nullspace([list(entry) for entry in zip(*projs)], len(mats))
    sub_basis = [ConstMat([[sum(c * m.data[i][j] for c, m in zip(v, mats))
                            for j in range(n)] for i in range(n)]) for v in kernel]
    return diag_basis, sub_basis


def rand_block_part(rng, n, d1, diagonal):
    """Random entries with mixed denominators on the two diagonal blocks
    (diagonal=True) or on the strictly sub-diagonal block, zero elsewhere."""
    def inside(i, j):
        return (i < d1) == (j < d1) if diagonal else i >= d1 > j

    return ConstMat([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if inside(i, j)
                      else Fraction(0) for j in range(n)] for i in range(n)])


def test_split_diag_sub_matches_dense_kernel():
    """Block lower-triangular inputs built from fewer diagonal parts than
    inputs, so their diagonal projections are dependent: split_diag_sub
    gives the dense construction's bases, matrix for matrix."""
    rng = random.Random(306)
    n_sub = 0
    for _ in range(40):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        n = d1 + d2
        diag_parts = [rand_block_part(rng, n, d1, True) for _ in range(rng.randint(1, 3))]
        mats, rank = [], 0
        for _ in range(rng.randint(2, 6)):
            m = rand_block_part(rng, n, d1, False)
            for d in diag_parts:
                m = m + d.scale(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            if len(rref([x.flatten() for x in mats + [m]])[1]) > rank:
                mats.append(m)  # the inputs stay independent
                rank += 1
        got = split_diag_sub(mats, d1)
        assert got == dense_split_diag_sub(mats, d1)
        n_sub += len(got[1])
    assert n_sub > 20


def test_split_diag_sub_rejects_upper_entries():
    m = ConstMat([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    with pytest.raises(PreconditionFailure):
        split_diag_sub([m], 1)


def lifted_combination(funcs, basis):
    """The rational matrix sum funcs[k] * basis[k], built entry by entry."""
    n = basis[0].rows
    a = RatMat.zeros(n, n)
    for f, b in zip(funcs, basis):
        lifted = RatMat([[RatFun(Poly([v]), Poly([1])) for v in row]
                         for row in b.data])
        a = a + lifted.scale(f)
    return a


def span_basis(mats):
    """Independent matrices as a LieBasis: a DualFrame reads lie.mats and
    lie.span only, so the span need not be closed under brackets."""
    span = SpanQQ(mats[0].rows * mats[0].cols)
    assert all(span.add(m) for m in mats)
    return LieBasis(list(mats), len(mats), span)


def random_frame_args(rng, n, k):
    """(lie, lead, vectors): k independent random n x n matrices, a random
    lead or None, and random independent vectors over the other elements,
    as many as there are."""
    mats, span = [], SpanQQ(n * n)
    while len(mats) < k:
        m = rand_const(rng, n)
        if span.add(m):
            mats.append(m)
    lead = rng.choice([None] + list(range(k)))
    size = k - (lead is not None)
    vectors, span = [], SpanQQ(size)
    while len(vectors) < size:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        if span.add(v):
            vectors.append(v)
    return span_basis(mats), lead, vectors


def test_dual_frame_reads_back_random_combinations():
    """Random combinations read back exactly, also with Q-dependent
    coefficient functions (f, 2f, f+g: Wei-Norman then has fewer terms than
    the basis) and for the zero matrix."""
    rng = random.Random(307)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        frame = DualFrame(*random_frame_args(rng, n, k))
        basis = frame.basis
        assert len(basis) == k
        funcs = [rand_ratfun(rng) for _ in range(k)]
        assert frame.coords(wei_norman(lifted_combination(funcs, basis))) == funcs
        f = funcs[0]
        dependent = [f, f.scale(2), f + rand_ratfun(rng)][:k]
        a = lifted_combination(dependent, basis)
        if k > 1:
            assert wei_norman(a).dim < k
        assert frame.coords(wei_norman(a)) == dependent
        assert frame.coords(wei_norman(RatMat.zeros(n, n))) == [RatFun.const(0)] * k


def test_dual_frame_rejects_outside_matrices():
    e11 = ConstMat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    frame = DualFrame(lie_closure([e11]), 0, [])
    assert frame.basis == [e11]
    outside = RatMat([[parse_ratfun("0"), parse_ratfun("1")],
                      [parse_ratfun("0"), parse_ratfun("0")]])
    with pytest.raises(ValueError):
        frame.coords(wei_norman(outside))
    # a 4x1 matrix with the entries of 1/x * e11 flattened
    column = RatMat([[parse_ratfun("1/x")], [parse_ratfun("0")],
                     [parse_ratfun("0")], [parse_ratfun("0")]])
    with pytest.raises(ValueError, match="shape"):
        frame.coords(wei_norman(column))
    # an inside combination f*E21 + h*E31 plus g*E32: of the three
    # Wei-Norman terms (E21, E31, E32) only the last leaves the span
    def unit(i, j):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        m[i][j] = Fraction(1)
        return ConstMat(m)

    lie = lie_closure([unit(1, 0), unit(2, 0)])
    frame = DualFrame(lie, None, [[1, 0], [0, 1]])
    assert frame.basis == [unit(1, 0), unit(2, 0)]
    f, h, g = parse_ratfun("1/x"), parse_ratfun("x"), parse_ratfun("1/(x + 1)")
    inside = lifted_combination([f, h], frame.basis)
    assert frame.coords(wei_norman(inside)) == [f, h]
    a = inside + lifted_combination([g], [unit(2, 1)])
    assert wei_norman(a).matrices() == [unit(1, 0), unit(2, 0), unit(2, 1)]
    with pytest.raises(ValueError, match="outside"):
        frame.coords(wei_norman(a))
    # inside the closure's span but outside the frame, which holds E21 + E31
    frame = DualFrame(lie, None, [[1, 1]])
    assert frame.coords(wei_norman(lifted_combination([f, f], [unit(1, 0), unit(2, 0)]))) == [f]
    with pytest.raises(ValueError, match="outside"):
        frame.coords(wei_norman(inside))
    with pytest.raises(ValueError, match="dependent"):
        DualFrame(lie, None, [[1, 1], [2, 2]])


def outcome(run):
    """run(), or ValueError when it raises one."""
    try:
        return run()
    except ValueError:
        return ValueError


def test_dual_frame_matches_the_flattened_reference_on_random_frames():
    """40 seeded frames, over all the other elements, over one fewer and
    with one dependent vector more: DualFrame's basis and coordinates equal
    FlatDualFrame's entry by entry, and both raise ValueError on dependent
    vectors, on a matrix outside the closure's span, on a closure element
    the frame misses and on a shape mismatch."""
    rng = random.Random(309)
    seen = set()
    for trial in range(40):
        n = rng.randint(2, 3)
        lie, lead, vectors = random_frame_args(rng, n, rng.randint(2, 3))
        kind = ("full", "short", "dependent")[trial % 3]
        if kind == "short":
            vectors = vectors[:-1]
        elif kind == "dependent":
            vectors = vectors + [[a - 2 * b for a, b in zip(vectors[0], vectors[-1])]]
        frame = outcome(lambda: DualFrame(lie, lead, vectors))
        ref = outcome(lambda: FlatDualFrame(lie, lead, vectors))
        if frame is ValueError or ref is ValueError:
            assert frame is ref is ValueError
            seen.add(kind)
            continue
        assert frame.basis == ref.basis
        funcs = [rand_ratfun(rng) for _ in frame.basis]
        tests = [lifted_combination(funcs, frame.basis), RatMat.zeros(n, n + 1)]
        tests += [lifted_combination([rand_ratfun(rng)], [m]) for m in lie.mats]
        while True:
            m = rand_const(rng, n)
            if lie.span.coords_in_added(m) is None:
                break
        tests.append(lifted_combination(funcs[:1] + [rand_ratfun(rng)], frame.basis[:1] + [m]))
        for a in tests:
            wn = wei_norman(a)
            got = outcome(lambda: frame.coords(wn))
            assert got == outcome(lambda: ref.coords(wn))
            seen.add((kind, got is ValueError))
        assert frame.coords(wei_norman(tests[0])) == funcs
    assert {"dependent", ("full", False), ("full", True), ("short", True)} <= seen


def test_dual_frame_matches_the_flattened_reference_in_the_pipeline(monkeypatch, hh_system, hh_p1):
    """Every frame the pipeline builds on LVE^1 to LVE^3, on the 12 systems
    of synth-chains seed 0 and on the separable orders 1 to 4 has the basis
    of FlatDualFrame, and every matrix it reads gets FlatDualFrame's
    coordinates."""
    from test_reduction import reduce_system_text, synth_texts
    from test_separable import separable_hamiltonian_text, separable_p1

    made, read = [], []
    init, coords = DualFrame.__init__, DualFrame.coords

    def recorded_init(self, lie, lead, vectors):
        init(self, lie, lead, vectors)
        made.append((self, FlatDualFrame(lie, lead, vectors)))

    def recorded_coords(self, wn):
        read.append((self, wn))
        return coords(self, wn)

    monkeypatch.setattr(DualFrame, "__init__", recorded_init)
    monkeypatch.setattr(DualFrame, "coords", recorded_coords)
    reduce_variational_tower(hh_system, 3, hh_p1)
    for text in synth_texts(0, 12):
        reduce_system_text(text)
    separable = parse_hamiltonian(separable_hamiltonian_text()).build_system()
    reduce_variational_tower(separable, 4, separable_p1())
    monkeypatch.undo()
    refs = {}
    for frame, ref in made:
        assert frame.basis == ref.basis
        refs[id(frame)] = ref
    for frame, wn in read:
        assert frame.coords(wn) == refs[id(frame)].coords(wn)
    sizes = {frame.basis[0].rows for frame, _ in made}
    assert {4, 14, 34, 69} <= sizes and len(read) > 20
