"""Reduction pipeline: elimination steps, certificates, towers, and the
bundled example run at orders 1 to 3."""

import hashlib
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from varred import fixtures, liealgebra, poly, reduction
from varred.errors import (
    PreconditionFailure,
    ReductionTimeout,
    UnsupportedRegime,
    check_deadline,
    time_budget,
)
from varred.expr import poly_to_text
from varred.fileformats import parse_hamiltonian, parse_report, parse_system, render_report
from varred.gauge import (
    BlockGauge,
    GaugeMatrix,
    apply_gauge,
    sym_power_algebra,
    sym_power_group,
)
from varred.liealgebra import (
    DualFrame,
    diag_projection,
    lie_closure,
    split_diag_sub,
    wei_norman,
)
from varred.matrices import ConstMat, RatMat, SpanQQ, charpoly, comm, nilpotent_jordan_chains
from varred.poly import Poly
from varred.ratfun import RatFun, hermite_split, parse_ratfun
from varred.reduction import (
    _adjoint_chains,
    detect_obstruction,
    picard_vessiot_tower,
    reduce_block_systems,
    reduce_diagonal,
    reduce_subdiagonal,
    remove_generator,
)
from varred.varequations import BlockSystem

from dense_oracle import (
    all_seed_working_basis,
    block_diag_gauge,
    breadth_first_basis,
    coordinates_in_span,
    eigen_chains_by_restriction,
    lower_left,
    span_dim,
)
from test_linalg import conjugated


def rf(text):
    return parse_ratfun(text)


def rand_ratfun(rng, deg=3):
    num = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)])
    den = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg)]
               + [Fraction(1)])
    return RatFun(num, den)


E21 = ConstMat([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])


def lower_system(beta0, d_top, d_bot, coeff):
    """2x2 matrix beta0*diag(d_top, d_bot) + coeff*E21, block sizes (1, 1)."""
    zero = rf("0")
    return RatMat([
        [beta0.scale(d_top), zero],
        [coeff, beta0.scale(d_bot)],
    ])


def step_kinds(report):
    kinds = {}
    for st in report.steps:
        kinds[st.kind] = kinds.get(st.kind, 0) + 1
    return kinds


def tower_of(mat):
    """The integral tower of a matrix, read from its Wei-Norman decomposition
    and the closure of its matrices as reduce_subdiagonal hands them over."""
    wn = wei_norman(mat)
    return picard_vessiot_tower(wn, lie_closure(wn.matrices()))


# ---- single elimination gauges --------------------------------------------------


def test_elimination_removes_pure_derivative_coefficients():
    # A coefficient that is an exact derivative must vanish completely and
    # the elimination must leave the diagonal blocks alone.
    rng = random.Random(401)
    frame = DualFrame(lie_closure([E21]), None, [[1]])
    one = Fraction(1)
    for _ in range(50):
        while True:
            q = rand_ratfun(rng)
            if not q.derivative().is_zero:
                break
        coeff = q.derivative()
        beta0 = rand_ratfun(rng, deg=2)
        a = lower_system(beta0, one, one, coeff)
        a2, step, coords = remove_generator(a, 1, beta0, frame, 0)
        assert step.kind == "chain-removal"
        assert step.gauge is not None
        assert a2.data[1][0].is_zero
        assert coords[0].is_zero
        assert a2.data[0][0] == a.data[0][0]
        assert a2.data[1][1] == a.data[1][1]
        assert a2.data[0][1].is_zero
        # replaying the recorded gauge reproduces the new matrix
        assert apply_gauge(a, step.gauge) == a2


def test_elimination_leaves_exactly_the_hermite_residue():
    # For a general coefficient the surviving part is the simple-pole piece
    # of its Hermite split, nothing more and nothing less.
    rng = random.Random(402)
    frame = DualFrame(lie_closure([E21]), None, [[1]])
    one = Fraction(1)
    for _ in range(50):
        coeff = rand_ratfun(rng)
        if coeff.is_zero:
            continue
        beta0 = rand_ratfun(rng, deg=2)
        a = lower_system(beta0, one, one, coeff)
        a2, step, coords = remove_generator(a, 1, beta0, frame, 0)
        expected = hermite_split(coeff).l
        assert a2.data[1][0] == expected
        assert coords[0] == expected
        assert a2.data[0][0] == a.data[0][0]
        assert a2.data[1][1] == a.data[1][1]
        if expected.is_zero:
            assert step.kind == "chain-removal"
            assert step.residual_l is None
        else:
            assert step.kind == "hermite-partial"
            assert step.residual_l == expected


def test_elimination_nonzero_eigenvalue_solved():
    # With eigenvalue 1 on beta0 = 5/(3x) the homogeneous equation has no
    # rational solution, so the solver's answer is unique: the coefficient
    # x/3 = (x^2)' - (5/(3x))*x^2 must come back as g = x^2.
    beta0 = rf("5/(3*x)")
    coeff = rf("x/3")
    a = lower_system(beta0, Fraction(0), Fraction(1), coeff)
    frame = DualFrame(lie_closure([E21]), None, [[1]])
    a2, step, coords = remove_generator(a, 1, beta0, frame, 0,
                                        lam=Fraction(1))
    assert step.kind == "chain-removal"
    assert step.solved_g == rf("x^2")
    assert a2.data[1][0].is_zero
    assert coords[0].is_zero


def test_elimination_nonzero_eigenvalue_unresolved():
    # g' = g/x + 1 has no rational solution, so the generator is retained
    # and the matrix is returned unchanged.
    beta0 = rf("1/x")
    coeff = rf("1")
    a = lower_system(beta0, Fraction(0), Fraction(1), coeff)
    frame = DualFrame(lie_closure([E21]), None, [[1]])
    a2, step, coords = remove_generator(a, 1, beta0, frame, 0,
                                        lam=Fraction(1))
    assert step.kind == "unresolved"
    assert step.gauge is None
    assert "no rational solution" in step.note_text()
    assert a2 == a
    assert coords[0] == coeff


def test_elimination_skips_zero_coefficients():
    beta0 = rf("1/x")
    a = lower_system(beta0, Fraction(1), Fraction(1), rf("0"))
    frame = DualFrame(lie_closure([E21]), None, [[1]])
    a2, step, coords = remove_generator(a, 1, beta0, frame, 0)
    assert a2 == a
    assert step.kind == "chain-removal"
    assert step.gauge is None


# ---- the chain sweep against one gauge at a time ---------------------------------


def two_block_system(rng, solvable):
    """A hidden two-block system beta0*diag(T1, T2) + S(x), blocks (2, 3).

    T1 = J2(0) and T2 = diag(J2(0), mu), so ad(d0) has a nilpotent chain of
    length 3 and one of length 1 on the rows of J2(0), and a chain of length
    2 with eigenvalue mu on the last row.  beta0 = k/x with k*mu not an
    integer, so g' = mu*beta0*g + c has at most one rational solution.  The
    lam = 0 rows keep simple-pole residues; the last row keeps nothing
    (solvable) or a pole at -1 that no rational g removes.  A random gauge
    Id + H with H in the lower-left block hides it all.
    """
    mu = Fraction(rng.choice([1, -1, 2]))
    k = Fraction(rng.choice([1, 2, 4, 5]), 3)
    beta0 = RatFun(Poly([k]), Poly([Fraction(0), Fraction(1)]))
    n, d1 = 5, 2
    a = RatMat.zeros(n, n)
    a.data[1][0] = a.data[3][2] = beta0
    a.data[4][4] = beta0.scale(mu)
    residues = {(2, 0): rf("1/x"), (2, 1): rf("2/(x^2 + 1)"), (3, 1): rf("-1/(x - 1)")}
    for (i, j), l in residues.items():
        if rng.random() < 0.6:
            a.data[i][j] = l.scale(Fraction(rng.randint(1, 3)))
    if not solvable:
        a.data[4][rng.randint(0, 1)] = rf("1/(x + 1)")
    h = RatMat.zeros(n, n)
    for i in range(d1, n):
        for j in range(d1):
            num = Poly([Fraction(rng.randint(-3, 3)) for _ in range(3)])
            den = Poly([Fraction(rng.randint(1, 3)), Fraction(1)])
            h.data[i][j] = RatFun(num, den)
    eye = RatMat.identity(n)
    assert (eye + h) * (eye - h) == eye  # h*h = 0: h is strictly subdiagonal
    return apply_gauge(a, GaugeMatrix(eye + h, eye - h)), d1


def unit_lower_gauge(rng, n):
    """Id plus random degree-1 polynomials strictly below the diagonal."""
    p = RatMat.identity(n)
    for i in range(n):
        for j in range(i):
            p.data[i][j] = RatFun(Poly([Fraction(rng.randint(-2, 2)) for _ in range(2)]))
    return GaugeMatrix.from_p(p)


def working_seed(algebra, d0, d1):
    """lead - d0, with lead the first element of the initial algebra that
    has a diagonal part: the seed reduce_subdiagonal gives _adjoint_chains."""
    lead = next(m for m in algebra if not diag_projection(m, d1).is_zero)
    return lead - d0


def one_gauge_at_a_time(a0, d1, q):
    """Reference elimination: remove_generator position by position, top
    down along each chain of the frame the sweep uses, composing every
    gauge it applies after q.  Returns (final matrix, steps with their
    eigenvalue, total gauge, chain shapes)."""
    lie = lie_closure(wei_norman(a0).matrices())
    diag, sub, _ = split_diag_sub(lie.mats, d1)
    frame, chains = _adjoint_chains(diag[0], working_seed(lie.mats, diag[0], d1), sub)
    beta0 = frame.coords(wei_norman(a0))[0]
    a, coords, steps = a0, None, []
    total = q
    start = 1  # frame.basis[0] is d0
    for lam, mats in chains:
        for s in range(len(mats) - 1, -1, -1):
            a, st, coords = remove_generator(a, d1, beta0, frame, start + s,
                                             lam=lam, coords=coords)
            if st.gauge is not None:
                total = GaugeMatrix(total.p * st.gauge.p, st.gauge.p_inv * total.p_inv)
            if (st.gauge is not None or st.residual_l is not None
                    or st.unsolved is not None):
                steps.append((lam, st))
        start += len(mats)
    return a, steps, total, [(lam, len(mats)) for lam, mats in chains]


def test_chain_sweep_matches_one_gauge_at_a_time():
    seen_steps = set()
    seen_chains = set()
    for seed in range(8):
        rng = random.Random(4100 + seed)
        a0, d1 = two_block_system(rng, solvable=seed % 2 == 0)
        # a block-diagonal gauge q in front, as the diagonal assembly puts
        # it, composed here with the sweep's Id + S
        q = block_diag_gauge([unit_lower_gauge(rng, d1),
                              unit_lower_gauge(rng, a0.rows - d1)])
        initial = apply_gauge(a0, GaugeMatrix(q.p_inv, q.p))
        report = reduce_subdiagonal(BlockSystem(1, a0, [d1, a0.rows - d1]))
        sweep = report.total_gauge
        composed = GaugeMatrix(q.p * sweep.p, sweep.p_inv * q.p_inv)
        final, steps, total, shapes = one_gauge_at_a_time(a0, d1, q)
        assert report.final_matrix == final
        assert [(st.kind, st.residual_l, st.note_text()) for st in report.steps] == [
            (st.kind, st.residual_l, st.note_text()) for _, st in steps]
        assert composed.p == total.p
        assert composed.p_inv == total.p_inv
        assert apply_gauge(initial, composed) == report.final_matrix
        seen_steps.update((st.kind, lam != 0) for lam, st in steps)
        seen_chains.update((lam != 0, size) for lam, size in shapes)
    # the batch covers chains of length >= 2 of both kinds, solved and
    # unresolved nonzero-eigenvalue steps, and both zero-eigenvalue kinds
    assert {(False, 3), (True, 2)} <= seen_chains
    assert {("chain-removal", True), ("unresolved", True),
            ("chain-removal", False), ("hermite-partial", False)} <= seen_steps


# ---- diagonal assembly -----------------------------------------------------------


def test_diagonal_gauge_reduces_first_order(hh_p1):
    sf = fixtures.load_system("first-order")
    bs = BlockSystem(1, sf.matrix, [4])
    partial, step = reduce_diagonal(bs, hh_p1, None)
    assert step.kind == "diagonal-assembly"
    assert partial.matrix == fixtures.load_system("first-order-reduced").matrix


def test_diagonal_gauge_needs_previous_order(hh_p1):
    zero = rf("0")
    mat = RatMat([[zero, zero], [zero, zero]])
    bs = BlockSystem(2, mat, [1, 1])
    with pytest.raises(PreconditionFailure,
                       match="needs the gauge of order 1"):
        reduce_diagonal(bs, hh_p1, None)


def test_diagonal_gauge_size_mismatch(hh_p1):
    zero = rf("0")
    mat = RatMat([[zero, zero], [zero, zero]])
    bs = BlockSystem(1, mat, [2])
    with pytest.raises(PreconditionFailure, match="does not match"):
        reduce_diagonal(bs, hh_p1, None)


def wrong_inverses(p1):
    """Wrong inverses of p1.p: zero, doubled, one entry moved, wrong shapes."""
    n = p1.p.rows
    perturbed = RatMat([list(row) for row in p1.p_inv.data])
    perturbed.data[2][1] = perturbed.data[2][1] + rf("1")
    return {"zero": RatMat.zeros(n), "doubled": p1.p_inv.scale(rf("2")),
            "perturbed": perturbed, "n x n-1": RatMat.zeros(n, n - 1),
            "n-1 x n": RatMat.zeros(n - 1, n)}


@pytest.mark.parametrize("wrong", ["zero", "doubled", "perturbed", "n x n-1", "n-1 x n"])
def test_a_wrong_first_order_inverse_is_refused_before_any_order(
        monkeypatch, hh_system, hh_p1, wrong):
    # with the zero inverse the replay P^-1 (A P - P') == F once passed at
    # order 1 and the run reported an abelian, certified algebra of dimension 0
    ran = []
    monkeypatch.setattr(reduction, "reduce_diagonal", lambda *args: ran.append(args))
    bad = GaugeMatrix(hh_p1.p, wrong_inverses(hh_p1)[wrong])
    with pytest.raises(PreconditionFailure, match="^order 1, diagonal assembly: "):
        reduction.reduce_variational_tower(hh_system, 2, bad)
    assert ran == []


def test_the_bundled_first_order_gauge_passes_the_inverse_check(hh_system):
    p1 = fixtures.load_p1()
    assert p1.p_inv * p1.p == RatMat.identity(4)
    assert len(reduction.reduce_variational_tower(hh_system, 1, p1)) == 1


def test_an_elimination_gauge_off_the_lower_left_block_is_refused(monkeypatch):
    # the replay proves P[A] == F only for an invertible P; Id + S is
    # invertible because S lies in the strictly lower-left block, so S^2 = 0
    mat = lower_system(rf("1/x"), Fraction(1), Fraction(1), rf("1"))
    assert reduce_subdiagonal(BlockSystem(1, mat, [1, 1])).final_matrix != mat
    inner = reduction._adjoint_chains

    def shifted(d0, seed, sub_basis):
        frame, chains = inner(d0, seed, sub_basis)
        frame.basis[1:] = [m + d0 for m in frame.basis[1:]]
        return frame, chains

    monkeypatch.setattr(reduction, "_adjoint_chains", shifted)
    with pytest.raises(RuntimeError, match="outside the lower-left block"):
        reduce_subdiagonal(BlockSystem(1, mat, [1, 1]))


def test_assembly_matches_the_whole_matrix_gauge_on_henon_heiles(lve3_run, hh_p1):
    # orders 2 and 3 are assembled from the lower reports; the result is
    # the diagonal gauge applied to the whole initial matrix
    reports = lve3_run[0]
    for m in (2, 3):
        rep = reports[m - 1]
        partial, step = reduce_diagonal(rep.system, hh_p1, reports[:m - 1])
        assert partial.matrix == apply_gauge(rep.system.matrix, step.gauge)
        assert partial.matrix == rep.assembled_matrix
    with time_budget(-1.0), pytest.raises(ReductionTimeout):
        reduce_diagonal(reports[1].system, hh_p1, reports[:1])


def test_assembly_matches_the_whole_matrix_gauge_on_block_systems():
    # order-2 block systems (3, 2) that are not variational: the leading
    # block is random, not sym^2 of the order-1 matrix, and the trailing
    # block is the order-1 matrix (odd seeds) or random too.  The order-1
    # matrix is [[b, 0], [c + x, b]] hidden by a random gauge and split in
    # blocks (1, 1), so its sweep integrates x away and its final matrix is
    # not the assembled one.
    for seed in range(6):
        rng = random.Random(4200 + seed)
        p1 = unit_lower_gauge(rng, 2)
        b = rand_ratfun(rng, deg=2).scale(Fraction(rng.randint(1, 3)))
        hidden = RatMat([[b, rf("0")], [rand_ratfun(rng) + rf("x"), b]])
        a1 = apply_gauge(hidden, GaugeMatrix(p1.p_inv, p1.p))
        lower = reduce_block_systems([BlockSystem(1, a1, [1, 1])], p1)
        assert lower[0].assembled_matrix == hidden != lower[0].final_matrix
        a = RatMat.zeros(5, 5)
        for i in range(5):
            for j in range(3 if i < 3 else 5):
                a.data[i][j] = rand_ratfun(rng)
        if seed % 2:
            a.set_block(3, 3, a1)
        assert a.submatrix(0, 3, 0, 3) != sym_power_algebra(a1, 2)
        partial, step = reduce_diagonal(BlockSystem(2, a, [3, 2]), p1, lower)
        assert partial.matrix == apply_gauge(a, step.gauge)


def test_orders_above_one_apply_no_whole_matrix_gauge(monkeypatch, hh_system, hh_p1):
    # only the order-1 assembly applies a gauge, p1, to a whole matrix.
    # Orders 2 and 3 keep the total gauge in block form: their assembly,
    # composition and replay multiply blocks, and no product has an operand
    # with a side of the order's full size.  The top order never reads its
    # inverse: Sym^m(p1^-1) is built for the order-2 gauge alone, when the
    # order-3 assembly reads the inverse of the order-2 total gauge.
    order, shapes, applied, powers = [0], {0: [], 1: [], 2: [], 3: []}, [], []
    inner_check = reduction._check_known_diagonal
    inner_diagonal = reduction.reduce_diagonal
    inner_apply = reduction.apply_gauge
    inner_power = reduction.sym_power_group
    mul = RatMat.__mul__

    def check_at_order(m, lower):
        order[0] = m
        return inner_check(m, lower)

    def at_order(system, *rest):
        order[0] = system.order
        return inner_diagonal(system, *rest)

    def counted_apply(a, p):
        applied.append(a.rows)
        return inner_apply(a, p)

    def counted_power(p, m):
        powers.append((m, "p" if p is hh_p1.p else "p_inv" if p is hh_p1.p_inv else "?"))
        return inner_power(p, m)

    def counted_mul(a, b):
        shapes[order[0]].append((a.rows, a.cols, b.rows, b.cols))
        return mul(a, b)

    monkeypatch.setattr(reduction, "_check_known_diagonal", check_at_order)
    monkeypatch.setattr(reduction, "reduce_diagonal", at_order)
    monkeypatch.setattr(reduction, "apply_gauge", counted_apply)
    monkeypatch.setattr(reduction, "sym_power_group", counted_power)
    monkeypatch.setattr(RatMat, "__mul__", counted_mul)
    reports = reduction.reduce_variational_tower(hh_system, 3, hh_p1)
    monkeypatch.undo()
    assert [rep.system.matrix.rows for rep in reports] == [4, 14, 34]
    assert applied == [4]
    assert powers == [(2, "p"), (3, "p"), (2, "p_inv")]
    for m, n in ((2, 14), (3, 34)):
        assert shapes[m]
        assert all(n not in sides for sides in shapes[m]), m


def flip(m, i, j):
    """m with 1/(x - 7) added to entry (i, j)."""
    out = RatMat([list(row) for row in m.data])
    out.data[i][j] = out.data[i][j] + rf("1/(x - 7)")
    return out


def replay_cases(hh_p1, lve2_run):
    """(system, run, replays) for the two kinds of reduction: the pipeline
    at Henon-Heiles order 2, which replays the assembly gauge Q from A to
    A0 and then the sweep's Id + S from A0 to F, and reduce_subdiagonal
    alone, which replays Id + S from its system's matrix to F."""
    systems = [rep.system for rep in lve2_run[0]]
    rng = random.Random(4100)
    a0, d1 = two_block_system(rng, solvable=True)
    alone = BlockSystem(1, a0, [d1, a0.rows - d1])
    return {
        "pipeline": (systems[-1], lambda: reduce_block_systems(systems, hh_p1)[-1], 2),
        "none": (alone, lambda: reduce_subdiagonal(alone), 1),
    }


def balanced_flip(gauge, f, i, j):
    """flip(f, i, j) at a top-left entry, with low[:, i] / (x - 7) taken
    from column j of the lower-left block: the lower-left block of the
    replay, which reads low F_t + F_C, still balances, and only the top-left
    one sees it.  Without a low block that block reads F_C alone, and flip
    alone does that."""
    out = flip(f, i, j)
    if gauge.low is not None:
        for k, row in enumerate(out.data[gauge.d:]):
            row[j] = row[j] - gauge.low.data[k][i] * rf("1/(x - 7)")
    return out


@pytest.mark.parametrize("case", ["pipeline", "none"])
@pytest.mark.parametrize("where", ["top-left F", "top-left F alone", "lower-left F",
                                   "bottom-right A", "bottom-right F", "top-right F"])
def test_one_changed_entry_in_any_block_fails_the_replay(
        monkeypatch, hh_p1, lve2_run, case, where):
    # each replay of the case's order, in turn, is handed one changed entry
    system, run, replays = replay_cases(hh_p1, lve2_run)[case]
    n, d = system.matrix.rows, system.block_sizes[0]
    side, i, j = {"top-left F": ("f", d - 1, 0), "top-left F alone": ("balanced", d - 1, 0),
                  "lower-left F": ("f", n - 1, 0), "bottom-right A": ("a", n - 1, d),
                  "bottom-right F": ("f", n - 1, d), "top-right F": ("f", 0, n - 1)}[where]
    inner = BlockGauge.carries
    calls, target = [], [None]

    def changed(gauge, a, f):
        if gauge.n != n:  # a replay of a lower order
            return inner(gauge, a, f)
        calls.append(gauge)
        if len(calls) != target[0]:
            return inner(gauge, a, f)
        if side == "a":
            return inner(gauge, flip(a, i, j), f)
        if side == "balanced":
            return inner(gauge, a, balanced_flip(gauge, f, i, j))
        return inner(gauge, a, flip(f, i, j))

    monkeypatch.setattr(BlockGauge, "carries", changed)
    report = run()
    assert len(calls) == replays
    assert inner(report.total_gauge, report.system.matrix, report.final_matrix)
    for k in range(1, replays + 1):
        calls.clear()
        target[0] = k
        with pytest.raises(RuntimeError, match="replay postcondition failed"):
            run()
        assert len(calls) == target[0]


def test_a_changed_assembled_matrix_fails_the_assembly_replay(monkeypatch, hh_p1, lve2_run):
    # one changed entry in the order-2 assembled matrix A0: the sweep would
    # reduce the changed A0 and replay its Id + S from it, so only the
    # assembly gauge's replay sees the change, and it fails before the
    # order-2 sweep runs
    systems = [rep.system for rep in lve2_run[0]]
    inner_diagonal, inner_sub = reduction.reduce_diagonal, reduction.reduce_subdiagonal
    moved, swept = [], []

    def changed(bs, *rest):
        partial, step = inner_diagonal(bs, *rest)
        if bs.order == 2:
            n = partial.matrix.rows
            partial = BlockSystem(2, flip(partial.matrix, n - 1, 0), list(partial.block_sizes))
            moved.append(partial)
        return partial, step

    def counted(system):
        swept.append(system.order)
        return inner_sub(system)

    monkeypatch.setattr(reduction, "reduce_diagonal", changed)
    monkeypatch.setattr(reduction, "reduce_subdiagonal", counted)
    with pytest.raises(RuntimeError, match="replay postcondition failed: the assembly gauge"):
        reduce_block_systems(systems, hh_p1)
    assert swept == [1]
    monkeypatch.undo()
    report = reduce_subdiagonal(moved[0])
    assert report.total_gauge.carries(moved[0].matrix, report.final_matrix)


def sweep_matrix(report, n):
    """S = sum g_k C_k over the elimination steps of a report."""
    s = RatMat.zeros(n)
    for st in report.steps:
        if st.solved_g is None:
            continue
        for i, row in st.generator.num.items():
            for j, v in row.items():
                s.data[i][j] = s.data[i][j] + st.solved_g.scale(Fraction(v, st.generator.den))
    return s


def assert_total_gauge_composes(report, q):
    """total_gauge.p and .p_inv are Q (Id + S) and (Id - S) Q^-1, for the
    assembly gauge q (None: Id) and S read off the report's steps."""
    n = report.system.matrix.rows
    eye = RatMat.identity(n)
    s = sweep_matrix(report, n)
    q_p, q_inv = (eye, eye) if q is None else (q.p, q.p_inv)
    assert report.total_gauge.p == q_p * (eye + s)
    assert report.total_gauge.p_inv == (eye - s) * q_inv


def test_multiplied_out_total_gauges_compose_on_henon_heiles(lve3_run, hh_p1):
    reports = lve3_run[0]
    assert_total_gauge_composes(reports[0], hh_p1)
    for m in (2, 3):
        prev = reports[m - 2].total_gauge
        top = GaugeMatrix(sym_power_group(hh_p1.p, m), sym_power_group(hh_p1.p_inv, m))
        q = block_diag_gauge([top, GaugeMatrix(prev.p, prev.p_inv)])
        assert_total_gauge_composes(reports[m - 1], q)


def test_multiplied_out_total_gauges_compose_on_synth_systems(synth_seed0):
    for _, rep in synth_seed0:
        assert_total_gauge_composes(rep, None)


# ---- subdiagonal reduction corner cases ------------------------------------------


def test_zero_diagonal_reduces_by_antidifferentiation():
    # With a zero diagonal block every generator is a chain of its own and
    # only the Hermite residue of each coefficient survives.
    zero = rf("0")
    mat = RatMat([[zero, zero], [rf("1/x + x"), zero]])
    report = reduce_subdiagonal(BlockSystem(1, mat, [1, 1]))
    assert report.final_matrix == RatMat([[zero, zero], [rf("1/x"), zero]])
    assert step_kinds(report) == {"hermite-partial": 1}
    assert report.diag_dim == 0
    assert report.abelian
    assert report.reduced_certified
    assert report.verdict.startswith("abelian")
    tower = report.tower
    assert len(tower) == 1 and tower[0].recognized_as == "log"


def test_non_monogenous_diagonal_is_refused():
    # Two independent diagonal generators (different coefficient functions
    # on the two diagonal entries) are outside the supported regime.
    zero = rf("0")
    mat = RatMat([
        [rf("1/x"), zero, zero],
        [zero, rf("1/(x + 1)"), zero],
        [rf("1/x"), zero, zero],
    ])
    with pytest.raises(UnsupportedRegime, match="not monogenous"):
        reduce_subdiagonal(BlockSystem(1, mat, [2, 1]))


@pytest.fixture(scope="module")
def hh_closures(lve3_run):
    """(system, report, closures) for the Henon-Heiles assembled matrix of
    each order 1-3, reduced again with reduction.lie_closure recorded:
    closures lists the generators of each closure, in call order."""
    inner = reduction.lie_closure
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for rep in lve3_run[0]:
            closed = []

            def recording(gens, closed=closed):
                closed.append(list(gens))
                return inner(gens)

            mp.setattr(reduction, "lie_closure", recording)
            system = BlockSystem(rep.order, rep.assembled_matrix, rep.system.block_sizes)
            out.append((system, reduce_subdiagonal(system), closed))
    return out


def test_henon_heiles_closures_keep_the_all_pairs_order(lve3_run, hh_closures):
    # every closure of the order 1-3 reductions (initial, working space,
    # final; order 1 has no chains, so its initial closure is its final
    # one) has the all-pairs oracle's basis in the oracle's order: the
    # brackets the closure skips are those of two non-generators, which
    # lie in the lower-left block and commute, so the reports stay those of
    # the all-pairs closure
    for rep, (_, again, _) in zip(lve3_run[0], hh_closures):
        assert again.final_lie.mats == rep.final_lie.mats
    closed = [gens for _, _, calls in hh_closures for gens in calls]
    bases = [reduction.lie_closure(gens).mats for gens in closed]
    assert [len(mats) for mats in bases] == [1, 1, 11, 11, 1, 38, 39, 5]
    assert bases == [breadth_first_basis(gens) for gens in closed]


def test_wide_diagonal_is_refused_before_the_full_closure(monkeypatch):
    # E12 and E21 in the leading block: their diagonal projections span two
    # dimensions and close to sl2, the dimension the message names; the
    # closure of the Wei-Norman matrices (with E31) is never built
    closed = []
    inner = reduction.lie_closure

    def recording(gens):
        closed.append(list(gens))
        return inner(gens)

    monkeypatch.setattr(reduction, "lie_closure", recording)
    zero = rf("0")
    a = RatMat([
        [zero, rf("1/x"), zero],
        [rf("1/(x + 1)"), zero, zero],
        [rf("x"), zero, zero],
    ])
    with pytest.raises(UnsupportedRegime, match=r"not monogenous \(dimension 3\)"):
        reduce_subdiagonal(BlockSystem(2, a, [2, 1]))
    assert len(closed) == 1
    assert wei_norman(a).matrices() not in closed


def test_reduction_respects_time_budget(hh_p1):
    sf = fixtures.load_system("first-order")
    bs = BlockSystem(1, sf.matrix, [4])
    with pytest.raises(ReductionTimeout):
        reduce_block_systems([bs], hh_p1, max_seconds=0.0)
    # the budget ends with the reduction that set it
    gens = wei_norman(fixtures.load_system("nilpotent-pair").matrix).matrices()
    assert lie_closure(gens).dim == len(breadth_first_basis(gens))


@pytest.fixture(scope="module")
def budgeted_calls(hh_p1):
    """One call per entry point that checks the time budget, on an input
    that reaches a check point; the inputs are built outside any budget."""
    a1 = fixtures.load_system("first-order").matrix
    pair = fixtures.load_system("nilpotent-pair").matrix
    wn = wei_norman(pair)
    lie = lie_closure(wn.matrices())
    zero = rf("0")
    lower = RatMat([[zero, zero], [rf("1/x + x"), zero]])
    return {
        "apply_gauge": lambda: apply_gauge(a1, hh_p1),
        "wei_norman": lambda: wei_norman(pair),
        "lie_closure": lambda: lie_closure(wn.matrices()),
        "adjoint": lambda: lie.adjoint(0),
        "reduce_diagonal": lambda: reduce_diagonal(BlockSystem(1, a1, [4]), hh_p1, None),
        "reduce_subdiagonal": lambda: reduce_subdiagonal(BlockSystem(1, lower, [1, 1])),
        "picard_vessiot_tower": lambda: picard_vessiot_tower(wn, lie),
        "nilpotent_jordan_chains": lambda: nilpotent_jordan_chains(
            ConstMat([[0, 0], [1, 0]])),
        "charpoly": lambda: charpoly(ConstMat([[1, 2], [3, 4]])),
        "sym_power_group": lambda: sym_power_group(hh_p1.p, 2),
    }


@pytest.mark.parametrize("name", [
    "apply_gauge", "wei_norman", "lie_closure", "adjoint", "reduce_diagonal",
    "reduce_subdiagonal", "picard_vessiot_tower", "nilpotent_jordan_chains",
    "charpoly", "sym_power_group",
])
def test_entry_points_respect_an_expired_budget(budgeted_calls, name):
    call = budgeted_calls[name]
    call()
    with time_budget(-1.0), pytest.raises(ReductionTimeout):
        call()
    assert poly._FACTOR_BASE.get() is None  # the timeout dropped the pole base


@pytest.mark.parametrize("name, phase", [
    ("sym_power_group", "order 2, diagonal assembly"),
    ("nilpotent_jordan_chains", "order 2, subdiagonal reduction"),
])
def test_timeouts_in_newly_checked_phases_name_the_phase(
        monkeypatch, hh_system, hh_p1, name, phase):
    inner = getattr(reduction, name)

    def expired(*args):
        with time_budget(-1.0):
            return inner(*args)

    monkeypatch.setattr(reduction, name, expired)
    with pytest.raises(ReductionTimeout, match="^%s: time budget exhausted" % phase):
        reduction.reduce_variational_tower(hh_system, 2, hh_p1)


def test_one_run_factors_each_squarefree_part_once(monkeypatch, hh_system, hh_p1):
    """All orders of one run share one pole base, so no squarefree part is
    factored twice; with a base per reduction x^2 + 1 was."""
    sent = []
    inner = poly._factor_squarefree

    def recording(f):
        sent.append(f)
        return inner(f)

    monkeypatch.setattr(poly, "_factor_squarefree", recording)
    reduction.reduce_variational_tower(hh_system, 3, hh_p1)
    assert sent and len(sent) == len(set(sent))


def test_all_orders_of_a_run_share_one_pole_base(monkeypatch, hh_system, hh_p1):
    """Once a factor is found in full, later orders of the run divide by it:
    no irreducible factor is found in full twice, where a base per order
    found x again at order 2."""
    full = poly._factor_full
    found = []

    def recording(p):
        found.extend(q for q, _ in full(p)[1])
        return full(p)

    monkeypatch.setattr(poly, "_factor_full", recording)
    reduction.reduce_variational_tower(hh_system, 2, hh_p1)
    assert found and len(found) == len(set(found))


def test_inner_budgets_do_not_outlast_an_expired_one():
    with time_budget(-1.0):
        for seconds in (3600, None):
            with time_budget(seconds), pytest.raises(ReductionTimeout):
                check_deadline()
    check_deadline()


def test_nan_time_budget_is_refused():
    with pytest.raises(PreconditionFailure, match="time budget is not a number"):
        with time_budget(float("nan")):
            pass


# ---- reduced-form certification --------------------------------------------------


def test_tower_of_the_reduced_first_order_system():
    tower = tower_of(fixtures.load_system("first-order-reduced").matrix)
    assert len(tower) == 1
    elem = tower[0]
    assert elem.depth == 1
    assert elem.recognized_as == "log"
    assert elem.argument == rf("x")
    assert elem.integrand_symbol is None


def test_tower_tags_a_large_residue_ratio_unclassified():
    # 1/x + 100000/(x - 1) is the log derivative of x (x - 1)^100000; the
    # tower leaves that w unformed, and the report stays small
    zero = rf("0")
    mat = RatMat([[zero, zero], [rf("1/x + 100000/(x - 1)"), zero]])
    t0 = time.monotonic()
    report = reduce_subdiagonal(BlockSystem(2, mat, [1, 1]))
    text = render_report(report, "text", "x")
    assert time.monotonic() - t0 < 1.0
    assert [(el.recognized_as, el.argument) for el in report.tower] == [("unclassified", None)]
    assert len(text) < 1000


def test_tower_of_the_zero_system_is_empty():
    zero = rf("0")
    mat = RatMat([[zero, zero], [zero, zero]])
    assert tower_of(mat) == []


def test_tower_allows_a_single_diagonal_generator():
    # One generator is never gauged, only integrated, so it need not be
    # nilpotent: x^M is already split by adjoining log x.
    zero = rf("0")
    mat = RatMat([[rf("1/x"), zero], [zero, rf("2/x")]])
    tower = tower_of(mat)
    assert len(tower) == 1
    assert tower[0].recognized_as == "log"
    assert tower[0].argument == rf("x")


def test_tower_refuses_non_nilpotent_generators():
    # Two independent diagonal coefficients: the non-leading generator
    # would have to be gauged away, but its square is not zero.
    zero = rf("0")
    mat = RatMat([[rf("1/x"), zero], [zero, rf("1/(x + 1)")]])
    with pytest.raises(UnsupportedRegime, match="square-zero"):
        tower_of(mat)


def test_tower_reads_negated_brackets_when_the_lead_is_not_first():
    # 4x4 with blocks (1, 3): lead L = E32 + E43 and the chain
    # E21 -> E31 -> E41 of ad(L).  E21 and E31 come first in the Wei-Norman
    # order, so the lead is basis element 2 and [L, E21], [L, E31] are read
    # as negated structure entries; with the wrong sign the coefficient of
    # E31 enters the tower as -h.  The numerators over the common
    # denominator x^3 - x are x^2, x and 1, so the Wei-Norman matrices are
    # E21, E31 and L themselves.
    zero = rf("0")
    g, f, h = rf("1/(x^3 - x)"), rf("x/(x^2 - 1)"), rf("1/(x^2 - 1)")
    mat = RatMat([
        [zero, zero, zero, zero],
        [f, zero, zero, zero],
        [h, g, zero, zero],
        [zero, zero, g, zero],
    ])
    wn = wei_norman(mat)
    lie = lie_closure(wn.matrices())
    assert lie.dim == 4 and lie.mats[2].data[2][1] == 1
    tower = picard_vessiot_tower(wn, lie)
    assert [(e.integrand_coeff, e.integrand_symbol) for e in tower] == [
        (g, None),
        (f, None),
        (h, None),
        (g, "I2"),
        (g, "I3"),
        (g, "I4"),
    ]


def test_tower_tries_only_the_first_noncommuting_pair(monkeypatch):
    # sl2 = <h, e, f> on the first two coordinates beside three commuting
    # diagonal units, dimension 6.  A leader would lie in every noncommuting
    # pair, so only the first one, (h, e), is tried: ad(h) is not
    # nilpotent, and [e, h] = -2e has a component along e.  That takes
    # 1 + 5 + 1 brackets; listing every pair would take 15 > 2 * 6.
    def unit(*entries):
        rows = [[0] * 5 for _ in range(5)]
        for i, j, v in entries:
            rows[i][j] = v
        return ConstMat(rows)

    mats = [unit((0, 0, 1), (1, 1, -1)), unit((0, 1, 1)), unit((1, 0, 1)),
            unit((2, 2, 1)), unit((3, 3, 1)), unit((4, 4, 1))]
    lie = lie_closure(mats)
    assert lie.mats == mats and lie.first_noncommuting_pair() == (0, 1)
    with pytest.raises(UnsupportedRegime):
        nilpotent_jordan_chains(lie.adjoint(0)[1])
    wn = wei_norman(liealgebra.rat_lincomb(
        [rf("1/(x - %d)" % k) for k in range(6)], mats, 5, 5))
    brackets = []

    def count(module):
        inner = module.comm

        def counted(a, b):
            brackets.append(1)
            return inner(a, b)

        monkeypatch.setattr(module, "comm", counted)

    count(reduction)
    count(liealgebra)
    with pytest.raises(UnsupportedRegime, match="adjoint-chain structure"):
        picard_vessiot_tower(wn, lie)
    assert len(brackets) <= 2 * lie.dim


def test_tower_brackets_only_the_pairs_missing_from_the_records(
        lve3_run, synth_seed0, monkeypatch):
    # The final algebras of LVE^1 to LVE^3 and synth-chains seed 0, closed
    # afresh, and the strictly lower 4x4 matrices, generated by E21, E32 and
    # E43: its candidate E21 has a nilpotent adjoint, but [E32, E43] != 0,
    # so the tower refuses it.  Every bracket the tower takes is of a pair
    # missing from the closure's records, once; the check that the
    # non-leading elements commute reads the rest off the records.
    def unit(i, j):
        rows = [[0] * 4 for _ in range(4)]
        rows[i][j] = 1
        return ConstMat(rows)

    strict = liealgebra.rat_lincomb([rf("1/(x - %d)" % k) for k in range(3)],
                                    [unit(1, 0), unit(2, 1), unit(3, 2)], 4, 4)
    # (decomposition, the refusal the tower gives or None)
    reports = lve3_run[0] + [rep for _, rep in synth_seed0]
    cases = [(rep.final_wei_norman, "." if rep.tower is None else None) for rep in reports]
    cases.append((wei_norman(strict), "adjoint-chain structure"))
    inner_comm, inner_commuting = liealgebra.comm, liealgebra.LieBasis.commuting
    taken, checked = [], []

    def commuting(self, indices):
        checked.append((self, list(indices), inner_commuting(self, indices)))
        return checked[-1][2]

    monkeypatch.setattr(liealgebra.LieBasis, "commuting", commuting)
    read = 0
    for wn, refusal in cases:
        lie = lie_closure(wn.matrices())
        index = {id(m): k for k, m in enumerate(lie.mats)}
        recorded = set(lie.records)
        taken.clear()
        checked.clear()

        def counted(a, b):
            taken.append((index[id(a)], index[id(b)]))
            return inner_comm(a, b)

        monkeypatch.setattr(liealgebra, "comm", counted)
        if refusal is None:
            picard_vessiot_tower(wn, lie)
        else:
            with pytest.raises(UnsupportedRegime, match=refusal):
                picard_vessiot_tower(wn, lie)
        monkeypatch.setattr(liealgebra, "comm", inner_comm)
        assert len(set(taken)) == len(taken)
        assert not set(taken) & recorded
        for basis, indices, _ in checked:
            assert basis is lie
            pairs = {(a, b) for j, b in enumerate(indices) for a in indices[:j]}
            read += len(pairs & recorded)
    # the strict algebra: both candidates of the pair (0, 1) have nilpotent
    # adjoints, and the check refuses both
    assert [(indices, ok) for _, indices, ok in checked] == [
        ([1, 2, 3, 4, 5], False), ([0, 2, 3, 4, 5], False)]
    # most of the pairs the check covers come from the records
    assert read > 200


def test_dependent_depth_one_letters_are_not_certified():
    # blocks (2, 1): the diagonal generator E21 with beta0 = 1/x - 1/x^2 and
    # the subdiagonal E32 with 1/x.  The tower has the right length, but its
    # depth-1 letters are both 1/x, so I1 - I2 is a constant; every solution
    # lies in Q(x)(log x), whose Galois group is abelian.
    zero = rf("0")
    a = RatMat([
        [zero, zero, zero],
        [rf("1/x - 1/x^2"), zero, zero],
        [zero, rf("1/x"), zero],
    ])
    report = reduce_subdiagonal(BlockSystem(2, a, [2, 1]))
    letters = [e.integrand_coeff for e in report.tower if e.depth == 1]
    assert letters == [rf("1/x"), rf("1/x")]
    assert len(report.tower) == report.final_lie.dim
    assert not report.reduced_certified
    assert "candidate obstruction" in report.verdict


def test_each_matrix_is_decomposed_and_closed_once(monkeypatch):
    # a0 and the final matrix are decomposed and closed once each, and the
    # working subdiagonal space is closed once, led by the diagonal
    # generator; the frame and the tower read what reduce_subdiagonal
    # already holds.  The only other decomposition is the row of the
    # tower's letters, whose Q-independence it checks.  Every frame is
    # built over one of the three closures, and none eliminates in a span
    # of the matrices' full size.  At an order without chains the final
    # matrix is a0, and its decomposition and closure are the initial ones
    counts = {"wei_norman": 0, "lie_closure": 0}
    decomposed, closed, closures = [], [], []

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            out = inner(*args, **kwargs)
            if name == "lie_closure":
                closed.append(list(args[0]))
                closures.append(out)
            else:
                decomposed.append(args[0])
            return out

        monkeypatch.setattr(module, name, counted)

    count(reduction, "wei_norman")
    count(liealgebra, "wei_norman")
    count(reduction, "lie_closure")
    spans, frames, in_frame = [], [], []
    span_init, frame_init, frame_coords = SpanQQ.__init__, DualFrame.__init__, DualFrame.coords

    def recorded_span(self, length):
        spans.append((length, bool(in_frame)))
        span_init(self, length)

    def in_a_frame(method):
        def run(self, *args):
            in_frame.append(self)
            try:
                return method(self, *args)
            finally:
                in_frame.pop()
        return run

    def recorded_frame(self, lie, lead, vectors):
        frames.append(lie)
        in_a_frame(frame_init)(self, lie, lead, vectors)

    def reduce_recorded(a, blocks):
        for log in (decomposed, closed, closures, spans, frames):
            log.clear()
        counts.update(wei_norman=0, lie_closure=0)
        return reduce_subdiagonal(BlockSystem(len(blocks), a, blocks))

    monkeypatch.setattr(SpanQQ, "__init__", recorded_span)
    monkeypatch.setattr(DualFrame, "__init__", recorded_frame)
    monkeypatch.setattr(DualFrame, "coords", in_a_frame(frame_coords))
    zero = rf("0")
    # order 1, one diagonal generator: ad(d0) has no chains
    b = RatMat([[rf("1/x"), zero], [zero, rf("-1/x")]])
    report = reduce_recorded(b, [2])
    assert not report.jordan_block_sizes and report.final_matrix is b
    letters = [el.integrand_coeff for el in report.tower if el.depth == 1]
    assert counts == {"wei_norman": 2, "lie_closure": 2}
    assert decomposed == [b, RatMat([letters])]
    assert closed[0] == wei_norman(b).matrices() and closed[0] not in closed[1:]
    assert report.final_lie is closures[0] and frames == [closures[0]]
    assert report.final_wei_norman.matrices() == closed[0]
    a = RatMat([
        [zero, zero, zero],
        [rf("1/x"), zero, zero],
        [zero, rf("1/(x + 1)"), zero],
    ])
    report = reduce_recorded(a, [2, 1])
    monkeypatch.undo()
    assert report.jordan_block_sizes and report.tower
    letters = [el.integrand_coeff for el in report.tower if el.depth == 1]
    assert counts == {"wei_norman": 3, "lie_closure": 3}
    assert decomposed == [a, report.final_matrix, RatMat([letters])]
    e21 = ConstMat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert closed[0] == wei_norman(a).matrices()
    assert closed[1][0] == e21
    assert closed[2] == report.final_wei_norman.matrices()
    # the sweep's frame over the working space, the tower's over the final algebra
    assert frames == [closures[1], closures[2]]
    assert report.final_lie is closures[2]
    assert a.rows * a.cols in [length for length, framed in spans if not framed]
    framed = [length for length, framed in spans if framed]
    assert framed == [closures[1].dim - 1, closures[2].dim - 1]
    assert a.rows * a.cols not in framed


def test_working_space_closure_respects_deadline():
    # blocks (2, 1), diagonal generator E21: the working space holds E32
    # and [E21, E32] = -E31, so closing it takes a round of brackets
    zero = rf("0")
    a = RatMat([
        [zero, zero, zero],
        [rf("1/x"), zero, zero],
        [zero, rf("1/(x + 1)"), zero],
    ])
    lie = lie_closure(wei_norman(a).matrices())
    diag, sub, _ = split_diag_sub(lie.mats, 2)
    seed = working_seed(lie.mats, diag[0], 2)
    _, chains = _adjoint_chains(diag[0], seed, sub)
    assert sum(len(mats) for _, mats in chains) >= 2
    with time_budget(-1.0), pytest.raises(ReductionTimeout):
        _adjoint_chains(diag[0], seed, sub)


# ---- the bundled example, orders 1 and 2 -----------------------------------------


def test_first_order_report(lve2_run):
    r1 = lve2_run[0][0]
    assert r1.final_matrix == fixtures.load_system("first-order-reduced").matrix
    assert r1.final_wei_norman.dim == 1
    assert r1.final_lie.dim == 1
    assert r1.abelian
    assert r1.reduced_certified
    assert r1.certificate is None
    assert r1.verdict.startswith("abelian")
    assert len(r1.tower) == 1
    assert r1.tower[0].recognized_as == "log"
    assert r1.tower[0].integrand_coeff == rf("5/(3*x)")
    assert apply_gauge(r1.system.matrix, r1.total_gauge) == r1.final_matrix


def test_second_order_dimensions(lve2_run):
    r2 = lve2_run[0][1]
    assert r2.initial_wei_norman_dim == 11
    assert r2.initial_lie_dim == 11
    assert r2.diag_dim == 1
    assert r2.sub_dim == 10
    assert r2.jordan_block_sizes == [4, 4, 2]
    assert step_kinds(r2) == {
        "diagonal-assembly": 1,
        "chain-removal": 5,
        "hermite-partial": 5,
    }


def test_second_order_final_form(lve2_run):
    r2 = lve2_run[0][1]
    assert r2.final_wei_norman.dim == 1
    assert r2.final_wei_norman.functions() == [rf("10/(3*x)")]
    assert r2.abelian
    assert r2.final_lie.dim == 1
    # the final matrix is (1/x) times a nilpotent constant matrix with the
    # same rank profile as the bundled reduced form
    profile = fixtures.rank_profile(r2.final_matrix, rf("x"))
    assert profile == [8, 3, 0]
    golden = fixtures.load_system("order2-reduced").matrix
    assert fixtures.rank_profile(golden, rf("x")) == profile
    for st in r2.steps:
        if st.residual_l is not None:
            assert poly_to_text(st.residual_l.den, "x") == "x"
    assert r2.reduced_certified
    assert r2.verdict.startswith("abelian")
    assert len(r2.tower) == 1
    assert r2.tower[0].recognized_as == "log"
    assert r2.tower[0].argument == rf("x")


def test_second_order_gauge_replay(lve2_run):
    r2 = lve2_run[0][1]
    assert apply_gauge(r2.system.matrix, r2.total_gauge) == r2.final_matrix


# ---- the bundled example, order 3 ------------------------------------------------


def test_third_order_dimensions(lve3_run):
    r3 = lve3_run[0][2]
    assert r3.initial_wei_norman_dim == 18
    assert r3.initial_lie_dim == 38
    assert r3.diag_dim == 1
    assert r3.sub_dim == 37
    assert r3.jordan_block_sizes == [5, 5, 5, 4, 4, 4, 3, 2, 2, 2, 1, 1]
    assert step_kinds(r3) == {
        "diagonal-assembly": 1,
        "hermite-partial": 37,
        "chain-removal": 1,
    }


def test_third_order_final_algebra(lve3_run):
    r3 = lve3_run[0][2]
    assert r3.final_lie.dim == 5
    assert not r3.abelian
    assert r3.final_wei_norman.dim == 2
    # leading adjoint on the closure: a single nilpotent 4-chain, the 5x5
    # shift with ones in rows 3..5 of the previous column
    basis = r3.final_lie.mats
    lead = basis[0]
    ad = [[Fraction(0)] * 5 for _ in range(5)]
    for j in range(5):
        co = coordinates_in_span(comm(lead, basis[j]), basis)
        for i in range(5):
            ad[i][j] = co[i]
    expect = [[Fraction(0)] * 5 for _ in range(5)]
    expect[2][1] = Fraction(1)
    expect[3][2] = Fraction(1)
    expect[4][3] = Fraction(1)
    assert ad == expect
    pole_factors = [poly_to_text(p, "x") for p in r3.residual_pole_factors]
    assert pole_factors == ["x", "x^2 + 1"]


def test_third_order_obstruction_certificate(lve3_run):
    r3 = lve3_run[0][2]
    cert = r3.certificate
    assert cert is not None
    assert not cert.bracket.is_zero
    assert comm(cert.witness[0], cert.witness[1]) == cert.bracket
    assert cert.witness == (r3.final_lie.mats[cert.witness_indices[0]],
                            r3.final_lie.mats[cert.witness_indices[1]])
    assert len(cert.residuals) > 0
    for l in cert.residuals:
        assert not l.is_zero
    rebuilt = detect_obstruction(r3)
    assert rebuilt.witness_indices == cert.witness_indices
    assert rebuilt.bracket == cert.bracket
    assert r3.verdict.startswith("non-integrable")


def test_third_order_integral_tower(lve3_run):
    r3 = lve3_run[0][2]
    tower = r3.tower
    assert tower is not None
    assert [e.depth for e in tower] == [1, 1, 2, 3, 4]
    assert [e.recognized_as for e in tower] == [
        "log", "log", "polylog-2", "polylog-3", "polylog-4"]
    depth1_dens = sorted(poly_to_text(e.integrand_coeff.den, "x")
                         for e in tower if e.depth == 1)
    assert depth1_dens == ["x", "x^2 + 1"]
    assert r3.reduced_certified
    assert len(tower) == r3.final_lie.dim


def test_third_order_gauge_replay(lve3_run):
    r3 = lve3_run[0][2]
    assert apply_gauge(r3.system.matrix, r3.total_gauge) == r3.final_matrix


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE_REPORTS = PERFBENCH / "reference" / "hh"


def test_reports_match_the_reference_bytes(lve3_run):
    var = fixtures.load_hamiltonian().variable
    for rep in lve3_run[0]:
        for mode, ext in (("text", "txt"), ("structured", "rpt")):
            path = REFERENCE_REPORTS / ("report_order_%d.%s" % (rep.order, ext))
            assert render_report(rep, mode, var) == path.read_text(encoding="utf-8"), path.name


def synth_texts(seed, count):
    """The system files of the synth-chains benchmark, as the bench makes them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import synth
    finally:
        sys.path.remove(str(PERFBENCH))
    return synth.generate_texts(seed, count)


def reduce_system_text(text):
    """(system file, report) of one `system v1` text reduced on its own."""
    sf = parse_system(text)
    return sf, reduce_subdiagonal(BlockSystem(len(sf.blocks), sf.matrix, list(sf.blocks)))


@pytest.fixture(scope="module")
def synth_seed0():
    """(system file, report) for the 12 systems of the synth-chains seed 0."""
    return [reduce_system_text(text) for text in synth_texts(0, 12)]


def test_synth_reports_match_the_reference_hashes(synth_seed0):
    """The 12 seeded systems of the synth-chains benchmark (seed 0) meet
    nonzero-eigenvalue chains and pole factors other than x and x^2 + 1;
    each total gauge replays and each structured report hashes as stored."""
    stored = (PERFBENCH / "reference" / "synth" / "seed0.sha256").read_text(
        encoding="utf-8").split()
    assert len(stored) == len(synth_seed0) == 12
    for k, ((sf, rep), digest) in enumerate(zip(synth_seed0, stored)):
        assert apply_gauge(sf.matrix, rep.total_gauge) == rep.final_matrix, k
        out = render_report(rep, "structured", sf.variable)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, k


def test_no_jordan_chain_call_fails_on_a_synth_pass(monkeypatch):
    """The trace test rules a non-nilpotent adjoint out before
    nilpotent_jordan_chains sees it: over the 12 systems of synth-chains
    seed 0, no call of it raises, where trying it on every candidate makes
    24 calls that do."""
    calls, raised = [], []
    inner = reduction.nilpotent_jordan_chains

    def recording(m):
        calls.append(m)
        try:
            return inner(m)
        except UnsupportedRegime:
            raised.append(m)
            raise

    monkeypatch.setattr(reduction, "nilpotent_jordan_chains", recording)
    for text in synth_texts(0, 12):
        reduce_system_text(text)
    assert calls and raised == []


def hidden_jordan_forms(rng, count):
    """psi conjugated from a rational Jordan form in which each eigenvalue
    has two blocks of one size, and sometimes one more block, so chains of
    equal length meet at every eigenvalue; at most 8 rows."""
    made = 0
    while made < count:
        blocks = []
        for lam in rng.sample([Fraction(-2), Fraction(-1, 2), Fraction(0),
                               Fraction(1, 3), Fraction(1)], rng.randint(1, 2)):
            blocks += [(lam, rng.randint(1, 2))] * 2
            if rng.random() < 0.5:
                blocks.append((lam, rng.randint(1, 3)))
        rng.shuffle(blocks)
        n = sum(size for _, size in blocks)
        if n > 8:
            continue
        m = [[Fraction(0)] * n for _ in range(n)]
        pos = 0
        for lam, size in blocks:
            for k in range(size):
                m[pos + k][pos + k] = lam
                if k:
                    m[pos + k][pos + k - 1] = Fraction(1)
            pos += size
        made += 1
        yield conjugated(rng, ConstMat(m))


def test_eigen_chains_match_the_restriction_route(monkeypatch):
    """_eigen_chains, which runs kernel_chains on psi - lam for each
    eigenvalue, gives the eigenvalues, chain vectors and chain order of the
    route through a basis of each generalized eigenspace: on hidden Jordan
    forms with chains of equal length, and on every psi that the 12 systems
    of synth-chains seed 0 meet."""
    for psi in hidden_jordan_forms(random.Random(3030), 30):
        assert reduction._eigen_chains(psi) == eigen_chains_by_restriction(psi)
    met = []
    inner = reduction._eigen_chains

    def compared(psi):
        got = inner(psi)
        assert got == eigen_chains_by_restriction(psi)
        met.append(psi)
        return got

    monkeypatch.setattr(reduction, "_eigen_chains", compared)
    for text in synth_texts(0, 12):
        reduce_system_text(text)
    assert len(met) >= 12


def test_synth_squarefree_parts_split_as_sympy_splits_them(monkeypatch):
    """Every squarefree part that the 12 systems of synth-chains seed 0 send
    to poly._factor_squarefree has sympy's irreducible factors."""
    parts = []
    inner = poly._factor_squarefree

    def recording(f):
        parts.append(f)
        return inner(f)

    monkeypatch.setattr(poly, "_factor_squarefree", recording)
    for text in synth_texts(0, 12):
        reduce_system_text(text)
    assert len(parts) >= 20
    x = sympy.Symbol("x")
    for f in parts:
        facs = sympy.Poly(list(reversed(f.primitive_int()[1])), x).factor_list()[1]
        want = sorted([int(c) for c in reversed(q.all_coeffs())] for q, _ in facs)
        assert sorted(q.primitive_int()[1] for q in inner(f)) == want, f


SEED_HASHES = Path(__file__).resolve().parent / "data" / "synth_seeds_1_5.sha256"


def test_synth_seeds_one_to_five_match_the_stored_hashes():
    """Each line of the data file is a synth-chains seed and the sha256 of
    the structured reports of its 12 systems, concatenated in order."""
    stored = dict(line.split() for line in SEED_HASHES.read_text(encoding="utf-8").splitlines())
    assert sorted(stored) == ["1", "2", "3", "4", "5"]
    for seed, digest in stored.items():
        h = hashlib.sha256()
        for text in synth_texts(int(seed), 12):
            sf, rep = reduce_system_text(text)
            h.update(render_report(rep, "structured", sf.variable).encode("utf-8"))
        assert h.hexdigest() == digest, seed


def unimodular_block_gauge(rng, blocks):
    """Constant diag(U_1, ..., U_k), U_i a unit lower times a unit upper
    triangular integer matrix, entries in -1..1: determinant 1 per block."""
    n = sum(blocks)
    p = RatMat.zeros(n, n)
    start = 0
    for size in blocks:
        rows = range(start, start + size)
        lo = {(i, j): rng.randint(-1, 1) for i in rows for j in rows if j < i}
        up = {(i, j): rng.randint(-1, 1) for i in rows for j in rows if j > i}
        for i in rows:
            for j in rows:
                p.data[i][j] = RatFun.const(sum(lo.get((i, k), int(i == k))
                                                * up.get((k, j), int(k == j)) for k in rows))
        start += size
    return GaugeMatrix.from_p(p)


def invariants(report):
    """What a constant change of basis inside each block must not move."""
    kinds = sorted(st.kind for st in report.steps if st.kind != "diagonal-assembly")
    return (report.final_lie.dim, report.abelian, report.reduced_certified, report.verdict,
            report.jordan_block_sizes, kinds)


def test_reduction_is_invariant_under_constant_block_diagonal_conjugation(
        lve3_run, synth_seed0):
    """A constant block-diagonal P moves A to P^-1 A P: an automorphism of
    the matrix algebra that keeps the blocks, under which the Lie algebras,
    the adjoint chains and the scalar equations of the sweep correspond.
    On the 12 synth-chains systems of seed 0 and the assembled Henon-Heiles
    LVE^2, the final Lie dimension, both flags, the verdict, the chain
    lengths and the step kinds stay, and unresolved steps stay unresolved."""
    rng = random.Random(2602)
    r2 = lve3_run[0][1]
    cases = [(sf.matrix, list(sf.blocks), rep) for sf, rep in synth_seed0]
    cases.append((r2.assembled_matrix, list(r2.system.block_sizes), r2))
    moved_count = unresolved = 0
    for a, blocks, rep in cases:
        moved = apply_gauge(a, unimodular_block_gauge(rng, blocks))
        moved_count += moved != a
        got = reduce_subdiagonal(BlockSystem(len(blocks), moved, blocks))
        assert invariants(got) == invariants(rep)
        unresolved += invariants(rep)[-1].count("unresolved")
    assert moved_count == len(cases) and unresolved > 0


def monogenous_two_block_systems(rng, count):
    """Systems sum_k 1/(x - k) * M_k, M_k = c_k*d0 + a random lower-left
    block, with blocks (d1, d2) of 1-3 rows and d0 block diagonal and lower
    triangular, so ad(d0) has integer eigenvalues.  Last, the single
    generator 1/x * (E11 + E31 + E42), blocks (2, 2): its lower-left part
    s has [E11, s] = -E31 outside span(s)."""
    out = []
    for _ in range(count):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        n = d1 + d2
        d0 = ConstMat([[rng.randint(-2, 2) if j <= i and (i < d1) == (j < d1) else 0
                        for j in range(n)] for i in range(n)])
        mats = [lower_left(ConstMat([[rng.randint(-2, 2) for _ in range(n)]
                                     for _ in range(n)]), d1)
                + d0.scale(rng.choice([0, 1, 2, -1])) for _ in range(rng.randint(1, 4))]
        funcs = [rf("1/(x - %d)" % k) for k in range(len(mats))]
        out.append(BlockSystem(2, liealgebra.rat_lincomb(funcs, mats, n, n), [d1, d2]))
    single = ConstMat([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    out.append(BlockSystem(2, liealgebra.rat_lincomb([rf("1/x")], [single], 4, 4), [2, 2]))
    return out


def test_working_space_closes_from_one_seed(hh_closures, synth_seed0, monkeypatch):
    """The working subdiagonal space is the closure of d0, sub_basis and one
    seed, lead - d0, and it has the basis of the all-seed rule: the
    lower-left blocks of the initial algebra add at most one dimension to
    span(sub_basis), and ad(d0) already keeps that span."""
    systems = [BlockSystem(len(sf.blocks), sf.matrix, list(sf.blocks)) for sf, _ in synth_seed0]
    systems += monogenous_two_block_systems(random.Random(1801), 12)
    recorded = [(system, calls) for system, _, calls in hh_closures]
    inner = reduction.lie_closure

    def recording(gens):
        recorded[-1][1].append(list(gens))
        return inner(gens)

    monkeypatch.setattr(reduction, "lie_closure", recording)
    for system in systems:
        recorded.append((system, []))
        reduce_subdiagonal(system)
    enlarged, bracketed = [], []
    for system, closed in recorded:
        algebra = inner(closed[0]).mats
        d1 = system.block_sizes[0]
        diag, sub, _ = split_diag_sub(algebra, d1)
        if not diag:
            assert len(closed) == 2  # initial and final closures only
            continue
        d0, seed = diag[0], working_seed(algebra, diag[0], d1)
        assert closed[1] == [d0] + sub + [seed]
        work = inner(closed[1])
        assert work.mats == all_seed_working_basis(d0, sub, algebra, d1)
        assert span_dim(sub + [d0 * x - x * d0 for x in sub]) == len(sub)
        grow = span_dim(sub + [lower_left(m, d1) for m in algebra]) - len(sub)
        assert grow <= 1
        enlarged.append(grow)
        bracketed.append(work.dim > work.n_generators)
    # both kinds occur; the single generator's closure takes a bracket
    assert 0 in enlarged and 1 in enlarged
    assert enlarged[-1] == 1 and bracketed[-1]
    assert len(enlarged) >= 20


def test_one_split_of_the_generators_is_the_split_of_the_closure(
        hh_system, hh_p1, monkeypatch):
    """reduce_subdiagonal splits the Wei-Norman matrices, once, and appends
    the closure's brackets to sub_basis.  On every reduce_subdiagonal input
    of LVE^1 to LVE^3, synth-chains seed 0, the separable orders 1 to 4 and
    seeded monogenous two-block systems, that gives the split of the whole
    closure, and lead is the first element of the closure with a nonzero
    diagonal part; the working space is closed from them."""
    from test_separable import separable_hamiltonian_text, separable_p1

    inner_reduce, inner_split = reduction.reduce_subdiagonal, reduction.split_diag_sub
    inner_chains = reduction._adjoint_chains
    runs, open_runs, outside = [], [], []

    def reducing(system):
        open_runs.append({"system": system, "splits": [], "chains": []})
        open_runs[-1]["report"] = inner_reduce(system)
        runs.append(open_runs.pop())
        return runs[-1]["report"]

    def splitting(mats, d1):
        out = inner_split(mats, d1)
        log = open_runs[-1]["splits"] if open_runs else outside
        log.append((list(mats), d1, list(out[0]), list(out[1]), out[2]))
        return out

    def chaining(d0, seed, sub_basis):
        open_runs[-1]["chains"].append((d0, seed, list(sub_basis)))
        return inner_chains(d0, seed, sub_basis)

    monkeypatch.setattr(reduction, "reduce_subdiagonal", reducing)
    monkeypatch.setattr(reduction, "split_diag_sub", splitting)
    monkeypatch.setattr(reduction, "_adjoint_chains", chaining)
    reduction.reduce_variational_tower(hh_system, 3, hh_p1)
    separable = parse_hamiltonian(separable_hamiltonian_text()).build_system()
    reduction.reduce_variational_tower(separable, 4, separable_p1())
    systems = [BlockSystem(len(sf.blocks), sf.matrix, list(sf.blocks))
               for sf in map(parse_system, synth_texts(0, 12))]
    systems += monogenous_two_block_systems(random.Random(1802), 12)
    for system in systems:
        reduction.reduce_subdiagonal(system)
    monkeypatch.undo()
    # the diagonal checks of orders 2-3 and 2-4, outside reduce_subdiagonal
    assert len(outside) == 5 and len(runs) == 3 + 4 + len(systems)
    bracketed = 0
    for run in runs:
        assert len(run["splits"]) == 1
        gens, d1, diag, sub, lead = run["splits"][0]
        wn0 = wei_norman(run["system"].matrix)
        lie0 = lie_closure(wn0.matrices())
        assert d1 == run["system"].block_sizes[0]
        assert gens == wn0.matrices() == lie0.mats[:lie0.n_generators]
        brackets = lie0.mats[lie0.n_generators:]
        ref_diag, ref_sub, _ = split_diag_sub(lie0.mats, d1)
        ref_lead = next((m for m in lie0.mats if not diag_projection(m, d1).is_zero), None)
        assert (diag, sub + brackets, lead) == (ref_diag, ref_sub, ref_lead)
        expected = [(ref_diag[0], ref_lead - ref_diag[0], ref_sub)] if ref_diag else []
        assert run["chains"] == expected
        assert (run["report"].diag_dim, run["report"].sub_dim) == (len(ref_diag), len(ref_sub))
        bracketed += bool(brackets)
    assert bracketed > 10


# x standing alone, as a variable; "final-matrix" holds an x inside a word
LONE_X = re.compile(r"(?<![A-Za-z])x(?![A-Za-z])")


def test_structured_report_writes_every_function_in_its_variable(synth_seed0):
    # system 0 of seed 0 has an unresolved step, whose note renders the
    # equation g' = a g + b; in t the report is the x report with x -> t
    sf, rep = synth_seed0[0]
    assert any(st.kind == "unresolved" for st in rep.steps)
    in_x = render_report(rep, "structured", sf.variable)
    t_text = LONE_X.sub("t", synth_texts(0, 1)[0])
    assert "variable = t" in t_text
    sf_t, rep_t = reduce_system_text(t_text)
    in_t = render_report(rep_t, "structured", sf_t.variable)
    assert "unresolved | no rational solution of g' = (" in in_t
    assert not LONE_X.search(in_t)
    assert in_t == LONE_X.sub("t", in_x)


def sympy_rank_over_q(texts, var):
    """Rank over Q of rational functions given as text, computed by sympy:
    the rank of their numerator coefficients over a common denominator."""
    v = sympy.Symbol(var)
    exprs = [sympy.sympify(t.replace("^", "**"), locals={var: v}) for t in texts]
    den = sympy.lcm([sympy.fraction(sympy.together(e))[1] for e in exprs])
    nums = [sympy.Poly(sympy.cancel(e * den), v) for e in exprs]
    top = max(p.degree() for p in nums)
    return sympy.Matrix([[p.coeff_monomial(v ** k) for k in range(top + 1)]
                         for p in nums]).rank()


def recheck_structured_report(text):
    """Check what a structured report states against its final matrix alone.
    Returns the (abelian, reduced-certified) flags it checked."""
    parsed = parse_report(text)
    meta, sections = parsed["meta"], parsed["sections"]
    var = meta["variable"]
    wn = wei_norman(parsed["final_matrix"].matrix)
    lie = lie_closure(wn.matrices())
    assert wn.functions() == [parse_ratfun(v, var) for _, v in sections["wei-norman"]]
    assert lie.dim == int(meta["final-lie-dim"])
    pair = lie.first_noncommuting_pair()
    assert (pair is None) == (meta["abelian"] == "yes") == ("certificate" not in sections)
    if pair is not None:
        cert = sections["certificate"]
        witness = [v for k, v in cert if k == "witness"]
        assert witness == ["%d %d" % (pair[0] + 1, pair[1] + 1)]
        stated = {tuple(int(t) for t in k.split()[1:]): Fraction(v)
                  for k, v in cert if k.startswith("bracket ")}
        bracket = comm(lie.mats[pair[0]], lie.mats[pair[1]])
        assert stated == {(i + 1, j + 1): c for i, row in enumerate(bracket.data)
                          for j, c in enumerate(row) if c}
    if meta["reduced-certified"] == "yes":
        # element k = name | depth d | tag | [argument u |] integrand f
        elements = [v.split(" | ") for _, v in sections["tower"]]
        assert len(elements) == lie.dim
        letters = [parts[-1][len("integrand "):] for parts in elements
                   if parts[1] == "depth 1"]
        assert sympy_rank_over_q(letters, var) == len(letters)
    return meta["abelian"], meta["reduced-certified"]


def test_structured_reports_recheck_from_their_bytes(lve3_run, synth_seed0):
    var = fixtures.load_hamiltonian().variable
    texts = [render_report(rep, "structured", var) for rep in lve3_run[0]]
    texts += [render_report(rep, "structured", sf.variable) for sf, rep in synth_seed0]
    flags = [recheck_structured_report(text) for text in texts]
    # order 3 of Henon-Heiles: a certified non-abelian form
    assert flags[2] == ("no", "yes")
    assert ("yes", "yes") in flags
