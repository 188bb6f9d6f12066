"""End-to-end acceptance checks, one per shipped guarantee.

Every assertion is exact (structural equality over the rationals); the
wall-clock budgets are asserted alongside so a performance regression
fails the same line as a mathematical one.  The expensive pipeline runs
are shared through the session fixtures in conftest.py.
"""

import time
from fractions import Fraction

from varred import fixtures
from varred.expr import poly_to_text
from varred.gauge import apply_gauge
from varred.liealgebra import lie_closure, wei_norman
from varred.matrices import comm
from varred.ratfun import parse_ratfun
from varred.reduction import reduce_block_systems
from varred.varequations import BlockSystem, build_lve

from dense_oracle import coordinates_in_span
import test_gauge
import test_liealg
import test_ratfun
import test_reduction
import test_varequations


def rf(text):
    return parse_ratfun(text)


def test_01_first_order_wei_norman_and_closure():
    """The bundled first-order system decomposes into exactly 2 Wei-Norman
    terms whose Lie closure has dimension 6.  Budget: 1 second."""
    t0 = time.monotonic()
    a1 = fixtures.load_system("first-order").matrix
    wn = wei_norman(a1)
    lie = lie_closure(wn.matrices())
    elapsed = time.monotonic() - t0
    assert wn.dim == 2
    assert lie.dim == 6
    assert elapsed < 1.0


def test_02_shipped_gauge_reduces_the_first_order_system():
    """Applying the bundled gauge to the first-order system reproduces the
    bundled reduced form entrywise: a single Wei-Norman term 5/(3x) with a
    one-dimensional abelian closure, which the order-1 pipeline certifies
    reduced.  Budget: 1 second."""
    t0 = time.monotonic()
    a1 = fixtures.load_system("first-order").matrix
    p1 = fixtures.load_p1()
    reduced = apply_gauge(a1, p1)
    (report,) = reduce_block_systems([BlockSystem(1, a1, [a1.rows])], p1)
    wn = wei_norman(reduced)
    lie = lie_closure(wn.matrices())
    elapsed = time.monotonic() - t0
    assert reduced == fixtures.load_system("first-order-reduced").matrix
    assert report.final_matrix == reduced
    assert report.reduced_certified
    assert wn.dim == 1
    assert wn.functions() == [rf("5/(3*x)")]
    assert lie.dim == 1
    assert lie.is_abelian()
    assert elapsed < 1.0


def test_03_variational_builder_sizes_and_entries(hh_system):
    """Building the variational systems of the bundled Hamiltonian up to
    order 3 gives sizes 4, 14, 34 with degree blocks (4), (10 4),
    (20 10 4); the first order matches the bundled system entrywise.
    Budget: 5 seconds."""
    t0 = time.monotonic()
    systems = build_lve(hh_system, 3)
    elapsed = time.monotonic() - t0
    assert [bs.matrix.rows for bs in systems] == [4, 14, 34]
    assert [list(bs.block_sizes) for bs in systems] == [
        [4], [10, 4], [20, 10, 4]]
    assert systems[0].matrix == fixtures.load_system("first-order").matrix
    assert elapsed < 5.0


def test_04_second_order_pipeline(lve2_run):
    """The order-2 reduction: closure dimension 11 after the diagonal
    assembly (diagonal part 1, subdiagonal 10), adjoint chains of lengths
    4, 4, 2, and a final matrix of the form (1/x) times a nilpotent
    constant matrix with a single Wei-Norman term, abelian closure of
    dimension 1, certified reduced.  The constant part's rank profile must
    match the bundled reduced form's (an entrywise match is basis-dependent
    and not required).  Budget: 60 seconds."""
    reports, elapsed = lve2_run
    r2 = reports[1]
    assert r2.initial_lie_dim == 11
    assert r2.diag_dim == 1
    assert r2.sub_dim == 10
    assert r2.jordan_block_sizes == [4, 4, 2]
    assert r2.final_wei_norman.dim == 1
    assert r2.final_lie.dim == 1
    assert r2.abelian
    assert r2.reduced_certified
    x = rf("x")
    profile = fixtures.rank_profile(r2.final_matrix, x)
    golden = fixtures.load_system("order2-reduced").matrix
    assert profile == fixtures.rank_profile(golden, x)
    assert profile[-1] == 0
    assert elapsed < 60.0


def test_05_third_order_pipeline_certifies_the_obstruction(lve3_run):
    """The order-3 reduction: closure dimension 38 after the diagonal
    assembly with diagonal part 1; final Lie algebra of dimension 5,
    non-abelian, whose leading adjoint acts on the remaining 4 generators
    as a single nilpotent chain (the 5x5 shift); residual denominators
    exactly x and x^2+1; a re-checkable obstruction certificate is
    emitted.  Budget: 10 minutes."""
    reports, elapsed = lve3_run
    r3 = reports[2]
    assert r3.initial_lie_dim == 38
    assert r3.diag_dim == 1
    assert r3.final_lie.dim == 5
    assert not r3.abelian

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
    cert = r3.certificate
    assert cert is not None
    assert not cert.bracket.is_zero
    assert comm(cert.witness[0], cert.witness[1]) == cert.bracket
    assert r3.verdict.startswith("non-integrable")
    assert elapsed < 600.0


def test_06_integral_tower_of_the_third_order_form(lve3_run):
    """The integral tower of the order-3 final form has exactly 5 elements
    with nesting depths 1, 1, 2, 3, 4; the depth-1 integrands have
    denominators x and x^2+1; the ladder elements are tagged polylog-2,
    polylog-3, polylog-4.  The tower length equals the final Lie algebra
    dimension, which certifies the reduced form."""
    reports, _ = lve3_run
    r3 = reports[2]
    tower = r3.tower
    assert tower is not None
    assert len(tower) == 5
    assert [e.depth for e in tower] == [1, 1, 2, 3, 4]
    depth1 = sorted(poly_to_text(e.integrand_coeff.den, "x")
                    for e in tower if e.depth == 1)
    assert depth1 == ["x", "x^2 + 1"]
    assert [e.recognized_as for e in tower][2:] == [
        "polylog-2", "polylog-3", "polylog-4"]
    assert len(tower) == r3.final_lie.dim
    assert r3.reduced_certified


def test_07_property_suites():
    """The randomized identity suites, re-run end to end: split-block
    identities (200 cases), gauge composition and the degree-2 symmetric
    power morphism (100 each), Hermite splits (500), elimination
    postconditions (100), the exact series-expansion oracle for the
    variational builder, and the brute-force Lie closure oracle (50
    generator pairs)."""
    test_gauge.test_split_block_identities()
    test_gauge.test_gauge_composition_matches_sequential_application()
    test_gauge.test_sym_power_group_is_multiplicative()
    test_ratfun.test_hermite_split_reconstruction_and_simple_poles()
    test_reduction.test_elimination_removes_pure_derivative_coefficients()
    test_reduction.test_elimination_leaves_exactly_the_hermite_residue()
    test_varequations.test_variational_matrix_matches_series_expansion()
    test_liealg.test_lie_closure_matches_brute_force()


def test_08_bracket_iteration_on_the_bundled_generator_pair():
    """Iterating brackets of the two generators of the bundled 8x8 pair
    system yields a non-abelian Lie algebra of dimension exactly 5.
    Budget: 1 second."""
    t0 = time.monotonic()
    mat = fixtures.load_system("nilpotent-pair").matrix
    wn = wei_norman(mat)
    lie = lie_closure(wn.matrices())
    elapsed = time.monotonic() - t0
    assert wn.dim == 2
    assert lie.dim == 5
    assert not lie.is_abelian()
    assert elapsed < 1.0
