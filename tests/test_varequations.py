"""Hamiltonian fields, particular curves, and variational system assembly."""

import random
import time
from fractions import Fraction

import pytest

from varred.errors import PreconditionFailure
from varred.fileformats import parse_hamiltonian
from varred.gauge import SymIndex, sym_power_algebra
from varred.matrices import RatMat
from varred.poly import Poly
from varred.ratfun import RatFun, parse_ratfun
from varred.varequations import (
    HamiltonianSystem,
    MPoly,
    ParticularSolution,
    build_lve,
    canonical_names,
    check_solution,
    hamiltonian_vector_field,
    lve_block_sizes,
    lve_dimension,
    parse_mpoly,
    variational_matrix,
)

ZERO = RatFun(Poly([]), Poly([1]))
ONE = RatFun(Poly([1]), Poly([1]))


def rand_mpoly(rng, n_vars, deg=3):
    p = MPoly(n_vars)
    for _ in range(rng.randint(1, 6)):
        e = [0] * n_vars
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n_vars)] += 1
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        p = p + MPoly(n_vars, {tuple(e): c})
    return p


def rand_ratfun(rng, deg=2):
    num = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])
    den = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg)]
               + [Fraction(1)])
    return RatFun(num, den)


def test_mpoly_render_parse_round_trip():
    rng = random.Random(501)
    names = canonical_names(2)
    for _ in range(80):
        p = rand_mpoly(rng, 4)
        assert parse_mpoly(p.render(names), names) == p


def test_mpoly_ring_identities():
    rng = random.Random(502)
    for _ in range(60):
        a = rand_mpoly(rng, 2)
        b = rand_mpoly(rng, 2)
        c = rand_mpoly(rng, 2)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero


def test_powers_equal_repeated_multiplication():
    """base**k == base * ... * base (k factors) for k = 0..9, for Poly and
    MPoly bases, the zero polynomial among them."""
    rng = random.Random(509)
    cases = [(Poly([]), Poly([1]))]
    for _ in range(4):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 4))]
        cases.append((Poly(coeffs), Poly([1])))
        cases.append((rand_mpoly(rng, 4), MPoly.const(4, Fraction(1))))
    for base, one in cases:
        acc = one
        for k in range(10):
            assert base**k == acc
            acc = acc * base


def test_mpoly_power_squares_only_while_bits_remain():
    """An 8th power of a 5-term linear form takes three squarings, not a
    fourth whose result is thrown away: the parse ends within 0.5 s (over
    2 s when the 16th power was also formed)."""
    t0 = time.perf_counter()
    p = parse_mpoly("(q1 + 2*q2 + 3*p1 + p2 + 1)^8", canonical_names(2))
    assert time.perf_counter() - t0 < 0.5
    assert len(p.terms) == 495  # every monomial of degree <= 8 in 4 variables


def test_hamiltonian_vector_field_canonical_shape():
    """X = (dH/dp, -dH/dq) in the (q, p) component order."""
    names = canonical_names(1)
    h = parse_mpoly("q1*p1", names)
    xq, xp = hamiltonian_vector_field(h, 1)
    assert xq == parse_mpoly("q1", names)
    assert xp == parse_mpoly("-p1", names)
    h2 = parse_mpoly("1/2*p1^2 + 1/2*q1^2 + 1/3*q1^3", names)
    xq2, xp2 = hamiltonian_vector_field(h2, 1)
    assert xq2 == parse_mpoly("p1", names)
    assert xp2 == parse_mpoly("-q1 - q1^2", names)


def test_check_solution_accepts_and_rejects():
    names = canonical_names(1)
    h = parse_mpoly("1/2*p1^2 + 1/2*q1^2 + 1/3*q1^3", names)
    field = hamiltonian_vector_field(h, 1)
    phi = [parse_ratfun("6*x^2/(x^2 + 1)^2 - 1"),
           parse_ratfun("-6*x^2*(x^2 - 1)/(x^2 + 1)^3")]
    sigma = parse_ratfun("x/2")
    check_solution(field, ParticularSolution(phi, sigma))
    bad = [phi[0], phi[1] + ONE]
    with pytest.raises(PreconditionFailure) as err:
        check_solution(field, ParticularSolution(bad, sigma))
    assert "q1" in str(err.value)


def test_lve_sizes_and_dimension():
    assert lve_block_sizes(4, 1) == [4]
    assert lve_block_sizes(4, 2) == [10, 4]
    assert lve_block_sizes(4, 3) == [20, 10, 4]
    assert lve_dimension(4, 1) == 4
    assert lve_dimension(4, 2) == 14
    assert lve_dimension(4, 3) == 34
    for n_vars in range(1, 7):
        for order in range(0, 9):
            assert lve_dimension(n_vars, order) == sum(lve_block_sizes(n_vars, order))
    k = 10**9  # the closed form does not loop over the orders
    assert lve_dimension(4, k) == (k + 4) * (k + 3) * (k + 2) * (k + 1) // 24 - 1
    assert lve_block_sizes(2, 2) == [3, 2]


def cubic_oscillator():
    names = canonical_names(1)
    h = parse_mpoly("1/2*p1^2 + 1/2*q1^2 + 1/3*q1^3", names)
    phi = [parse_ratfun("6*x^2/(x^2 + 1)^2 - 1"),
           parse_ratfun("-6*x^2*(x^2 - 1)/(x^2 + 1)^3")]
    sigma = parse_ratfun("x/2")
    return HamiltonianSystem.build(h, 1, phi, sigma)


def test_lve_block_self_similarity():
    """Dropping the leading degree block of the order-m system leaves the
    order m-1 system; the leading diagonal block is the symmetric power of
    the first-order matrix; the upper-right block is zero.  Each order is
    built on its own here, and build_lve, which builds the top order only
    and slices the others out of it, gives the same matrices."""
    system = cubic_oscillator()
    built = [variational_matrix(system.field, system.solution, m) for m in (1, 2, 3)]
    assert [bs.matrix for bs in build_lve(system, 3)] == built
    a1 = built[0]
    for m in (2, 3):
        am = built[m - 1]
        prev = built[m - 2]
        n = am.rows
        top = lve_block_sizes(2, m)[0]
        assert am.submatrix(n - prev.rows, n, n - prev.rows, n) == prev
        assert am.submatrix(0, top, 0, top) == sym_power_algebra(a1, m)
        assert am.submatrix(0, top, top, n).is_zero


# The homogeneous cubic potential q1^3/3 + b q1 q2^2/2 with b = r(r-1)/6 at
# r = 3, along a curve on which x is the time: the first-order system is
# eta1'' = 12/x^2 eta1, eta2'' = r(r-1)/x^2 eta2.
CUBIC_R3_HAM = """\
format = hamiltonian v1
dof = 2
variable = x
hamiltonian = 1/2*(p1^2 + p2^2) + 1/3*q1^3 + 1/2*q1*q2^2
q1 = -6/x^2
q2 = 0
p1 = 12/x^3
p2 = 0
sigma = 1
"""


def test_lve_diagonal_blocks_are_symmetric_powers_on_a_cubic_potential():
    """On a second Hamiltonian, orders 1 to 4, each built on its own: the
    first-order matrix is the Jacobian along the curve, the leading diagonal
    block of order m is sym^m of it, the upper-right block is zero, and the
    trailing blocks are the order m - 1 system, so every degree-k diagonal
    block is sym^k of the first-order matrix.  build_lve gives the same
    matrices."""
    system = parse_hamiltonian(CUBIC_R3_HAM).build_system()
    built = [variational_matrix(system.field, system.solution, m) for m in (1, 2, 3, 4)]
    assert [bs.matrix for bs in build_lve(system, 4)] == built
    a1 = built[0]
    assert a1 == RatMat([[ZERO, ZERO, ONE, ZERO],
                         [ZERO, ZERO, ZERO, ONE],
                         [parse_ratfun("12/x^2"), ZERO, ZERO, ZERO],
                         [ZERO, parse_ratfun("6/x^2"), ZERO, ZERO]])
    for m in (1, 2, 3, 4):
        top, top_right, _, rest = built[m - 1].cut(lve_block_sizes(4, m)[0])
        assert top == sym_power_algebra(a1, m)
        assert top_right.is_zero
        assert rest == (built[m - 2] if m > 1 else RatMat.zeros(0))


class Eps3:
    """Power series a0 + a1*e + a2*e^2 over Q(x), truncated at e^3."""

    def __init__(self, c0, c1=ZERO, c2=ZERO):
        self.c = (c0, c1, c2)

    def __add__(self, other):
        return Eps3(*(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        a, b = self.c, other.c
        return Eps3(a[0] * b[0],
                    a[0] * b[1] + a[1] * b[0],
                    a[0] * b[2] + a[1] * b[1] + a[2] * b[0])

    def scale(self, q):
        return Eps3(*(x.scale(q) for x in self.c))


def eval_poly_eps(p, comps):
    """Evaluate a multivariate polynomial on truncated series components."""
    total = Eps3(ZERO)
    for exp, coeff in p.terms.items():
        term = Eps3(ONE)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * comps[i]
        total = total + term.scale(coeff)
    return total


def monomial(funcs, alpha):
    out = ONE
    for f, e in zip(funcs, alpha):
        for _ in range(e):
            out = out * f
    return out


def test_variational_matrix_matches_series_expansion():
    """Plug an arbitrary (non-solution) perturbed family phi + e*eta + e^2*xi
    into the field, expand in e exactly, and check that the variational
    matrices reproduce the expansion defect order by order.  This pins the
    Taylor coefficients, the symmetric-power block, the monomial ordering,
    and the time rescaling all at once."""
    rng = random.Random(503)
    system = cubic_oscillator()
    sigma = system.solution.sigma
    phi = system.solution.components
    a1, a2 = (bs.matrix for bs in build_lve(system, 2))
    idx = SymIndex(2, 2)
    for _ in range(8):
        eta = [rand_ratfun(rng, 1) for _ in range(2)]
        xi = [rand_ratfun(rng, 1) for _ in range(2)]
        comps = [Eps3(p, e, s) for p, e, s in zip(phi, eta, xi)]
        f = [eval_poly_eps(x_i, comps) for x_i in system.field]
        # defects of the perturbed family at orders 1 and 2
        d1 = [sigma * eta[j].derivative() - f[j].c[1] for j in range(2)]
        d2 = [sigma * xi[j].derivative() - f[j].c[2] for j in range(2)]

        # first order: sigma*eta' - sigma*(A1 eta) == d1
        for i in range(2):
            acc = ZERO
            for j in range(2):
                acc = acc + a1.data[i][j] * eta[j]
            assert sigma * eta[i].derivative() - sigma * acc == d1[i]

        # second order, acting on (eta^alpha for |alpha|=2, then xi)
        v = [monomial(eta, alpha) for alpha in idx.exponents] + list(xi)
        av = []
        for r in range(5):
            acc = ZERO
            for c in range(5):
                if not a2.data[r][c].is_zero:
                    acc = acc + a2.data[r][c] * v[c]
            av.append(acc)
        for r, alpha in enumerate(idx.exponents):
            lhs = sigma * v[r].derivative() - sigma * av[r]
            rhs = ZERO
            for j in range(2):
                if alpha[j]:
                    down = list(alpha)
                    down[j] -= 1
                    rhs = rhs + monomial(eta, down).scale(alpha[j]) * d1[j]
            assert lhs == rhs
        for i in range(2):
            lhs = sigma * xi[i].derivative() - sigma * av[3 + i]
            assert lhs == d2[i]


def test_variational_matrix_first_order_is_scaled_jacobian():
    """A1 entries are the field's partial derivatives along the curve over
    sigma; spot-check against hand-computed values for the cubic."""
    system = cubic_oscillator()
    a1 = variational_matrix(system.field, system.solution, 1)
    two_over_x = parse_ratfun("2/x")
    assert a1.data[0][0].is_zero
    assert a1.data[0][1] == two_over_x
    # d(-q - q^2)/dq = -1 - 2q along q = 6x^2/(x^2+1)^2 - 1, divided by x/2
    q = parse_ratfun("6*x^2/(x^2 + 1)^2 - 1")
    sig = parse_ratfun("x/2")
    want = (-(ONE + q.scale(2))) / sig
    assert a1.data[1][0] == want
    assert a1.data[1][1].is_zero


def test_build_lve_block_metadata():
    system = cubic_oscillator()
    systems = build_lve(system, 3)
    assert [bs.order for bs in systems] == [1, 2, 3]
    assert [bs.matrix.rows for bs in systems] == [2, 5, 9]
    assert systems[2].block_sizes == [4, 3, 2]
