"""Separable Henon-Heiles on the bundled curve: an integrable oracle.

With b = 2 in b/2*q1*q2^2 the bundled Hamiltonian splits in u = q1 + q2 and
v = q1 - q2 into two copies of p_u^2 + u^2/4 + u^3/6, with p_u = (p1 + p2)/2,
so it has the second integral I = (p1+p2)^2/4 + (q1+q2)^2/4 + (q1+q2)^3/6.
q2 = 0 stays invariant and the q1 equation does not involve b, so the
bundled curve still solves it; the normal variational equation is then the
tangential one, and the bundled gauge with its (q1, p1) block copied to the
(q2, p2) block reduces the first-order system.  By Morales-Ruiz, Ramis and
Simo (Ann. Sci. ENS 40, 2007) an integrable system has an abelian identity
component at every order, so no order may be certified non-abelian.  It is
the only tier-1 run past order 3.
"""

import pytest

from varred import fixtures
from varred.fileformats import parse_hamiltonian
from varred.gauge import GaugeMatrix, carries
from varred.matrices import RatMat
from varred.ratfun import parse_ratfun
from varred.reduction import reduce_variational_tower
from varred.varequations import MPoly, build_lve, canonical_names, parse_mpoly


def separable_hamiltonian_text():
    """The bundled .ham text with 1/2*q1*q2^2 replaced by q1*q2^2."""
    text = fixtures.fixture_text("henon-heiles")
    assert text.count("1/2*q1*q2^2") == 1
    return text.replace("1/2*q1*q2^2", "q1*q2^2")


def separable_p1():
    """The bundled first-order gauge with entries (1,1), (1,3), (3,1) and
    (3,3) copied to (2,2), (2,4), (4,2) and (4,4)."""
    p = fixtures.load_system("henon-heiles-p1").matrix
    p = RatMat([list(row) for row in p.data])
    for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
        p.data[i + 1][j + 1] = p.data[i][j]
    return GaugeMatrix.from_p(p)


@pytest.fixture(scope="module")
def separable_run():
    """Reports of orders 1 to 4; about 1.5 s on a 2-CPU Xeon, Python 3.11."""
    system = parse_hamiltonian(separable_hamiltonian_text()).build_system()
    return reduce_variational_tower(system, 4, separable_p1())


def poisson_bracket(f, g, dof):
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, variables q then p."""
    out = MPoly(f.n_vars)
    for i in range(dof):
        out = out + f.diff(i) * g.diff(dof + i) - f.diff(dof + i) * g.diff(i)
    return out


def test_the_copied_gauge_reduces_the_first_order_system():
    system = parse_hamiltonian(separable_hamiltonian_text()).build_system()
    a1 = build_lve(system, 1)[0].matrix
    reduced = RatMat.zeros(4, 4)
    reduced.data[0][2] = reduced.data[1][3] = parse_ratfun("5/(3*x)")
    assert carries(a1, separable_p1().p, reduced)


def test_every_order_up_to_four_is_abelian(separable_run):
    assert [rep.order for rep in separable_run] == [1, 2, 3, 4]
    for rep in separable_run:
        assert (rep.final_lie.dim, rep.abelian, rep.reduced_certified, rep.verdict) == (
            1, True, True, "abelian: no obstruction at this order"), rep.order
        assert rep.certificate is None
        assert not rep.verdict.startswith("non-integrable")


def test_the_separable_hamiltonian_has_a_second_integral():
    names = canonical_names(2)
    h = parse_hamiltonian(separable_hamiltonian_text()).hamiltonian
    i = parse_mpoly("(p1 + p2)^2/4 + (q1 + q2)^2/4 + (q1 + q2)^3/6", names)
    assert poisson_bracket(h, i, 2).is_zero
    # the bundled b = 1 is not separable in u and v
    assert not poisson_bracket(fixtures.load_hamiltonian().hamiltonian, i, 2).is_zero
