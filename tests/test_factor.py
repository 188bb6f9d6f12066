"""factor_irreducible, Zassenhaus's method in poly, against sympy as an oracle:
seeded products of random irreducibles, inputs that are hard for the method,
and the time budget inside its recombination; and what a shared_factors()
block remembers of squarefree splits and Bezout cofactors."""

import random
from fractions import Fraction

import pytest
import sympy

from varred import poly as poly_module
from varred.errors import ReductionTimeout, time_budget
from varred.poly import Poly, factor_irreducible, poly_xgcd, shared_factors, squarefree_decomposition

X = sympy.Symbol("x")
# the Swinnerton-Dyer polynomial of sqrt(2), sqrt(3), sqrt(5): irreducible
# over Q, but a product of factors of degree at most 2 modulo every prime
SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def sympy_factors(p):
    """What factor_irreducible(p) should return, computed by sympy."""
    _, ints = p.primitive_int()
    out = {}
    for fac, mult in sympy.Poly(list(reversed(ints)), X).factor_list()[1]:
        out[Poly([int(c) for c in reversed(fac.all_coeffs())]).monic()] = mult
    return p.lc, sorted(out.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def random_irreducible(rng):
    """An irreducible integer polynomial of degree 1-8 whose coefficients have
    up to 64 bits; its leading coefficient is rarely 1."""
    while True:
        bits = rng.choice((3, 16, 64))
        coeffs = [rng.randint(-2**bits, 2**bits) for _ in range(rng.randint(1, 8))]
        coeffs.append(rng.randint(1, 2**bits))
        if sympy.Poly(list(reversed(coeffs)), X).is_irreducible:
            return Poly(coeffs)


def cyclotomic(n):
    return Poly([int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, X), X)
                                          .all_coeffs())])


def test_factor_irreducible_matches_sympy_on_random_products():
    """Products of 1-3 random irreducibles, each to a power 1-2, times a
    rational constant: the factors, their multiplicities and the leading
    coefficient are sympy's."""
    rng = random.Random(2701)
    for _ in range(30):
        p = Poly([Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 9))])
        for _ in range(rng.randint(1, 3)):
            p = p * random_irreducible(rng) ** rng.randint(1, 2)
        assert factor_irreducible(p) == sympy_factors(p), p


@pytest.mark.parametrize("coeffs", [
    [1, 0, -10, 0, 1],  # x^4 - 10x^2 + 1, reducible modulo every prime
    SWINNERTON_DYER_8,
    [2, 2, 3, 1, 1],  # (x^2 + x + 1)(x^2 + 2), met in synth-chains
    [0, 2, 3, 1],  # x(x + 1)(x + 2)
])
def test_factor_irreducible_of_hard_inputs(coeffs):
    p = Poly(coeffs)
    assert factor_irreducible(p) == sympy_factors(p)


def test_cyclotomic_polynomials_are_irreducible_and_split_x_n_minus_1():
    for n in range(1, 31):
        assert factor_irreducible(cyclotomic(n)) == (1, [(cyclotomic(n), 1)])
        x_n_minus_1 = Poly([-1] + [0] * (n - 1) + [1])
        assert factor_irreducible(x_n_minus_1) == sympy_factors(x_n_minus_1)
        assert len(factor_irreducible(x_n_minus_1)[1]) == len(sympy.divisors(n))


def test_the_first_odd_prime_is_skipped_when_it_divides_the_discriminant():
    """3 divides the discriminant of each input (x^2 + 3 is x^2 modulo 3)
    or its leading coefficient, so the factorization runs modulo a later
    prime."""
    for expr in ((X**2 + 3) * (X**2 - 2), (X**2 + 3) * (X**3 - 3), (3 * X**2 + 1) * (X**2 + 5)):
        sp = sympy.Poly(expr, X)
        assert sympy.discriminant(sp) % 3 == 0
        p = Poly([int(c) for c in reversed(sp.all_coeffs())])
        assert factor_irreducible(p) == sympy_factors(p)


def test_an_expired_budget_stops_the_recombination():
    """The Swinnerton-Dyer polynomial splits modulo the prime, so its lifted
    factors are recombined, and an expired budget stops that.  x^2 + 1 is
    irreducible modulo 3: nothing is recombined and the budget is not read."""
    with time_budget(-1.0):
        with pytest.raises(ReductionTimeout):
            factor_irreducible(Poly(SWINNERTON_DYER_8))
        assert factor_irreducible(Poly([1, 0, 1])) == (1, [(Poly([1, 0, 1]), 1)])


def random_split_inputs(rng, count):
    """Seeded products of small random factors, some squared or cubed, times
    a rational constant, each paired with a random polynomial for xgcd."""
    out = []
    for _ in range(count):
        p = Poly([Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        for _ in range(rng.randint(1, 3)):
            f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])
            p = p * f ** rng.randint(1, 3)
        q = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        out.append((p, q))
    return out


def test_shared_factors_remembers_splits_and_cofactors():
    """squarefree_decomposition and poly_xgcd answer inside a block as
    outside one; a repeated call gives an equal answer, and a caller that
    changes a returned list does not change the next answer."""
    cases = random_split_inputs(random.Random(2702), 40)
    outside = [(squarefree_decomposition(p), poly_xgcd(p, q), poly_xgcd(q, p)) for p, q in cases]
    assert any(len(split) > 1 for split, _, _ in outside)
    with shared_factors():
        for (p, q), want in zip(cases, outside):
            for _ in range(2):
                got = (squarefree_decomposition(p), poly_xgcd(p, q), poly_xgcd(q, p))
                assert got == want
                split = got[0]
                split.append((Poly([1, 1]), 9))
                split[0] = (Poly([0, 1]), 7)
            # a scaled input has the same monic part, and so the same split
            assert squarefree_decomposition(p.scale(-3)) == want[0]
        base = poly_module._FACTOR_BASE.get()
        assert base.answers
    with shared_factors():
        fresh = poly_module._FACTOR_BASE.get()
        assert fresh is not base and fresh.answers == {}
        p, q = cases[0]
        assert (squarefree_decomposition(p), poly_xgcd(p, q)) == outside[0][:2]
    assert poly_module._FACTOR_BASE.get() is None
