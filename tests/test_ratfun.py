"""Polynomial and rational-function arithmetic, splitting, and recognition."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from varred import poly as poly_module
from varred.expr import poly_to_text
from varred.poly import (
    FactorBase,
    Poly,
    factor_irreducible,
    poly_cofactors,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
    shared_factors,
    squarefree_decomposition,
)
from varred.ratfun import (
    RatFun,
    as_log_derivative,
    hermite_split,
    parse_ratfun,
    solve_first_order_rational,
    _equation_rows,
    _part_over,
)

from dense_oracle import (
    as_log_derivative_by_partial_fractions,
    derivative_by_two_gcds,
    equation_rows_by_products,
    fraction_poly_to_text,
    fraction_render,
    hermite_split_by_sums,
    partial_fractions,
)


def rand_poly(rng, deg, allow_zero=True):
    while True:
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(deg + 1)])
        if allow_zero or not p.is_zero:
            return p


def rand_ratfun(rng, deg=8):
    num = rand_poly(rng, rng.randint(0, deg))
    den = rand_poly(rng, rng.randint(0, deg), allow_zero=False)
    return RatFun(num, den)


def test_poly_divmod_reconstructs():
    rng = random.Random(101)
    for _ in range(300):
        a = rand_poly(rng, rng.randint(0, 8))
        b = rand_poly(rng, rng.randint(0, 5), allow_zero=False)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


# ---- the int-numerator kernel against a Fraction-list oracle ----------------


def _fstrip(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _fadd(a, b, sign=1):
    n = max(len(a), len(b))
    pad_a = list(a) + [0] * (n - len(a))
    pad_b = list(b) + [0] * (n - len(b))
    return _fstrip(x + sign * y for x, y in zip(pad_a, pad_b))


def _fmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fstrip(out)


def _fdivmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        f = r[k + len(b) - 1] / b[-1]
        q[k] = f
        for j, y in enumerate(b):
            r[k + j] -= f * y
    return _fstrip(q), _fstrip(r[:len(b) - 1])


def _fgcd(a, b):
    while b:
        a, b = b, _fdivmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _kernel_poly(rng):
    """Rational coefficients whose numerators and denominators share
    factors, sometimes with a large or negative leading coefficient."""
    deg = rng.randint(-1, 6)
    common = Fraction(rng.choice([1, 2, 6, 12, 125, 3**10]),
                      rng.choice([1, 2, 3, 4, 63, 3**10]))
    coeffs = [common * Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 9]))
              for _ in range(deg + 1)]
    if coeffs and rng.random() < 0.3:
        coeffs[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(10**9, 10**12),
                              rng.randint(1, 10**6))
    return _fstrip(coeffs)


def _assert_canonical(p):
    nums, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert not nums or nums[-1] != 0
    assert gcd(den, *nums) == 1
    assert p.coeffs == tuple(Fraction(v, den) for v in nums)


def test_poly_kernel_matches_fraction_oracle():
    """Every Poly operation equals plain Fraction-list arithmetic, every
    result is the canonical (int numerators, denominator) pair, and
    equality and hashing agree with equality of the coefficient tuples."""
    rng = random.Random(120)
    assert (Poly()._num, Poly()._den) == ((), 1)
    seen = []
    for _ in range(250):
        fa, fb = _kernel_poly(rng), _kernel_poly(rng)
        a, b = Poly(fa), Poly(fb)
        c = Fraction(rng.randint(-7, 7), rng.choice([1, 3, 10**8]))
        n = rng.randint(0, 3)
        fpow = [Fraction(1)]
        for _ in range(n):
            fpow = _fmul(fpow, fa)
        results = [
            (a, fa),
            (a + b, _fadd(fa, fb)),
            (a - b, _fadd(fa, fb, -1)),
            (-a, [-x for x in fa]),
            (a * b, _fmul(fa, fb)),
            (a.scale(c), _fstrip(x * c for x in fa)),
            (a ** n, fpow),
            (a.derivative(), [x * i for i, x in enumerate(fa)][1:]),
            (a.antiderivative(), _fstrip([0] + [x / (i + 1) for i, x in enumerate(fa)])),
            (a.monic(), [x / fa[-1] for x in fa]),
            (poly_gcd(a, b), _fgcd(fa, fb)),
        ]
        if fb:
            q, r = a.divmod(b)
            fq, fr = _fdivmod(fa, fb)
            results += [(q, fq), (r, fr), (q * b + r, fa)]
            if not fr:
                results.append((a.exact_div(b), fq))
        for p, oracle in results:
            _assert_canonical(p)
            assert p.coeffs == tuple(oracle)
            assert p.degree == (len(oracle) - 1 if oracle else None)
            assert p.lc == (oracle[-1] if oracle else 0)
        content, ints = a.primitive_int()
        if fa:
            assert gcd(*ints) == 1 and ints[-1] > 0
            assert [content * v for v in ints] == fa
        seen += [p for p, _ in results]
    for p in seen[:400]:
        for q in seen[:400]:
            assert (p == q) == (p.coeffs == q.coeffs)
            if p == q:
                assert hash(p) == hash(q)


def _sympy_cofactors(a, b):
    """(monic gcd, a/gcd, b/gcd) from sympy."""
    x = sympy.Symbol("x")

    def to_poly(sp):
        return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])

    sa = sympy.Poly(list(reversed(a.coeffs)) or [0], x, domain="QQ")
    sb = sympy.Poly(list(reversed(b.coeffs)) or [0], x, domain="QQ")
    g = sa.gcd(sb)
    if not g.is_zero:
        g = g.monic()
        return to_poly(g), to_poly(sa.exquo(g)), to_poly(sb.exquo(g))
    return Poly(), Poly(), Poly()


def test_poly_gcd_matches_sympy_on_every_branch(monkeypatch):
    """The Euclidean fallback, with the heuristic switched off, against
    sympy's gcd and quotients: coprime pairs, shared factors, 400-bit
    coefficients, equal operands and one operand dividing the other, with
    rational and negative leading coefficients.  Each call reaches the
    fallback exactly once."""
    rng = random.Random(1501)
    monkeypatch.setattr(poly_module, "_HEU_POINTS", 0)
    calls = []
    inner = poly_module._int_euclid

    def recording(a, b):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(poly_module, "_int_euclid", recording)

    def ints(deg, bits):
        cs = [rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(deg)]
        return Poly(cs + [rng.randint(1, 2**bits)])

    branches = {"coprime": 0, "shared": 0}
    for _ in range(5):
        g, u, v = ints(2, 8), ints(rng.randint(2, 8), 20), ints(rng.randint(2, 8), 20)
        huge = ints(rng.randint(2, 6), 400)
        for a, b in [(u, v), (g * u, g * v), (huge * u, huge * v.scale(Fraction(-3, 7))),
                     (u, u), (g * u, u.scale(Fraction(5, 3))), (u, g * u)]:
            calls.clear()
            got = poly_cofactors(a, b)
            assert len(calls) == 1
            assert got == _sympy_cofactors(a, b)
            for p in got:
                _assert_canonical(p)
            branches["coprime" if got[0].is_one else "shared"] += 1
            assert got[0] * got[1] == a and got[0] * got[2] == b
    assert branches == {"coprime": 5, "shared": 25}


def test_poly_cofactors_match_sympy():
    """poly_cofactors against sympy's gcd and exact quotients on seeded
    inputs: coprime pairs, shared factors of degree 1-6, 400-bit
    coefficients, equal inputs, one input dividing the other, and zero or
    constant operands."""
    rng = random.Random(2301)

    def rand_q(deg, bits=8):
        return Poly([Fraction(rng.choice((1, -1)) * rng.getrandbits(bits),
                              rng.randint(1, 2**bits)) for _ in range(deg)]
                    + [Fraction(rng.randint(1, 2**bits), rng.randint(1, 9))])

    cases = []
    for _ in range(12):
        u, v = rand_q(rng.randint(1, 7)), rand_q(rng.randint(1, 7))
        g = rand_q(rng.randint(1, 6))
        huge = rand_q(rng.randint(1, 4), bits=400)
        cases += [
            (u, v),
            (g * u, g * v),
            (g * g * u, g * v.scale(Fraction(-3, 7))),
            (huge * u, huge * v),
            (u, u),
            (g * u, u.scale(Fraction(5, 3))),
            (u, g * u),
            (u, Poly.const(Fraction(-2, 3))),
            (Poly(), u),
            (u, Poly()),
        ]
    cases.append((Poly(), Poly()))
    for a, b in cases:
        got = poly_cofactors(a, b)
        assert got == _sympy_cofactors(a, b)
        for p in got:
            _assert_canonical(p)
        g, ca, cb = got
        assert g * ca == a and g * cb == b
        assert poly_gcd(a, b) == g


def test_heuristic_gcd_starts_at_the_theorem_7_7_bound():
    """The first evaluation point is at least 2 min(|a|_inf, |b|_inf) + 2,
    also when a large leading coefficient makes |a|_inf / lc(a) small, the
    later ones are at least 2B + 2, B the smaller Mignotte bound of the
    inputs, and the points grow."""
    rng = random.Random(2302)
    for _ in range(200):
        a = [rng.choice((1, -1)) * rng.getrandbits(rng.choice((4, 40, 400)))
             for _ in range(rng.randint(1, 8))] + [rng.getrandbits(500) + 1]
        b = [rng.choice((1, -1)) * rng.getrandbits(rng.choice((4, 40, 400)))
             for _ in range(rng.randint(1, 8))] + [rng.randint(1, 9)]
        points = list(poly_module._eval_points(a, b))
        assert len(points) == poly_module._HEU_POINTS
        bound = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
        assert points[0] >= bound
        mignotte = min(poly_module._mignotte_bound(a), poly_module._mignotte_bound(b))
        assert points[1] >= 2 * mignotte + 2
        assert all(p < q for p, q in zip(points, points[1:]))


def test_heuristic_gcd_rejects_a_spurious_candidate(monkeypatch):
    """f = x + c and g = f + 2 f(xi0) are coprime, but at the first point
    xi0 the integer gcd f(xi0) rebuilds to the candidate f, which does not
    divide g.  The division check rejects it and the next point answers,
    without the Euclidean fallback."""
    x = Poly.variable()
    xi0 = next(poly_module._eval_points([5, 1], [5, 1]))
    f = x + Poly.const(5)
    g = f + Poly.const(2 * (xi0 + 5))
    points = []
    inner = poly_module._eval_points

    def recording(a, b):
        for xi in inner(a, b):
            points.append(xi)
            yield xi

    def euclid(a, b):
        raise AssertionError("the heuristic gcd fell back to Euclid")

    monkeypatch.setattr(poly_module, "_eval_points", recording)
    monkeypatch.setattr(poly_module, "_int_euclid", euclid)
    assert poly_module._int_quot(g._num, f._num) is None
    assert poly_cofactors(f, g) == (Poly([1]), f, g)
    assert points[0] == xi0 and len(points) == 2


def test_poly_gcd_divides_both_and_is_monic():
    rng = random.Random(102)
    for _ in range(200):
        g = rand_poly(rng, rng.randint(0, 4), allow_zero=False)
        a = g * rand_poly(rng, rng.randint(0, 4))
        b = g * rand_poly(rng, rng.randint(0, 4), allow_zero=False)
        d = poly_gcd(a, b)
        assert d.lc == 1
        if not a.is_zero:
            assert (a % d).is_zero
        assert (b % d).is_zero
        # the constructed common factor must divide the gcd
        assert (d % g.monic()).is_zero


def test_poly_xgcd_bezout_identity():
    rng = random.Random(103)
    for _ in range(150):
        a = rand_poly(rng, rng.randint(1, 6), allow_zero=False)
        b = rand_poly(rng, rng.randint(1, 6), allow_zero=False)
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)


def test_poly_lcm_times_gcd_is_product():
    rng = random.Random(104)
    for _ in range(100):
        a = rand_poly(rng, rng.randint(1, 5), allow_zero=False)
        b = rand_poly(rng, rng.randint(1, 5), allow_zero=False)
        g = poly_gcd(a, b)
        l = poly_lcm(a, b)
        assert (a * b).monic() == (g * l).monic()


def test_squarefree_decomposition_recombines():
    """Product of parts^multiplicity gives back the monic polynomial, and
    the parts are pairwise coprime and squarefree."""
    rng = random.Random(105)
    for _ in range(60):
        p = Poly([1])
        for mult in (1, 2, 3):
            f = rand_poly(rng, rng.randint(0, 2), allow_zero=False)
            p = p * f ** mult
        parts = squarefree_decomposition(p)
        rebuilt = Poly([1])
        for q, mult in parts:
            rebuilt = rebuilt * q ** mult
            assert poly_gcd(q, q.derivative()).is_one or q.is_constant
        assert rebuilt == p.monic()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).is_one


def test_factor_irreducible_recombines_and_factors_are_prime():
    x = Poly.variable()
    p = (x ** 2 + Poly([1])) * (x ** 2 + Poly([1])) * x * (x - Poly([1]))
    lc, factors = factor_irreducible(p)
    rebuilt = Poly([1])
    for q, mult in factors:
        rebuilt = rebuilt * q ** mult
    assert lc == p.lc
    assert rebuilt == p.monic()
    assert sorted((q.degree, mult) for q, mult in factors) == [
        (1, 1), (1, 1), (2, 2)]


def test_factor_base_matches_factor_irreducible(monkeypatch):
    """One shared base against a fresh factorization of every input: seeded
    products of x, x^2+1, x-3, 2x+5 and x^3-2 to powers 1-3, whose pool
    grows so that some inputs are served by trial division alone and others
    leave a new cofactor that refines the base."""
    x = Poly.variable()
    one = Poly([1])
    pool = [x, x ** 2 + one, x - Poly([3]), x.scale(2) + Poly([5]), x ** 3 - Poly([2])]
    refinements = []
    full = poly_module._factor_full

    def counted(p):
        refinements.append(p)
        return full(p)

    monkeypatch.setattr(poly_module, "_factor_full", counted)
    base = FactorBase()
    rng = random.Random(1401)
    for c in (Fraction(-3, 4), Fraction(7)):
        assert base.factor(Poly([c])) == full(Poly([c])) == (c, [])
    for k in range(120):
        avail = pool[: 2 + k // 30]
        p = Poly([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))])
        for q in rng.sample(avail, rng.randint(1, len(avail))):
            p = p * q ** rng.randint(1, 3)
        assert base.factor(p) == full(p)
    # a held factor itself, then a new cofactor beside held factors
    assert base.factor(x ** 2 + one) == full(x ** 2 + one)
    p = (x + one) ** 2 * x * (x - Poly([3]))
    n = len(refinements)
    assert base.factor(p) == full(p)
    assert refinements[n:] == [(x + one) ** 2]
    assert 0 < len(refinements) < 30  # a quarter of the 120 products


def test_factor_base_remembers_its_inputs(monkeypatch):
    """A repeated input, up to a constant factor, is answered from the memo
    without a single division, and a caller that mutates the list it got
    does not change what the next call returns."""
    x = Poly.variable()
    p = ((x ** 2 + Poly([1])) ** 2 * (x - Poly([3]))).scale(Fraction(3, 4))
    base = FactorBase()
    first = base.factor(p)
    want = (first[0], list(first[1]))
    assert want == factor_irreducible(p)
    first[1].clear()
    divisions = []
    inner = Poly.divmod

    def counted(self, other):
        divisions.append(other)
        return inner(self, other)

    monkeypatch.setattr(Poly, "divmod", counted)
    assert base.factor(p) == want
    again = base.factor(p.scale(-2))
    assert divisions == []
    assert again == (p.lc * -2, want[1])
    again[1].append((x, 5))
    assert base.factor(p) == want


def test_ratfun_field_axioms_random():
    rng = random.Random(106)
    for _ in range(200):
        a = rand_ratfun(rng, 4)
        b = rand_ratfun(rng, 4)
        c = rand_ratfun(rng, 4)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFun(Poly([]), Poly([1]))
        if not b.is_zero:
            assert (a / b) * b == a


def test_ratfun_reduced_representation():
    """num and den never share a factor and the denominator is monic."""
    rng = random.Random(107)
    for _ in range(200):
        f = rand_ratfun(rng, 6)
        if f.is_zero:
            continue
        assert poly_gcd(f.num, f.den).is_one
        assert f.den.lc == 1


def test_ratfun_derivative_product_rule():
    rng = random.Random(108)
    for _ in range(150):
        a = rand_ratfun(rng, 5)
        b = rand_ratfun(rng, 5)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def _irreducible_factor(rng, degree):
    """A random monic integer polynomial of degree 1 to 3 with no integer
    root; for these degrees and monic integer input, irreducible over Q."""
    while True:
        low = [rng.randint(-4, 4) for _ in range(degree)]
        c0 = low[0]
        roots = [0] if c0 == 0 else [s * k for k in range(1, abs(c0) + 1)
                                     if c0 % k == 0 for s in (1, -1)]
        if degree == 1 or not any(sum(c * r**i for i, c in enumerate(low + [1])) == 0
                                  for r in roots):
            return Poly([Fraction(c) for c in low] + [Fraction(1)])


def test_derivative_matches_the_two_gcd_reference():
    """One gcd of d and d' gives the reduced derivative: equal to the
    reference that reduces by a gcd with the numerator, on denominators
    with repeated irreducible factors of degree 1 to 3, numerators of
    degree 0 and up, and polynomials."""
    rng = random.Random(118)
    kinds = {"polynomial": 0, "constant numerator": 0, "repeated factor": 0}
    for k in range(300):
        num = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 7))])
        den = Poly([Fraction(1)])
        if k % 10:
            for _ in range(rng.randint(1, 3)):
                den = den * _irreducible_factor(rng, rng.randint(1, 3)) ** rng.randint(1, 3)
        f = RatFun(num, den)
        kinds["polynomial"] += f.den.is_one
        kinds["constant numerator"] += f.num.is_constant and not f.den.is_one
        kinds["repeated factor"] += any(m > 1 for _, m in squarefree_decomposition(f.den))
        got = f.derivative()
        assert got == derivative_by_two_gcds(f)
        assert poly_gcd(got.num, got.den).is_one and got.den.lc == 1
    assert min(kinds.values()) >= 20, kinds


def test_parse_render_round_trip():
    rng = random.Random(109)
    for _ in range(150):
        f = rand_ratfun(rng, 6)
        assert parse_ratfun(f.render("x"), "x") == f


def test_parse_ratfun_rejects_garbage():
    from varred.expr import ExprError
    for text in ("", "1 +", "x y", "q1**2", "1/(x", "2^x"):
        with pytest.raises(ExprError):
            parse_ratfun(text, "x")


def test_partial_fractions_recombine():
    """The oracle's partial fractions sum back to f."""
    rng = random.Random(110)
    for _ in range(120):
        f = rand_ratfun(rng, 6)
        assert partial_fractions(f).recombine() == f


def test_hermite_split_reconstruction_and_simple_poles():
    """f = r' + l with l having only simple finite poles, on 500 random
    rational functions."""
    rng = random.Random(111)
    for _ in range(500):
        f = rand_ratfun(rng, 8)
        split = hermite_split(f)
        assert split.r.derivative() + split.l == f
        if not split.l.is_zero:
            for q, mult in squarefree_decomposition(split.l.den):
                assert mult == 1


def test_hermite_split_polynomial_integrand_has_no_log_part():
    f = parse_ratfun("x^3 - 2*x + 5")
    split = hermite_split(f)
    assert split.l.is_zero
    assert split.r.derivative() == f


def test_hermite_split_pure_log_integrand_untouched():
    f = parse_ratfun("3/x + 1/(x - 2)")
    split = hermite_split(f)
    assert split.r.is_zero
    assert split.l == f


# ---- the scalar kernels against their one-term-at-a-time references -------

# monic irreducibles; the squarefree factors below are products of them
_IRREDUCIBLES = [Poly([0, 1]), Poly([-1, 1]), Poly([3, 1]), Poly([1, 0, 1]),
                 Poly([-2, 0, 1]), Poly([-2, 0, 0, 1]), Poly([Fraction(5, 2), 1])]


def _scalar_coeff(rng):
    """A small signed fraction, or one with a numerator and a denominator
    of up to 40 bits."""
    if rng.random() < 0.3:
        return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _scalar_poly(rng, deg):
    return Poly([_scalar_coeff(rng) for _ in range(deg + 1)])


def _product(polys):
    out = Poly([1])
    for p in polys:
        out = out * p
    return out


def _hermite_input(rng):
    """(f, sqf): f = P + R' + L, with R over prod q^(m-1) and L over prod q,
    where the squarefree factors q are products of one or two irreducibles
    and m runs 1 to 4.  L has poles at a random nonempty subset of the
    irreducibles only, so its share of the numerator over q vanishes at
    the others; P, the polynomial part, is zero in half the inputs."""
    pool = rng.sample(_IRREDUCIBLES, len(_IRREDUCIBLES))
    sqf = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 2)
        sqf.append((pool[:k], rng.choice([1, 2, 3, 4])))
        pool = pool[k:]
    rden = _product(_product(parts) ** (m - 1) for parts, m in sqf)
    r = RatFun(_scalar_poly(rng, rng.randint(0, max(rden.degree - 1, 0))), rden)
    parts = [p for ps, _ in sqf for p in ps]
    l = RatFun.const(0)
    for p in rng.sample(parts, rng.randint(1, len(parts))):
        l = l + RatFun(_scalar_poly(rng, p.degree - 1), p)
    f = r.derivative() + l
    if rng.random() < 0.5:
        f = f + RatFun.from_poly(_scalar_poly(rng, rng.randint(0, 3)))
    return f


def test_hermite_split_matches_the_running_sum_reference():
    """One normalization over the product of the denominators gives the
    same canonical R and L as adding one term per pole order, on 260 seeded
    inputs that cover poles of order 3 and more, several squarefree
    factors, a zero polynomial part, large and negative coefficients and
    residues that vanish at an irreducible factor of a squarefree q."""
    rng = random.Random(1901)
    seen = {"order3": 0, "several": 0, "no_poly_part": 0, "shared": 0}
    for k in range(260):
        f = _hermite_input(rng) if k % 5 else rand_ratfun(rng, 8)
        got = hermite_split(f)
        assert got == hermite_split_by_sums(f), k
        sqf = squarefree_decomposition(f.den)
        seen["order3"] += any(m >= 3 for _, m in sqf)
        seen["several"] += len(sqf) >= 2
        seen["no_poly_part"] += f.num.is_zero or f.num.degree < f.den.degree
        seen["shared"] += not got.l.is_zero and any(
            q.degree > poly_gcd(q, got.l.den).degree > 0 for q, m in sqf if m >= 2)
    assert min(seen.values()) >= 20, seen


def test_equation_rows_match_the_product_reference():
    """The rows built as shifts of two polynomials equal the rows built
    from their five products each, on 200 seeded equations."""
    rng = random.Random(1902)
    for k in range(200):
        gamma = RatFun(_scalar_poly(rng, rng.randint(0, 3)),
                       _product(rng.sample(_IRREDUCIBLES, rng.randint(1, 3))))
        if gamma.is_zero:
            gamma = RatFun.const(Fraction(-7, 3))
        beta = RatFun(_scalar_poly(rng, rng.randint(0, 4)),
                      _product(q ** rng.randint(1, 3)
                               for q in rng.sample(_IRREDUCIBLES, rng.randint(0, 3))))
        w = _product(q ** rng.randint(1, 3)
                     for q in rng.sample(_IRREDUCIBLES, rng.randint(0, 3)))
        udeg = rng.randint(0, 7)
        assert _equation_rows(gamma, beta, w, udeg) == \
            equation_rows_by_products(gamma, beta, w, udeg), k


def test_rendering_matches_the_fraction_reference():
    """Text read off the int numerators equals text printed through
    Fraction coefficients, for 300 seeded polynomials and rational
    functions with large, negative and unit coefficients."""
    rng = random.Random(1903)
    for k in range(300):
        var = rng.choice(["x", "t"])
        p = _scalar_poly(rng, rng.randint(0, 6))
        if rng.random() < 0.3:
            p = p + Poly([0, 0, 1]) - Poly([0, 1])
        assert poly_to_text(p, var) == fraction_poly_to_text(p, var), k
        den = _scalar_poly(rng, rng.randint(0, 4))
        if den.is_zero:
            den = Poly([Fraction(-3, 7)])
        f = RatFun(p, den)
        assert f.render(var) == fraction_render(f, var), k


def test_as_log_derivative_recognizes_scaled_logs():
    rng = random.Random(112)
    hits = 0
    for _ in range(100):
        w = rand_poly(rng, rng.randint(1, 4), allow_zero=False)
        if w.is_constant:
            continue
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        f = RatFun(w.derivative(), w).scale(c)
        got = as_log_derivative(f)
        assert got is not None
        cc, ww = got
        # c * w'/w == cc * ww'/ww exactly
        assert RatFun(ww.num.derivative(), ww.num).scale(cc) == f
        hits += 1
    assert hits > 50


def test_as_log_derivative_rejects_non_logs():
    assert as_log_derivative(parse_ratfun("1/x^2")) is None
    assert as_log_derivative(parse_ratfun("x")) is None
    assert as_log_derivative(parse_ratfun("0")) is None


def test_as_log_derivative_bounds_the_degree_of_w():
    """w has exponents in the ratio of the residues: 1/x + k/(x - 1) is the
    log derivative of x (x - 1)^k, of degree k + 1, which is formed up to
    16 deg(den) = 32 and refused above, before any power is taken."""
    c, w = as_log_derivative(parse_ratfun("1/x + 31/(x - 1)"))
    assert c == 1 and w.num.degree == 32 and w.den.is_one
    for k in (32, 3000, 10**9):
        assert as_log_derivative(parse_ratfun("1/x + %d/(x - 1)" % k)) is None
    c, w = as_log_derivative(parse_ratfun("-31/x + 1/(x - 1)"))
    assert (w.num.degree, w.den.degree) == (1, 31)
    assert as_log_derivative(parse_ratfun("-32/x + 1/(x - 1)")) is None


def test_as_log_derivative_matches_the_partial_fraction_oracle():
    """The residue read through the part over each simple pole gives what
    the full partial-fraction decomposition gives, on seeded scaled w'/w
    with several factors, irreducible quadratics and cubics and negative
    exponents, and on non-logs: double poles, polynomial parts and
    residues that are not rational multiples of q'."""
    rng = random.Random(2401)
    kinds = {"log": 0, "negative exponent": 0, "quadratic": 0, "not a log": 0}
    cases = [parse_ratfun(t) for t in ("x/(x^2 - 2) + 1/x^2", "1/x^2", "x", "3",
                                       "1/(x^2 + 1)", "x + 1/x", "(x + 1)/(x^2 - 2)")]
    for k in range(150):
        w = RatFun.const(1)
        for q in rng.sample(_IRREDUCIBLES, rng.randint(1, 4)):
            e = rng.choice([-3, -2, -1, 1, 1, 2, 3])
            w = w * RatFun.from_poly(q ** abs(e)) if e > 0 else w / RatFun.from_poly(q ** -e)
        f = RatFun(w.num.derivative() * w.den - w.num * w.den.derivative(),
                   w.num * w.den).scale(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 9)))
        if k % 3 == 1:
            f = f + RatFun(Poly([rng.randint(1, 5)]), rng.choice(_IRREDUCIBLES) ** 2)
        elif k % 3 == 2:
            f = f + RatFun(Poly([rng.randint(-3, 3), rng.randint(1, 3)]),
                           rng.choice(_IRREDUCIBLES[3:]))
        cases.append(f)
    for f in cases:
        got = as_log_derivative(f)
        assert got == as_log_derivative_by_partial_fractions(f), f
        if got is None:
            kinds["not a log"] += 1
            continue
        c, w = got
        assert RatFun(w.num.derivative() * w.den - w.num * w.den.derivative(),
                      w.num * w.den).scale(c) == f
        kinds["log"] += 1
        kinds["negative exponent"] += not w.den.is_one
        kinds["quadratic"] += any(q.degree >= 2 for q, _ in factor_irreducible(f.den)[1])
    assert min(kinds.values()) >= 20, kinds


def test_part_over_refuses_a_factor_that_is_not_coprime():
    x = Poly.variable()
    assert _part_over(Poly([1]), x ** 2 * (x - Poly([1])), x ** 2) == Poly([-1, -1])
    with pytest.raises(ValueError, match="denominator factors not coprime"):
        _part_over(Poly([1]), x ** 3, x)


def test_solve_first_order_rational_round_trip():
    """gamma = g' - lam*beta0*g has the rational solution g; the solver must
    find exactly it when the homogeneous equation has no rational solution."""
    rng = random.Random(113)
    x = Poly.variable()
    beta0 = RatFun(Poly([5]), x.scale(3))  # 5/(3x): e^{lam*int} is x^(5lam/3)
    solved = 0
    for _ in range(60):
        g = rand_ratfun(rng, 3)
        if g.is_zero:
            continue
        lam = Fraction(rng.choice([1, 2, -1, 3]), 1)
        gamma = g.derivative() - beta0.scale(lam) * g
        got = solve_first_order_rational(beta0.scale(lam), gamma)
        assert got is not None
        diff = got - g
        # any two solutions differ by a rational solution of y' = lam*beta0*y,
        # i.e. a rational multiple of x^(5lam/3), which is not rational here
        assert diff.is_zero
        solved += 1
    assert solved >= 50


def test_solve_first_order_rational_with_a_shared_pole_base():
    """Equations solved inside one shared_factors() block, whose base grows
    across them, give what they give outside any block, on equations with
    a known rational solution and on random ones."""
    rng = random.Random(1403)
    x = Poly.variable()
    one = Poly([1])
    dens = [x, x ** 2 + one, x - Poly([3]), x.scale(2) + Poly([5])]
    equations = []
    for _ in range(60):
        beta0 = RatFun(Poly([rng.randint(1, 5)]), rng.choice(dens))
        gamma = beta0.scale(rng.choice([1, 2, -1, 3]))
        den = one
        for q in rng.sample(dens, rng.randint(1, 3)):
            den = den * q ** rng.randint(1, 3)
        f = RatFun(rand_poly(rng, rng.randint(0, 4)), den)
        equations.append((gamma, f.derivative() - gamma * f if rng.random() < 0.5 else f))
    outside = [solve_first_order_rational(gamma, beta) for gamma, beta in equations]
    with shared_factors():
        inside = [solve_first_order_rational(gamma, beta) for gamma, beta in equations]
    assert inside == outside
    assert 0 < sum(g is not None for g in inside) < 60


def test_shared_factors_blocks_nest_and_drop_their_base(monkeypatch):
    """factor_irreducible answers through the block's base: a repeated input
    and a product of factors already met are not factored again.  A nested
    block reuses the base, and the outermost block drops it, also when an
    exception leaves it."""
    x = Poly.variable()
    one = Poly([1])
    full = poly_module._factor_full
    factored = []

    def counted(p):
        factored.append(p)
        return full(p)

    monkeypatch.setattr(poly_module, "_factor_full", counted)
    p = (x ** 2 + one) ** 2 * (x - Poly([3]))
    assert poly_module._FACTOR_BASE.get() is None
    with shared_factors():
        base = poly_module._FACTOR_BASE.get()
        assert factor_irreducible(p) == full(p)
        with shared_factors():
            assert poly_module._FACTOR_BASE.get() is base
            assert factor_irreducible(p.scale(-2)) == full(p.scale(-2))
            assert factor_irreducible(x - Poly([3])) == full(x - Poly([3]))
        assert poly_module._FACTOR_BASE.get() is base
    assert factored == [p.monic()]
    assert poly_module._FACTOR_BASE.get() is None
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        with shared_factors():
            assert poly_module._FACTOR_BASE.get() is not None
            factor_irreducible(Poly())
    assert poly_module._FACTOR_BASE.get() is None
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        factor_irreducible(Poly())
    # outside a block every call factors from scratch
    factored.clear()
    assert factor_irreducible(p) == factor_irreducible(p)
    assert factored == [p, p]


def test_solve_first_order_rational_sets_free_unknowns_to_zero():
    # y' = gamma*y has the rational solution x^2 (resp. x^3) here, so the
    # linear system has a free unknown; the solver sets it to 0
    for gamma, beta, want in [("2/x", "1", "-x"), ("3/x", "x", "-x^2"),
                              ("2/x", "1/x", "-1/2")]:
        got = solve_first_order_rational(parse_ratfun(gamma), parse_ratfun(beta))
        assert got == parse_ratfun(want)


def test_solve_first_order_rational_branches():
    """gamma = 0 (a Hermite split), a pole of order 2 in gamma and gamma of
    nonnegative degree at infinity; each solution is checked by substitution."""
    for gamma, beta, want in [("0", "2*x", "x^2"), ("0", "1/x", None),
                              ("1/x^2", "-1/x^2 - 1/x^3", "1/x"),
                              ("x", "-x^3 + x", "x^2 + 1"), ("x^2 + 1", "1", None)]:
        gamma, beta = parse_ratfun(gamma), parse_ratfun(beta)
        got = solve_first_order_rational(gamma, beta)
        if want is None:
            assert got is None
        else:
            assert got == parse_ratfun(want)
            assert got.derivative() == gamma * got + beta


def test_solve_first_order_rational_unsolvable():
    # y' = y/x + 1 has general solution x*log(x) + c*x: not rational
    beta = parse_ratfun("1/x")
    gamma = parse_ratfun("1")
    assert solve_first_order_rational(beta, gamma) is None
