"""Hamiltonian fields and their variational systems along a rational curve.

Given a polynomial Hamiltonian H(q, p) with n degrees of freedom and a
particular solution whose components are rational in the independent
variable x (after a change of time scale dt = dx / sigma(x)), this module
builds the linearized flow on monomials of the variations up to a chosen
degree m.  States of degree k are the monomials delta^alpha with |alpha| = k;
blocks are ordered by decreasing degree, which makes the system matrix block
lower triangular and literally self-similar: the trailing blocks form the
order m-1 system.  The derivation on monomials that builds it is the one of
the symmetric powers (gauge.monomial_derivation), so the degree-k diagonal
block is sym^k of the first-order matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .rationals import QQ, QQ0, QQ1
from .ratfun import RatFun
from .matrices import RatMat
from .gauge import SymIndex, monomial_derivation
from .expr import parse_expression
from .errors import PreconditionFailure


class MPoly:
    """Polynomial in several variables over Q, as {exponent tuple: coeff}."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        self.n_vars = n_vars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = QQ(c)
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(n_vars: int, value) -> "MPoly":
        return MPoly(n_vars, {(0,) * n_vars: value})

    @staticmethod
    def variable(n_vars: int, i: int) -> "MPoly":
        e = [0] * n_vars
        e[i] = 1
        return MPoly(n_vars, {tuple(e): QQ1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return QQ0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def render(self, names) -> str:
        """Canonical text form (highest total degree first), parseable back."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
        parts = []
        for e, c in items:
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = "%s*%s" % (mag, body)
            parts.append(("-" if c < 0 else "+", term))
        sign, term = parts[0]
        text = ("-" if sign == "-" else "") + term
        for sign, term in parts[1:]:
            text += " %s %s" % (sign, term)
        return text

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MPoly({self.n_vars} vars, {len(self.terms)} terms)"

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, QQ0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        r = MPoly(self.n_vars)
        r.terms = out
        return r

    def __neg__(self):
        r = MPoly(self.n_vars)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, QQ0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = MPoly(self.n_vars)
        r.terms = out
        return r

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = MPoly.const(self.n_vars, QQ1)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:  # square only while bits remain
                b = b * b
        return r

    def power_size(self, n: int) -> int:
        """A bound on the number of terms of self**n: the monomials of degree
        n in the terms of self, and those of its degree in the variables."""
        if not self.terms:
            return 1
        degree = max(sum(e) for e in self.terms)
        return min(math.comb(len(self.terms) + n - 1, n),
                   math.comb(self.n_vars + n * degree, self.n_vars))

    def product_size(self, other) -> int:
        """A bound on the number of terms of self*other: the products of
        their terms, and the monomials of their summed degree in the
        variables."""
        if not (self.terms and other.terms):
            return 0
        degree = max(sum(e) for e in self.terms) + max(sum(e) for e in other.terms)
        return min(len(self.terms) * len(other.terms),
                   math.comb(self.n_vars + degree, self.n_vars))

    def __truediv__(self, other):
        if isinstance(other, MPoly):
            if not other.is_constant():
                raise ValueError("division by a non-constant polynomial")
            other = other.constant_value()
        c = QQ(other)
        if not c:
            raise ZeroDivisionError("division by zero")
        return self.scale(QQ1 / c)

    def scale(self, c) -> "MPoly":
        c = QQ(c)
        r = MPoly(self.n_vars)
        if c:
            r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def diff(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = c * e[i]
        r = MPoly(self.n_vars)
        r.terms = out
        return r

    def eval_rational(self, point) -> RatFun:
        """Evaluate at a point with rational-function coordinates."""
        powers = [{0: RatFun.const(1)} for _ in range(self.n_vars)]

        def pw(i, k):
            cache = powers[i]
            if k not in cache:
                cache[k] = pw(i, k - 1) * point[i]
            return cache[k]

        acc = RatFun.const(0)
        for e, c in self.terms.items():
            term = RatFun.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * pw(i, k)
            acc = acc + term
        return acc


def parse_mpoly(text: str, names) -> MPoly:
    """Parse a polynomial expression in the given variable names."""
    names = list(names)
    nv = len(names)
    lookup = {nm: MPoly.variable(nv, i) for i, nm in enumerate(names)}
    return parse_expression(text, lookup.get, lambda v: MPoly.const(nv, v))


# ---- Hamiltonian structure -----------------------------------------------------


def canonical_names(dof: int):
    """Phase-space variable names, position block first: q1..qn, p1..pn."""
    return [f"q{i + 1}" for i in range(dof)] + [f"p{i + 1}" for i in range(dof)]


def hamiltonian_vector_field(h: MPoly, dof: int):
    """X_H = (dH/dp, -dH/dq) in the (q, p) ordering."""
    if h.n_vars != 2 * dof:
        raise ValueError("variable count does not match the degrees of freedom")
    field = [h.diff(dof + i) for i in range(dof)]
    field += [-h.diff(i) for i in range(dof)]
    return field


@dataclass
class ParticularSolution:
    """A curve x -> (q(x), p(x)) with the time rescaling d/dt = sigma d/dx."""

    components: list
    sigma: RatFun


def check_solution(field, sol: ParticularSolution) -> None:
    """Verify sigma * phi' = X(phi) exactly; PreconditionFailure otherwise."""
    names = canonical_names(len(field) // 2)
    for i, xi in enumerate(field):
        lhs = sol.sigma * sol.components[i].derivative()
        rhs = xi.eval_rational(sol.components)
        if not lhs == rhs:
            raise PreconditionFailure(
                f"curve is not a solution of the Hamiltonian field: "
                f"component {names[i]} fails the substitution check"
            )


@dataclass
class HamiltonianSystem:
    dof: int
    hamiltonian: MPoly
    field: list
    solution: ParticularSolution

    @staticmethod
    def build(h: MPoly, dof: int, components, sigma: RatFun) -> "HamiltonianSystem":
        field = hamiltonian_vector_field(h, dof)
        sol = ParticularSolution(list(components), sigma)
        check_solution(field, sol)
        return HamiltonianSystem(dof, h, field, sol)


# ---- variational systems -------------------------------------------------------


# Largest system that is parsed or built.  It is far above every bundled
# input (the Henon-Heiles LVE^4 has size 69), and a zero matrix of this size
# already holds a million entries.
MAX_SYSTEM_SIZE = 1000


def lve_block_sizes(n_vars: int, order: int):
    """Sizes of the degree blocks, highest degree first."""
    return [math.comb(n_vars + k - 1, k) for k in range(order, 0, -1)]


def lve_dimension(n_vars: int, order: int) -> int:
    """Sum of the block sizes, in closed form: C(n_vars + order, order) - 1."""
    return math.comb(n_vars + order, n_vars) - 1 if order > 0 else 0


@dataclass
class BlockSystem:
    """A variational system of some order with its degree-block structure."""

    order: int
    matrix: RatMat
    block_sizes: list


def _taylor_coefficients(p: MPoly, point):
    """Nonzero (d^beta p / beta!)(point) for |beta| >= 1, as {beta: RatFun}."""
    nv = p.n_vars
    out = {}
    seen = set()
    stack = [((0,) * nv, p)]
    while stack:
        beta, q = stack.pop()
        for i in range(nv):
            d = list(beta)
            d[i] += 1
            nb = tuple(d)
            if nb in seen:
                continue
            seen.add(nb)
            dq = q.diff(i)
            if dq.is_zero:
                continue
            val = dq.eval_rational(point)
            fact = QQ1
            for k in nb:
                fact *= math.factorial(k)
            if not val.is_zero:
                out[nb] = val.scale(QQ1 / fact)
            stack.append((nb, dq))
    return out


def variational_matrix(field, sol: ParticularSolution, order: int) -> RatMat:
    """System matrix of the order-m variational equations along the curve.

    The variations w obey w_i' = (1/sigma) sum_beta (d^beta X_i)(phi)/beta!
    w^beta, and gauge.monomial_derivation carries that onto the monomials of
    degrees 1 to the truncation order; a column above the order is dropped.
    Degree blocks are ordered highest first.
    """
    nv = len(field)
    exps = [alpha for k in range(order, 0, -1) for alpha in SymIndex(nv, k).exponents]
    inv_sigma = RatFun.const(1) / sol.sigma
    taylor = [_taylor_coefficients(xi, sol.components) for xi in field]
    terms = [{beta: val * inv_sigma for beta, val in t.items()} for t in taylor]
    return monomial_derivation({alpha: r for r, alpha in enumerate(exps)}, terms)


def nested_systems(matrix: RatMat, blocks) -> list:
    """Trailing subsystems of a block system, lowest order first: dropping
    the leading degree block leaves the system of the previous order."""
    n = matrix.rows
    out = []
    for m in range(1, len(blocks) + 1):
        tail = list(blocks[len(blocks) - m:])
        s = sum(tail)
        out.append(BlockSystem(m, matrix.submatrix(n - s, n, n - s, n), tail))
    return out


def build_lve(system: HamiltonianSystem, order: int):
    """Variational systems of orders 1..order as BlockSystem values, sliced
    out of the top order; an order above MAX_SYSTEM_SIZE is refused first."""
    if order < 1:
        raise PreconditionFailure("order must be at least 1, got %d" % order)
    nv = 2 * system.dof
    size = lve_dimension(nv, order)
    if size > MAX_SYSTEM_SIZE:
        raise PreconditionFailure(
            "order %d needs a system of size %d, above the limit of %d"
            % (order, size, MAX_SYSTEM_SIZE))
    mat = variational_matrix(system.field, system.solution, order)
    return nested_systems(mat, lve_block_sizes(nv, order))
