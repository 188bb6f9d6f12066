"""Bundled example data and golden matrices, with light self-checks.

The package ships a worked pipeline: a cubic two-degree-of-freedom
Hamiltonian with a rational particular curve, the gauge that reduces its
first-order variational system, and golden copies of the matrices the
pipeline must reproduce (entrywise or structurally, see each file).
"""

from importlib import resources

from .errors import PreconditionFailure, UnsupportedRegime
from .fileformats import HamiltonianFile, SystemFile, parse_hamiltonian, parse_system
from .gauge import GaugeMatrix, apply_gauge
from .liealgebra import lie_closure, wei_norman
from .matrices import nilpotent_jordan_chains
from .poly import Poly
from .ratfun import RatFun
from .varequations import build_lve

FIXTURES = {
    "henon-heiles": "henon_heiles.ham",
    "henon-heiles-p1": "henon_heiles_p1.sys",
    "first-order": "golden_a1.sys",
    "first-order-reduced": "golden_a1_reduced.sys",
    "order2-adjoint": "golden_psi20.sys",
    "order2-reduced": "golden_c0tilde.sys",
    "nilpotent-pair": "nilpotent_pair.sys",
}


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise KeyError("unknown fixture %r (have: %s)"
                       % (name, ", ".join(sorted(FIXTURES))))
    ref = resources.files("varred") / "data" / FIXTURES[name]
    return ref.read_text(encoding="utf-8")


def load_hamiltonian(name: str = "henon-heiles") -> HamiltonianFile:
    return parse_hamiltonian(fixture_text(name))


def load_system(name: str) -> SystemFile:
    return parse_system(fixture_text(name))


def load_p1() -> GaugeMatrix:
    """The shipped gauge that reduces the example's first-order system."""
    return GaugeMatrix.from_p(load_system("henon-heiles-p1").matrix)


def _const_rank_profile(c):
    """Ranks of c, c^2, ... down to the first zero power.

    A Jordan chain of length s contributes max(s - j, 0) to the rank of c^j.
    """
    try:
        sizes = [len(ch) for ch in nilpotent_jordan_chains(c)]
    except UnsupportedRegime:
        raise PreconditionFailure("matrix is not nilpotent") from None
    return [sum(max(s - j, 0) for s in sizes) for j in range(1, max(sizes, default=0) + 1)]


def rank_profile(mat, var_factor):
    """Rank profile of the constant part of mat = var_factor * C."""
    scaled = mat.scale(var_factor)
    if not scaled.is_constant():
        raise PreconditionFailure("matrix is not a rational multiple of a "
                                  "constant matrix")
    return _const_rank_profile(scaled.to_const())


def verify_fixtures() -> list:
    """Cross-check the shipped files against each other.

    Returns a list of (check name, detail) pairs; raises
    PreconditionFailure on the first inconsistency.
    """
    results = []

    hf = load_hamiltonian()
    system = hf.build_system()  # raises if the curve fails the field check
    results.append(("curve solves the rescaled field", "dof %d" % hf.dof))

    a1 = build_lve(system, 1)[0].matrix
    golden_a1 = load_system("first-order").matrix
    if a1 != golden_a1:
        raise PreconditionFailure("built first-order system does not match "
                                  "the golden copy")
    results.append(("first-order system matches golden copy", "4x4"))

    p1 = load_p1()
    reduced = apply_gauge(a1, p1)
    golden_red = load_system("first-order-reduced").matrix
    if reduced != golden_red:
        raise PreconditionFailure("gauged first-order system does not match "
                                  "the golden reduced copy")
    results.append(("gauge reproduces the reduced form", "4x4"))

    psi = load_system("order2-adjoint").matrix.to_const()
    prof = _const_rank_profile(psi)
    if prof != [7, 4, 2, 0]:
        raise PreconditionFailure("order-2 adjoint golden file has rank "
                                  "profile %s" % prof)
    results.append(("order-2 adjoint is nilpotent", "rank profile %s" % prof))

    sf = load_system("order2-reduced")
    wn = wei_norman(sf.matrix)
    lie = lie_closure(wn.matrices())
    if wn.dim != 1 or lie.dim != 1 or not lie.is_abelian():
        raise PreconditionFailure("order-2 reduced golden file should have a "
                                  "one-dimensional abelian algebra")
    f = wn.functions()[0]
    one = RatFun(Poly([1]), Poly([1]))
    results.append(("order-2 reduced form is monogenous abelian",
                    "rank profile %s" % rank_profile(sf.matrix, one / f)))

    pair = load_system("nilpotent-pair")
    wn = wei_norman(pair.matrix)
    lie = lie_closure(wn.matrices())
    if wn.dim != 2 or lie.dim != 5 or lie.is_abelian():
        raise PreconditionFailure("bracket-pair fixture should close to a "
                                  "five-dimensional non-abelian algebra")
    results.append(("bracket pair closes to dimension 5, non-abelian",
                    "terms %d" % wn.dim))

    return results
