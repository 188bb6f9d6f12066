"""The package imports only the standard library and itself, one
module keeps the time budget, one keeps the pole base, one keeps the
span's internals, the gauge and the reduction cut blocks in one way,
gauges are composed in the pipeline alone, the initial algebra is split
once, and every name it exports resolves."""

import ast
import fractions
import pathlib
import sys

import varred
from varred import rationals

ALLOWED = set(sys.stdlib_module_names) | {"varred"}


def parsed_sources():
    """(file name, syntax tree) of every module in src/varred."""
    for path in sorted(pathlib.Path(varred.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_imports_are_stdlib_or_varred():
    """Every absolute import in src/varred, those inside functions too, has
    its root in the standard library or varred, and the rationals are the
    stdlib Fraction."""
    outside = []
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [(name, node.lineno, r) for r in roots if r not in ALLOWED]
    assert outside == []
    assert rationals.QQ is fractions.Fraction


def test_the_time_budget_lives_in_errors():
    """No function in src/varred takes a deadline parameter, check_deadline
    is called without arguments, and only errors.py reads time.monotonic:
    a phase reads the budget that errors.time_budget set, it is not handed
    one."""
    found = []
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "deadline" for p in params):
                    found.append((name, node.lineno, "deadline parameter"))
            elif isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee == "check_deadline" and (node.args or node.keywords):
                    found.append((name, node.lineno, "check_deadline with arguments"))
            elif name != "errors.py" and (
                    isinstance(node, ast.Attribute) and node.attr == "monotonic"
                    or isinstance(node, ast.ImportFrom) and node.module == "time"
                    and any(alias.name == "monotonic" for alias in node.names)):
                found.append((name, node.lineno, "time.monotonic read"))
    assert found == []


def test_the_pole_base_lives_in_poly():
    """Outside poly.py no module names FactorBase, the ContextVar that holds
    the shared base or the full factorization behind it, and no function
    takes a poles parameter: every factorization asks factor_irreducible,
    and a computation shares its base by entering poly.shared_factors()."""
    private = {"FactorBase", "_FACTOR_BASE", "_factor_full", "_factor_squarefree"}
    found = []
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "poles" for p in params):
                    found.append((name, node.lineno, "poles parameter"))
            elif isinstance(node, ast.keyword) and node.arg == "poles":
                found.append((name, node.value.lineno, "poles argument"))
            elif name != "poly.py":
                if isinstance(node, ast.Name):
                    used = {node.id}
                elif isinstance(node, ast.Attribute):
                    used = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    used = {alias.name for alias in node.names}
                else:
                    continue
                found += [(name, node.lineno, n) for n in used & private]
    assert found == []


def test_the_span_internals_stay_in_matrices():
    """No module other than matrices.py touches SpanQQ._reduce, _insert,
    _kept or _combos: the closure, the frames and the solvers read a span
    through add, add_coords, add_kept, coords_of and coords_in_added."""
    private = {"_reduce", "_insert", "_kept", "_combos"}
    found = [(name, node.lineno, node.attr) for name, tree in parsed_sources()
             if name != "matrices.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def test_gauge_and_reduction_cut_blocks_with_ratmat_cut():
    """gauge.py and reduction.py make no .submatrix( call: every block cut
    goes through RatMat.cut, which refuses a non-square matrix or a cut
    outside it instead of truncating."""
    found = []
    for name, tree in parsed_sources():
        if name in ("gauge.py", "reduction.py"):
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "submatrix"]
    assert found == []


def test_gauges_are_composed_in_the_pipeline_alone():
    """.then( is called in src/varred only inside
    reduction.reduce_block_systems, and no function takes an assembly or
    initial_matrix parameter: the assembly gauge and the sweep's Id + S are
    composed in one place, and no entry point takes a caller's assembly."""
    found = []
    for name, tree in parsed_sources():
        pipeline = set()
        if name == "reduction.py":
            pipeline = {id(node) for top in tree.body
                        if isinstance(top, ast.FunctionDef) and top.name == "reduce_block_systems"
                        for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [(name, node.lineno, p.arg) for p in params
                          if p is not None and p.arg in ("assembly", "initial_matrix")]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "then" and id(node) not in pipeline):
                found.append((name, node.lineno, ".then("))
    assert found == []


def test_the_initial_algebra_is_split_once():
    """split_diag_sub is called in src/varred only inside
    reduction._check_monogenous, and no module but liealgebra.py names
    diag_projection: a reduction splits its generators once, and the
    closure's brackets, being strictly subdiagonal, need no projection."""
    found = []
    for name, tree in parsed_sources():
        check = set()
        if name == "reduction.py":
            check = {id(node) for top in tree.body
                     if isinstance(top, ast.FunctionDef) and top.name == "_check_monogenous"
                     for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in check and (
                    getattr(node.func, "id", None) == "split_diag_sub"
                    or getattr(node.func, "attr", None) == "split_diag_sub"):
                found.append((name, node.lineno, "split_diag_sub("))
            elif name != "liealgebra.py" and (
                    getattr(node, "id", None) == "diag_projection"
                    or getattr(node, "attr", None) == "diag_projection"
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name == "diag_projection" for alias in node.names)):
                found.append((name, node.lineno, "diag_projection"))
    assert found == []


def test_kernels_are_built_in_matrices():
    """No module other than matrices.py calls nullspace(: kernels, and the
    Jordan chains built on them, are made in one place (kernel_chains)."""
    found = []
    for name, tree in parsed_sources():
        if name != "matrices.py":
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and (
                          getattr(node.func, "id", None) == "nullspace"
                          or getattr(node.func, "attr", None) == "nullspace")]
    assert found == []


def test_every_export_resolves():
    """Each name in varred.__all__ is listed once and is an attribute of the
    package, so a name whose definition was deleted cannot stay exported."""
    assert [n for n in varred.__all__ if not hasattr(varred, n)] == []
    assert len(set(varred.__all__)) == len(varred.__all__)
