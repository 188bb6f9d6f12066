"""Command-line driver and the line-oriented file formats."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from varred import cli, fixtures, liealgebra, poly, reduction
from varred.cli import main
from varred.errors import FileFormatError
from varred.expr import MAX_DIGITS, MAX_EXPONENT, MAX_POWER_TERMS
from varred.fileformats import (
    SystemFile,
    parse_hamiltonian,
    parse_report,
    parse_system,
    render_hamiltonian,
    render_system,
)
from varred.liealgebra import lie_closure, wei_norman
from varred.matrices import RatMat
from varred.poly import Poly
from varred.ratfun import RatFun, parse_ratfun
from varred.varequations import MAX_SYSTEM_SIZE, parse_mpoly


def rf(text):
    return parse_ratfun(text)


def rand_ratfun(rng, deg=2):
    num = Poly([Fraction(rng.randint(-5, 5)) for _ in range(deg + 1)])
    den = Poly([Fraction(rng.randint(-2, 2)) for _ in range(deg)]
               + [Fraction(1)])
    return RatFun(num, den)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---- file formats ----------------------------------------------------------------


def test_system_file_round_trip():
    rng = random.Random(501)
    for _ in range(20):
        n = rng.randint(1, 5)
        mat = RatMat([[rand_ratfun(rng) if rng.random() < 0.5 else rf("0")
                       for _ in range(n)] for _ in range(n)])
        blocks = None
        if rng.random() < 0.5:
            blocks = []
            left = n
            while left:
                b = rng.randint(1, left)
                blocks.append(b)
                left -= b
        sf = SystemFile("x", mat, blocks)
        back = parse_system(render_system(sf))
        assert back.matrix == mat
        assert back.variable == "x"
        assert back.blocks == blocks


def test_system_file_rejections():
    good = "format = system v1\nvariable = x\nsize = 2\n"
    cases = [
        ("variable = x\nsize = 1\n", "must start with a format line"),
        ("format = system v2\n", "unsupported format"),
        (good + "entry 3 1 = 1\n", "outside"),
        (good + "entry 1 1 = 1\nentry 1 1 = 2\n", "appears twice"),
        (good + "entry 1 = 1\n", "row and a column"),
        (good + "entry 1 1 = x +\n", "line 4"),
        (good + "banana = 1\n", "unknown key"),
        # the key's first word must be exactly "entry"
        (good + "entryway 1 1 = x\n", "line 4: unknown key 'entryway 1 1'"),
        (good + "entry1 1 = x\n", "line 4: unknown key 'entry1 1'"),
        (good + "blocks = 1 2\n", "sum to 2"),
        # a repeated key is refused, not overwritten by its last value
        (good + "size = 1\n", "line 4: duplicate key 'size'"),
        (good + "variable = t\n", "line 4: duplicate key 'variable'"),
        (good + "blocks = 2\nblocks = 1 1\n", "line 5: duplicate key 'blocks'"),
        ("format = system v1\nvariable = x\n", "missing a positive size"),
        ("format = system v1\nvariable = x\nsize = %d\n" % (MAX_SYSTEM_SIZE + 1),
         "size %d is above the limit of %d" % (MAX_SYSTEM_SIZE + 1, MAX_SYSTEM_SIZE)),
        (good + "entry 1 1 = x^%d\n" % (MAX_EXPONENT + 1),
         "exponent %d is above the limit of %d" % (MAX_EXPONENT + 1, MAX_EXPONENT)),
        (good + "entry 1 1 = %s\n" % ("7" * (MAX_DIGITS + 1)),
         "longer than %d digits" % MAX_DIGITS),
        # superscripts pass str.isdigit() but not int()
        (good + "entry 1 1 = 2\u00b2\n", "unexpected character '\u00b2'"),
        (good + "entry 1 1 = x^\u00b2\n", "unexpected character '\u00b2'"),
    ]
    for text, snippet in cases:
        with pytest.raises(FileFormatError, match=snippet):
            parse_system(text)


def test_hamiltonian_file_round_trip():
    hf = parse_hamiltonian(fixtures.fixture_text("henon-heiles"))
    assert hf.dof == 2
    text = render_hamiltonian(hf)
    hf2 = parse_hamiltonian(text)
    assert render_hamiltonian(hf2) == text
    assert hf2.sigma == hf.sigma
    assert hf2.components == hf.components
    assert hf2.hamiltonian.terms == hf.hamiltonian.terms


def test_hamiltonian_rejections():
    cases = [
        ("dof = 2\n", "must start with a format line"),
        ("format = hamiltonian v1\nvariable = x\n", "missing dof"),
        ("format = hamiltonian v1\ndof = 0\n", "at least 1"),
        # a huge declared dof fails at its first missing key, without
        # building the 2*dof variable names first
        ("format = hamiltonian v1\ndof = 1000000000000\nvariable = x\n"
         "hamiltonian = 0\nq1 = 0\n", "missing 'q2'"),
    ]
    for text, snippet in cases:
        with pytest.raises(FileFormatError, match=snippet):
            parse_hamiltonian(text)


# ---- command line ----------------------------------------------------------------


def test_build_lve_writes_block_systems(tmp_path, capsys):
    ham = write(tmp_path / "hh.ham", fixtures.fixture_text("henon-heiles"))
    rc = main(["build-lve", ham, "--order", "2",
               "--out", str(tmp_path / "lve")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 2

    sf1 = parse_system((tmp_path / "lve" / "lve_order_1.sys").read_text())
    assert sf1.matrix.rows == 4
    assert sf1.blocks == [4]
    assert sf1.matrix == fixtures.load_system("first-order").matrix

    sf2 = parse_system((tmp_path / "lve" / "lve_order_2.sys").read_text())
    assert sf2.matrix.rows == 14
    assert sf2.blocks == [10, 4]
    # the trailing block of the order-2 system is the order-1 system
    assert sf2.matrix.submatrix(10, 14, 10, 14) == sf1.matrix


@pytest.mark.parametrize("order", ["0", "-1"])
def test_build_lve_refuses_orders_below_one(tmp_path, capsys, order):
    ham = write(tmp_path / "hh.ham", fixtures.fixture_text("henon-heiles"))
    out_dir = tmp_path / "lve"
    assert main(["build-lve", ham, "--order", order, "--out", str(out_dir)]) == 3
    assert "order must be at least 1, got %s" % order in capsys.readouterr().err
    assert not out_dir.exists()


def test_reduce_text_report_to_stdout(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys",
                 fixtures.fixture_text("first-order"))
    rc = main(["reduce", sys1, "--p1-fixture", "henon-heiles"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final Lie algebra dimension: 1" in out
    assert "abelian: yes" in out
    assert "verdict: abelian: no obstruction at this order" in out
    assert "integral tower (1 element):" in out


def test_reduce_is_deterministic(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    p1 = write(tmp_path / "p1.sys",
               fixtures.fixture_text("henon-heiles-p1"))
    for d in ("one", "two"):
        rc = main(["reduce", sys1, "--p1", p1, "--report", "structured",
                   "--out", str(tmp_path / d)])
        assert rc == 0
    capsys.readouterr()
    first = (tmp_path / "one" / "report_order_1.rpt").read_bytes()
    second = (tmp_path / "two" / "report_order_1.rpt").read_bytes()
    assert first == second


def test_structured_report_checks_out(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    rc = main(["reduce", sys1, "--p1-fixture", "henon-heiles",
               "--report", "structured", "--out", str(tmp_path / "rep")])
    assert rc == 0
    capsys.readouterr()
    parsed = parse_report(
        (tmp_path / "rep" / "report_order_1.rpt").read_text())
    meta = parsed["meta"]
    assert meta["verdict"].startswith("abelian")
    final = parsed["final_matrix"].matrix
    assert final == fixtures.load_system("first-order-reduced").matrix
    # the embedded matrix must reproduce the reported dimensions
    wn = wei_norman(final)
    lie = lie_closure(wn.matrices())
    assert wn.dim == int(meta["final-wei-norman-dim"])
    assert lie.dim == int(meta["final-lie-dim"])
    assert "tower" in parsed["sections"]
    assert "steps" in parsed["sections"]


def _poly_text(rng, deg, digits):
    low = 10 ** (digits - 1)
    return " + ".join("(%d)*x^%d" % (rng.choice((1, -1)) * rng.randrange(low, 10 * low), k)
                      for k in range(deg + 1))


def test_big_coefficient_quotient_parses_quickly():
    """A common factor of degree 16 with 300-digit coefficients cancels in
    well under a second: its gcd needs many more primes than the table."""
    rng = random.Random(1502)
    a, b, c = (_poly_text(rng, 16, 300) for _ in range(3))
    text = ("format = system v1\nvariable = x\nsize = 1\n"
            "entry 1 1 = ((%s)*(%s))/((%s)*(%s))\n" % (a, b, a, c))
    assert len(text) > 20000
    start = time.process_time()
    entry = parse_system(text).matrix.data[0][0]
    assert time.process_time() - start < 1.0
    assert entry == rf(b) / rf(c) and entry.den.degree == 16


@pytest.mark.parametrize("command", ["build-lve", "reduce"])
def test_unwritable_out_is_a_file_error(tmp_path, capsys, command):
    """An --out that is a regular file exits 2 with a message, and the
    file is left as it was."""
    taken = write(tmp_path / "taken", "a file, not a directory\n")
    if command == "build-lve":
        args = ["build-lve", write(tmp_path / "hh.ham", fixtures.fixture_text("henon-heiles"))]
        name = "lve_order_1.sys"
    else:
        args = ["reduce", write(tmp_path / "a1.sys", fixtures.fixture_text("first-order")),
                "--p1-fixture", "henon-heiles"]
        name = "report_order_1.txt"
    assert main(args + ["--out", taken]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot write %s: " % (tmp_path / "taken" / name))
    assert (tmp_path / "taken").read_text() == "a file, not a directory\n"


def test_exit_code_for_malformed_input(tmp_path, capsys):
    assert main(["reduce", str(tmp_path / "missing.sys"),
                 "--p1-fixture", "henon-heiles"]) == 2
    bad = write(tmp_path / "bad.sys", "format = system v1\nnot a key value\n")
    assert main(["reduce", bad, "--p1-fixture", "henon-heiles"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    stray = write(tmp_path / "stray.sys", "format = system v1\nvariable = x\n"
                  "size = 1\nentryway 1 1 = x\n")
    assert main(["lie", stray]) == 2
    assert "unknown key 'entryway 1 1'" in capsys.readouterr().err


def test_huge_exponents_are_refused_quickly(tmp_path, capsys):
    # two entries found by a mutation sweep of the bundled system files;
    # both ran for more than 3 seconds before the exponent limit
    for entry in ("x^299999999", "(x^2 + 1)^999999992"):
        path = write(tmp_path / "power.sys", "format = system v1\nvariable = x\n"
                     "size = 1\nentry 1 1 = %s\n" % entry)
        t0 = time.monotonic()
        assert main(["lie", path]) == 2
        assert time.monotonic() - t0 < 1.0
        assert "is above the limit of %d" % MAX_EXPONENT in capsys.readouterr().err


def test_huge_powers_are_refused_before_expansion(tmp_path, capsys):
    # both pass the exponent limit; the first would build 10626 terms (4.7 s
    # on a 2-CPU Xeon), the second a degree-4000 numerator and denominator
    text = fixtures.fixture_text("henon-heiles").replace(
        "hamiltonian = ", "hamiltonian = (q1 + 2*q2 + 3*p1 + p2 + 1)^20 + ")
    ham = write(tmp_path / "power.ham", text)
    sys1 = write(tmp_path / "power.sys", "format = system v1\nvariable = x\n"
                 "size = 1\nentry 1 1 = ((x^2 + 1)^50)^40\n")
    for args, size in ((["build-lve", ham, "--order", "1", "--out", str(tmp_path / "o")], 10626),
                       (["lie", sys1], 4001)):
        t0 = time.monotonic()
        assert main(args) == 2
        assert time.monotonic() - t0 < 0.5
        err = capsys.readouterr().err
        assert "power with up to %d terms is above the limit of %d terms" % (
            size, MAX_POWER_TERMS) in err
    # a smaller power of the same base is expanded as before
    names = ["q1", "q2", "p1", "p2"]
    assert len(parse_mpoly("(q1 + 2*q2 + 3*p1 + p2 + 1)^4", names).terms) == 70


def test_huge_products_are_refused_before_expansion(tmp_path, capsys):
    # 20 linear factors would build 10626 terms (1.9 s on a 2-CPU Xeon);
    # the 13th product, of degree 13 in 4 variables, is refused with its
    # bound after 0.2 s, and so is a product or quotient of rational
    # functions whose degree would pass 2000
    linear = "(q1 + 2*q2 + 3*p1 + p2 + 1)"
    text = fixtures.fixture_text("henon-heiles").replace(
        "hamiltonian = ", "hamiltonian = %s + " % "*".join([linear] * 20))
    ham = write(tmp_path / "product.ham", text)
    cases = [(["build-lve", ham, "--order", "1", "--out", str(tmp_path / "o")], 2380)]
    for name, op in (("product", "*"), ("quotient", "/")):
        path = write(tmp_path / (name + ".sys"), "format = system v1\nvariable = x\n"
                     "size = 1\nentry 1 1 = 1%s%s\n" % (op, op.join(["(x^2 + 1)^50"] * 21)))
        cases.append((["lie", path], 2001))
    for args, size in cases:
        t0 = time.monotonic()
        assert main(args) == 2
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err
        assert "product with up to %d terms is above the limit of %d terms" % (
            size, MAX_POWER_TERMS) in err
    # fewer factors are multiplied out as before
    names = ["q1", "q2", "p1", "p2"]
    assert len(parse_mpoly("*".join([linear] * 4), names).terms) == 70


def test_oversized_systems_are_refused_before_allocation(tmp_path, capsys):
    # a declared size and a build-lve order above MAX_SYSTEM_SIZE are refused
    # before any matrix is made: within 2 seconds and 5 MB of traced
    # allocations, where either matrix would need gigabytes
    big = write(tmp_path / "big.sys",
                "format = system v1\nvariable = x\nsize = 499999999\n")
    ham = write(tmp_path / "hh.ham", fixtures.fixture_text("henon-heiles"))
    out_dir = tmp_path / "lve"
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        codes = (main(["lie", big]),
                 main(["build-lve", ham, "--order", "50", "--out", str(out_dir)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert codes == (2, 3)
    assert "size 499999999 is above the limit of %d" % MAX_SYSTEM_SIZE in err
    assert "order 50 needs a system of size 316250, above the limit of %d" % MAX_SYSTEM_SIZE in err
    assert not out_dir.exists()
    assert elapsed < 2.0
    assert peak < 5 * 2**20


def test_exit_code_for_order_mismatch(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    assert main(["reduce", sys1, "--p1-fixture", "henon-heiles",
                 "--order", "3"]) == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "no block sizes" in err


def test_exit_code_for_unsupported_regime(tmp_path, capsys):
    # two independent diagonal coefficient functions on a 2-block system
    zero = rf("0")
    mat = RatMat([
        [rf("1/x"), zero],
        [rf("1/x"), rf("1/(x + 1)")],
    ])
    sys2 = write(tmp_path / "twodiag.sys",
                 render_system(SystemFile("x", mat, [1, 1])))
    p1 = write(tmp_path / "p1.sys",
               render_system(SystemFile("x", RatMat([[rf("1")]]), None)))
    assert main(["reduce", sys2, "--p1", p1]) == 4
    err = capsys.readouterr().err
    assert "unsupported regime" in err
    assert "order 2" in err
    assert "not monogenous" in err


def test_fourth_order_is_refused_at_its_diagonal(tmp_path, capsys, monkeypatch):
    # the diagonal algebra of LVE^4 has dimension 5, so order 4 is outside
    # the monogenous regime; as a command the refusal took 2.0 to 2.4
    # seconds on a 2-CPU Xeon with Python 3.11, and the bound leaves room
    # for a loaded machine.  The diagonal is known before the order-4
    # products, so the refusal comes before any: every rational matrix
    # product is counted against the number of orders finished so far.
    ham = write(tmp_path / "hh.ham", fixtures.fixture_text("henon-heiles"))
    out_dir = tmp_path / "lve"
    assert main(["build-lve", ham, "--order", "4", "--out", str(out_dir)]) == 0
    finished, products = [], []
    reduce_subdiagonal = reduction.reduce_subdiagonal
    mul = RatMat.__mul__

    def counted_reduce(*args, **kwargs):
        report = reduce_subdiagonal(*args, **kwargs)
        finished.append(report.order)
        return report

    def counted_mul(a, b):
        products.append(len(finished))
        return mul(a, b)

    monkeypatch.setattr(reduction, "reduce_subdiagonal", counted_reduce)
    monkeypatch.setattr(RatMat, "__mul__", counted_mul)
    t0 = time.monotonic()
    rc = main(["reduce", str(out_dir / "lve_order_4.sys"), "--p1-fixture", "henon-heiles"])
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert rc == 4
    assert "order 4, diagonal check: diagonal algebra is not monogenous (dimension 5)" in err
    assert elapsed < 60.0
    assert finished == [1, 2, 3]
    assert products and products.count(3) == 0
    assert poly._FACTOR_BASE.get() is None  # the refusal dropped the run's pole base


@pytest.fixture(scope="module")
def lve_dir(tmp_path_factory):
    """LVE^1 to LVE^4 of the bundled Hamiltonian, as build-lve writes them."""
    tmp = tmp_path_factory.mktemp("lve")
    ham = write(tmp / "hh.ham", fixtures.fixture_text("henon-heiles"))
    assert main(["build-lve", ham, "--order", "4", "--out", str(tmp / "lve")]) == 0
    return tmp / "lve"


def lie_output(dim):
    return ("wei-norman terms: 2\nlie dimension: %d\nabelian: no\n"
            "witness: basis elements 1 and 2 do not commute\n" % dim)


def test_lie_brackets_each_element_with_the_generators_only(lve_dir, capsys, monkeypatch):
    # LVE^3 has 2 generators and a closure of dimension 35: one bracket of
    # the two generators, then one with each generator for the 33 other
    # elements, 67 in all, where bracketing every pair took 595
    inside, calls = [], []
    comm, closure = liealgebra.comm, cli.lie_closure

    def counted_comm(a, b):
        calls.append(bool(inside))
        return comm(a, b)

    def flagged_closure(*args):
        inside.append(True)
        try:
            return closure(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(liealgebra, "comm", counted_comm)
    monkeypatch.setattr(cli, "lie_closure", flagged_closure)
    capsys.readouterr()
    assert main(["lie", str(lve_dir / "lve_order_3.sys")]) == 0
    assert capsys.readouterr().out == lie_output(35)
    assert calls.count(True) == 67


def test_lie_of_the_fourth_order(lve_dir, capsys):
    # 2 generators and dimension 63, 123 brackets: 0.37 to 0.50 s as a
    # command on a 2-CPU Xeon with Python 3.11, where bracketing all 1953
    # pairs of the basis took 2.3 to 3.2 s
    capsys.readouterr()
    assert main(["lie", str(lve_dir / "lve_order_4.sys")]) == 0
    assert capsys.readouterr().out == lie_output(63)


NO_SYMPY_CHILD = """
import sys
from varred.cli import main
from varred.poly import Poly, factor_irreducible
code = main(["reduce", sys.argv[1], "--p1-fixture", "henon-heiles", "--out", sys.argv[2]])
factor_irreducible(Poly([2, 2, 3, 1, 1]))
factor_irreducible(Poly([0, 2, 3, 1]))
print(code, "sympy" in sys.modules)
"""


def test_reduce_and_factor_never_import_sympy(lve_dir, tmp_path):
    """A fresh process reduces LVE^3 in full and factors x^4 + x^3 + 3x^2 +
    2x + 2 and x^3 + 3x^2 + 2x without loading sympy."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(poly.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_CHILD, str(lve_dir / "lve_order_3.sys"),
         str(tmp_path / "reports")], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr[-2000:]
    assert (tmp_path / "reports" / "report_order_3.txt").is_file()


def test_exit_code_for_timeout(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    assert main(["reduce", sys1, "--p1-fixture", "henon-heiles",
                 "--max-minutes", "0"]) == 5
    err = capsys.readouterr().err
    assert "timeout: order 1, diagonal assembly: time budget exhausted" in err


def test_exit_code_for_nan_time_budget(tmp_path, capsys):
    # a NaN deadline would never fire; --max-minutes 0 stays a valid budget
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    assert main(["reduce", sys1, "--p1-fixture", "henon-heiles",
                 "--max-minutes", "nan"]) == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "time budget is not a number" in err


def test_lie_command_outputs(tmp_path, capsys):
    sys1 = write(tmp_path / "a1.sys", fixtures.fixture_text("first-order"))
    assert main(["lie", sys1]) == 0
    out = capsys.readouterr().out
    assert "wei-norman terms: 2" in out
    assert "lie dimension: 6" in out
    assert "abelian: no" in out
    assert "witness: basis elements 1 and 2 do not commute" in out

    pair = write(tmp_path / "pair.sys",
                 fixtures.fixture_text("nilpotent-pair"))
    assert main(["lie", pair]) == 0
    out = capsys.readouterr().out
    assert "wei-norman terms: 2" in out
    assert "lie dimension: 5" in out
    assert "abelian: no" in out

    red = write(tmp_path / "red.sys",
                fixtures.fixture_text("first-order-reduced"))
    assert main(["lie", red]) == 0
    out = capsys.readouterr().out
    assert "lie dimension: 1" in out
    assert "abelian: yes" in out
    assert "witness" not in out

    zero = rf("0")
    empty = write(tmp_path / "zero.sys",
                  render_system(SystemFile(
                      "x", RatMat([[zero, zero], [zero, zero]]), None)))
    assert main(["lie", empty]) == 0
    out = capsys.readouterr().out
    assert "wei-norman terms: 0" in out
    assert "lie dimension: 0" in out
    assert "abelian: yes" in out


def test_verify_fixture_command(capsys):
    assert main(["verify-fixture"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 5
    for line in lines:
        assert line.startswith("ok: ")
