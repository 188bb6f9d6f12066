"""Command-line front end: build variational systems, reduce them, report.

Exit codes: 0 on completion (whatever the mathematical verdict), 2 for
malformed input files or an output file that cannot be written, 3 for
violated preconditions, 4 for structurally valid input outside the
implemented regime, 5 when the --max-minutes guard fires.
"""

import argparse
import sys
from pathlib import Path

from . import fixtures
from .errors import (
    FileFormatError,
    PreconditionFailure,
    ReductionTimeout,
    UnsupportedRegime,
)
from .fileformats import (
    SystemFile,
    parse_hamiltonian,
    parse_system,
    render_report,
    render_system,
)
from .gauge import GaugeMatrix
from .liealgebra import lie_closure, wei_norman
from .reduction import reduce_block_systems
from .varequations import build_lve, nested_systems


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise FileFormatError("cannot read %s: %s" % (path, e)) from None


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise FileFormatError("cannot write %s: %s" % (path, e)) from None


def cmd_build_lve(args) -> int:
    hf = parse_hamiltonian(_read_text(args.hamiltonian))
    system = hf.build_system()
    out_dir = Path(args.out)
    for bs in build_lve(system, args.order):
        sf = SystemFile(hf.variable, bs.matrix, list(bs.block_sizes))
        path = out_dir / ("lve_order_%d.sys" % bs.order)
        _write_text(path, render_system(sf))
        print("wrote %s (size %d, blocks %s)"
              % (path, bs.matrix.rows,
                 " ".join(str(b) for b in bs.block_sizes)))
    return 0


def _load_p1(args) -> GaugeMatrix:
    if args.p1 is not None:
        mat = parse_system(_read_text(args.p1)).matrix
    else:
        mat = fixtures.load_system(args.p1_fixture + "-p1").matrix
    try:
        return GaugeMatrix.from_p(mat)
    except ValueError as e:
        raise PreconditionFailure("first-order gauge: %s" % e) from None


def _nested_systems(sf: SystemFile, order) -> list:
    """The trailing subsystems of a block system file, lowest order first,
    after checking the requested order against its blocks."""
    blocks = sf.blocks
    if blocks is None:
        if order is not None and order != 1:
            raise PreconditionFailure(
                "order %d requested but the system file carries no block "
                "sizes" % order)
        blocks = [sf.matrix.rows]
    if order is not None and order != len(blocks):
        raise PreconditionFailure(
            "order %d requested but the system file has %d blocks"
            % (order, len(blocks)))
    return nested_systems(sf.matrix, blocks)


def cmd_reduce(args) -> int:
    sf = parse_system(_read_text(args.system))
    systems = _nested_systems(sf, args.order)
    p1 = _load_p1(args)
    max_seconds = None
    if args.max_minutes is not None:
        max_seconds = args.max_minutes * 60.0
    reports = reduce_block_systems(systems, p1, max_seconds)
    ext = "txt" if args.report == "text" else "rpt"
    if args.out is None:
        print(render_report(reports[-1], args.report, sf.variable), end="")
    else:
        out_dir = Path(args.out)
        for rep in reports:
            path = out_dir / ("report_order_%d.%s" % (rep.order, ext))
            _write_text(path, render_report(rep, args.report, sf.variable))
            print("order %d: final Lie dimension %d, %s"
                  % (rep.order, rep.final_lie.dim, rep.verdict))
            print("wrote %s" % path)
    return 0


def cmd_lie(args) -> int:
    sf = parse_system(_read_text(args.system))
    wn = wei_norman(sf.matrix)
    lie = lie_closure(wn.matrices())
    print("wei-norman terms: %d" % wn.dim)
    print("lie dimension: %d" % lie.dim)
    print("abelian: %s" % ("yes" if lie.is_abelian() else "no"))
    pair = lie.first_noncommuting_pair()
    if pair is not None:
        print("witness: basis elements %d and %d do not commute"
              % (pair[0] + 1, pair[1] + 1))
    return 0


def cmd_verify_fixture(args) -> int:
    for name, detail in fixtures.verify_fixtures():
        print("ok: %s (%s)" % (name, detail))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varred",
        description="Exact partial reduction of higher variational systems "
                    "of polynomial Hamiltonians along rational curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "build-lve",
        help="build the variational systems of a Hamiltonian file")
    b.add_argument("hamiltonian", help="Hamiltonian file (format: "
                                       "hamiltonian v1)")
    b.add_argument("--order", type=int, default=1,
                   help="highest variational order to build (default 1)")
    b.add_argument("--out", default=".", help="output directory")
    b.set_defaults(func=cmd_build_lve)

    r = sub.add_parser(
        "reduce",
        help="reduce a variational system and report the final Lie algebra")
    r.add_argument("system", help="system file (format: system v1); block "
                                  "sizes required for orders above 1")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--p1", help="system file holding the first-order "
                                  "reducing gauge")
    src.add_argument("--p1-fixture", choices=["henon-heiles"],
                     help="use a bundled first-order gauge")
    r.add_argument("--order", type=int, default=None,
                   help="expected order (cross-checked against the file)")
    r.add_argument("--out", default=None,
                   help="directory for per-order report files; without it "
                        "the top-order report goes to stdout")
    r.add_argument("--report", choices=["text", "structured"],
                   default="text", help="report rendering (default text)")
    r.add_argument("--max-minutes", type=float, default=None,
                   help="abort with exit code 5 after this many minutes")
    r.set_defaults(func=cmd_reduce)

    l = sub.add_parser(
        "lie",
        help="Wei-Norman decomposition and Lie closure of a system file")
    l.add_argument("system", help="system file (format: system v1)")
    l.set_defaults(func=cmd_lie)

    v = sub.add_parser(
        "verify-fixture",
        help="cross-check the bundled example files against each other")
    v.set_defaults(func=cmd_verify_fixture)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except PreconditionFailure as e:
        print("precondition failed: %s" % e, file=sys.stderr)
        return 3
    except UnsupportedRegime as e:
        print("unsupported regime: %s" % e, file=sys.stderr)
        return 4
    except ReductionTimeout as e:
        print("timeout: %s" % e, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
