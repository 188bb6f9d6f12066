"""The benchmark's workloads: set-up, one timed pass, and output checks.

A pass is a fixed list of operations; an operation is one order (hh-*),
one file (lie-o3) or one system (synth-chains).  Every pass of a run does
the same work, so per-pass times can be compared and per-pass counts are
exact.  The program is called through module attributes
(`reduction.reduce_block_systems`, ...) so that the tracer's wrappers are
seen.
"""

import hashlib
from pathlib import Path

from varred import fileformats, fixtures, gauge, liealgebra, reduction, varequations
from varred.varequations import BlockSystem

import synth

REFERENCE = Path(__file__).resolve().parent / "reference"
SYNTH_BATCH = 12
SYNTH_DEFAULT_SEED = 0


def build_lve_system(order):
    """The bundled Henon-Heiles LVE^order as a parsed `system v1` file."""
    hf = fixtures.load_hamiltonian()
    top = varequations.build_lve(hf.build_system(), order)[-1]
    text = fileformats.render_system(
        fileformats.SystemFile(hf.variable, top.matrix, list(top.block_sizes)))
    return fileformats.parse_system(text)


def nested_systems(sf):
    """Trailing subsystems of a block system file, lowest order first."""
    n = sf.matrix.rows
    out = []
    for m in range(1, len(sf.blocks) + 1):
        tail = sf.blocks[len(sf.blocks) - m:]
        s = sum(tail)
        out.append(BlockSystem(m, sf.matrix.submatrix(n - s, n, n - s, n), list(tail)))
    return out


class HenonHeiles:
    """`varred reduce` of LVE^top with the bundled first-order gauge, every
    order rendered as a text and a structured report."""

    def __init__(self, top):
        self.top = top
        self.ops_per_pass = top

    def prepare(self, work_dir, seed):
        pass

    def setup(self, work_dir, seed):
        self.sf = build_lve_system(self.top)
        self.systems = nested_systems(self.sf)
        self.p1 = fixtures.load_p1()

    def run_pass(self):
        reports = reduction.reduce_block_systems(self.systems, self.p1)
        outputs = {}
        for rep in reports:
            for mode, ext in (("text", "txt"), ("structured", "rpt")):
                name = "report_order_%d.%s" % (rep.order, ext)
                outputs[name] = fileformats.render_report(rep, mode, self.sf.variable)
        return {"reports": reports, "outputs": outputs}

    def check(self, result, ref_dir=REFERENCE / "hh"):
        """Names of the failed operations (orders) of one pass."""
        failed = []
        for order in range(1, self.top + 1):
            for ext in ("txt", "rpt"):
                name = "report_order_%d.%s" % (order, ext)
                want = (ref_dir / name).read_text(encoding="utf-8")
                if result["outputs"].get(name) != want:
                    failed.append("order %d: %s differs from the reference" % (order, name))
                    break
        return failed

    def operands(self, result):
        top = result["reports"][-1]
        tg = top.total_gauge
        return {
            "ratfuns": [f for row in tg.p.data + tg.p_inv.data for f in row if not f.is_zero],
            "constmats": liealgebra.wei_norman(self.systems[-1].matrix).matrices(),
            "ratmat_pair": (self.systems[-1].matrix, tg.p),
        }


class LieClosure:
    """`varred lie` on the bundled LVE^3 file: Wei-Norman terms, Lie closure
    dimension and a non-commuting witness, as the command prints them."""

    ops_per_pass = 1

    def prepare(self, work_dir, seed):
        pass

    def setup(self, work_dir, seed):
        self.matrix = build_lve_system(3).matrix

    def run_pass(self):
        wn = liealgebra.wei_norman(self.matrix)
        lie = liealgebra.lie_closure(wn.matrices())
        lines = ["wei-norman terms: %d" % wn.dim,
                 "lie dimension: %d" % lie.dim,
                 "abelian: %s" % ("yes" if lie.is_abelian() else "no")]
        pair = lie.first_noncommuting_pair()
        if pair is not None:
            lines.append("witness: basis elements %d and %d do not commute"
                         % (pair[0] + 1, pair[1] + 1))
        return {"lie": lie, "stdout": "\n".join(lines) + "\n"}

    def check(self, result, ref_dir=REFERENCE / "lie"):
        want = (ref_dir / "lie_order_3.out").read_text(encoding="utf-8")
        return [] if result["stdout"] == want else ["lie stdout differs from the reference"]

    def operands(self, result):
        return {
            "ratfuns": [f for row in self.matrix.data for f in row if not f.is_zero],
            "constmats": result["lie"].mats,
            "ratmat_pair": (self.matrix, self.matrix),
        }


class SynthChains:
    """reduce_subdiagonal on a seeded batch of generated two-block systems."""

    ops_per_pass = SYNTH_BATCH

    def prepare(self, work_dir, seed):
        for k, text in enumerate(synth.generate_texts(seed, SYNTH_BATCH)):
            (work_dir / ("system_%02d.sys" % k)).write_text(text, encoding="utf-8")

    def setup(self, work_dir, seed):
        self.seed = seed
        self.files = [fileformats.parse_system((work_dir / ("system_%02d.sys" % k))
                                               .read_text(encoding="utf-8"))
                      for k in range(SYNTH_BATCH)]
        self.first_hashes = None

    def run_pass(self):
        reports, errors = [], []
        for sf in self.files:
            try:
                reports.append(reduction.reduce_subdiagonal(
                    BlockSystem(len(sf.blocks), sf.matrix, list(sf.blocks))))
                errors.append(None)
            except Exception as e:  # counted as a failed operation by check()
                reports.append(None)
                errors.append("%s: %s" % (type(e).__name__, e))
        outputs = [None if rep is None else fileformats.render_report(rep, "structured", "x")
                   for rep in reports]
        return {"reports": reports, "errors": errors, "outputs": outputs}

    def check(self, result, ref_dir=REFERENCE / "synth"):
        """Replays every reduction; on the default seed also compares the
        structured reports with the stored hashes."""
        stored = None
        if self.seed == SYNTH_DEFAULT_SEED:
            path = ref_dir / ("seed%d.sha256" % SYNTH_DEFAULT_SEED)
            stored = path.read_text(encoding="utf-8").split()
        hashes = []
        failed = []
        for k, (rep, err, out) in enumerate(zip(result["reports"], result["errors"],
                                                result["outputs"])):
            if rep is None:
                hashes.append(None)
                failed.append("system %d raised %s" % (k, err))
                continue
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            hashes.append(digest)
            if gauge.apply_gauge(rep.system.matrix, rep.total_gauge) != rep.final_matrix:
                failed.append("system %d: total gauge does not carry the initial "
                              "matrix to the final one" % k)
            elif stored is not None and digest != stored[k]:
                failed.append("system %d: report differs from the stored hash" % k)
            elif self.first_hashes is not None and digest != self.first_hashes[k]:
                failed.append("system %d: report differs from the first pass" % k)
        if self.first_hashes is None:
            self.first_hashes = hashes
        return failed

    def operands(self, result):
        reps = [r for r in result["reports"] if r is not None]
        return {
            "ratfuns": [f for rep in reps for row in rep.total_gauge.p.data
                        for f in row if not f.is_zero],
            "constmats": [m for rep in reps for m in rep.final_lie.mats],
            "ratmat_pair": (reps[0].system.matrix, reps[0].total_gauge.p),
        }


WORKLOADS = {
    "hh-o2": lambda: HenonHeiles(2),
    "lie-o3": LieClosure,
    "synth-chains": SynthChains,
    # Not in BENCHMARK.json: one untraced pass takes 130-180 s on a 2-CPU
    # Xeon, more than a benchmark run may last.  Run it by hand to see a
    # change on the paper's own computation.
    "hh-o3": lambda: HenonHeiles(3),
}
