"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_references.py

The Henon-Heiles reports and the `lie` output come from the `varred`
command itself (build-lve, then reduce and lie on the order-3 file); the
synth-chains hashes are those of the structured reports of the default
seed's batch.  The order-3 reduction makes this take several minutes.
Only regenerate when the program's output is meant to change.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF = HERE / "reference"


def varred(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "varred.cli", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def main():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        varred("build-lve", str(ROOT / "src/varred/data/henon_heiles.ham"),
               "--order", "3", "--out", "lve", cwd=tmp)
        for mode in ("text", "structured"):
            varred("reduce", "lve/lve_order_3.sys", "--p1-fixture", "henon-heiles",
                   "--report", mode, "--out", mode, cwd=tmp)
        (REF / "hh").mkdir(parents=True, exist_ok=True)
        for order in (1, 2, 3):
            for mode, ext in (("text", "txt"), ("structured", "rpt")):
                name = "report_order_%d.%s" % (order, ext)
                shutil.copyfile(tmp / mode / name, REF / "hh" / name)
        (REF / "lie").mkdir(parents=True, exist_ok=True)
        (REF / "lie" / "lie_order_3.out").write_text(
            varred("lie", "lve/lve_order_3.sys", cwd=tmp), encoding="utf-8")

        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import workloads

        wl = workloads.SynthChains()
        seed = workloads.SYNTH_DEFAULT_SEED
        wl.prepare(tmp, seed)
        wl.setup(tmp, seed)
        result = wl.run_pass()
        if any(result["errors"]):
            raise SystemExit("synth-chains raised on the default seed: %s" % result["errors"])
        (REF / "synth").mkdir(parents=True, exist_ok=True)
        digests = [hashlib.sha256(out.encode("utf-8")).hexdigest() for out in result["outputs"]]
        (REF / "synth" / ("seed%d.sha256" % seed)).write_text(
            "\n".join(digests) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
