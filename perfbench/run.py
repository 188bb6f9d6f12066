"""The varred benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up is timed in SETUP_PROBES fresh processes, then one fresh
worker process sets the workload up again and repeats passes of it for S
seconds, checking every pass.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
# a listed workload must end within 180 s; hh-o3 is only run by hand
RUN_LIMIT_S = 170
HAND_RUN_LIMIT_S = {"hh-o3": 900}


def environment():
    from varred.rationals import QQ

    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "missing"
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "qq_backend": QQ.__module__,
            "sympy": sympy, "cpu_count": os.cpu_count(), "cpu_model": model}


def time_setup(cmd):
    """(raw, scaled) seconds from starting a set-up-only worker to its
    "ready" line."""
    proc = None
    try:
        with calibrate.Sampled(inside=False) as timing:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
        proc.communicate(timeout=60)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed (exit code %s)" % proc.returncode)
    return timing.raw_s, timing.scaled_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "varred" / "__init__.py").is_file():
        print("error: no varred sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(workloads.WORKLOADS))), file=sys.stderr)
        return 2
    started = time.perf_counter()
    work_dir = OUT / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    work_dir.mkdir(parents=True)
    workloads.WORKLOADS[args.workload]().prepare(work_dir, args.seed)
    env = environment()
    print(json.dumps({"env": env}), flush=True)

    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--work-dir", str(work_dir)]
    setup = []
    if not args.trace:
        setup = [time_setup(base + ["--setup-only"]) for _ in range(SETUP_PROBES)]
    limit = HAND_RUN_LIMIT_S.get(args.workload, RUN_LIMIT_S)
    budget = limit - (time.perf_counter() - started)
    try:
        proc = subprocess.run(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print("error: worker did not finish within %.0f s" % budget, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("error: worker exited with code %d" % proc.returncode, file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, "env": env,
                             "setup_probes_s": setup, "worker": res, "result": result},
                            sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
