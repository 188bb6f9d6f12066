"""One benchmark process: set up a workload, time passes, check outputs.

Started by run.py, never by hand.  With --setup-only it sets the workload
up, prints "ready" and exits, so the parent can time set-up from process
start.  Otherwise it prints one JSON object as its last line of output.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import layers  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _one_pass(wl, tracer=None, traced=False):
    """(raw seconds, scaled seconds, result or None, failed operation messages).

    In a traced run (tracer given) the calibration loop runs only before
    and after each pass, so that no span holds time of the loop; `traced`
    says whether this pass is traced.  Only the pass itself is traced, not
    the checks."""
    gc.collect()
    if traced:
        tracer.install()
    try:
        with calibrate.Sampled(inside=tracer is None) as timing:
            if traced:
                with tracer.root(layers.PASS_ROOT):
                    result = wl.run_pass()
            else:
                result = wl.run_pass()
    except Exception:
        msg = traceback.format_exc(limit=3)
        return 0.0, 0.0, None, ["pass raised: %s" % msg] * wl.ops_per_pass
    finally:
        if traced:
            tracer.uninstall()
    return timing.raw_s, timing.scaled_s, result, wl.check(result)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    work_dir = Path(args.work_dir)
    wl = workloads.WORKLOADS[args.workload]()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.plan(tracer)
        tracer.install()
    t_run = time.perf_counter()
    if tracer is None:
        wl.setup(work_dir, args.seed)
    else:
        with tracer.root(layers.SETUP_ROOT):
            wl.setup(work_dir, args.seed)
        tracer.uninstall()
        tracer.reset_counts()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    attempted = 0
    failures = []
    untraced, traced = [], []  # (raw, scaled) seconds per pass
    last = None
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes of the same work
        for use_tracer in ((False, True) if tracer else (False,)):
            raw, scaled, result, failed = _one_pass(wl, tracer, use_tracer)
            (traced if use_tracer else untraced).append((raw, scaled))
            attempted += wl.ops_per_pass
            failures.extend(failed)
            if result is not None:
                last = result
        if time.perf_counter() - start >= args.seconds:
            break

    # the first pass pays for lazy imports (sympy), later ones do not
    timed = untraced[1:] or untraced
    for msg in failures[:10]:
        print("check failed: %s" % msg, file=sys.stderr)
    out = {"attempted": attempted, "failed": len(failures),
           "wall_s": statistics.median(s for _, s in timed),
           "pass_s": untraced,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        per_layer = layers.metrics(tracer, len(traced),
                                   statistics.median(s for _, s in traced),
                                   statistics.median(s for _, s in timed))
        if last is not None:
            per_layer.update(micro.run(wl.operands(last)))
        out["per_layer"] = per_layer
        out["traced_pass_s"] = traced
        tracer.write_jsonl(work_dir / "spans.jsonl", t_run)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
