"""Summarize benchmark results: median and quartiles per workload and metric.

    python3 perfbench/summarize.py [RESULTS.jsonl] > summary.json

Reads the records run.py appends to perfbench/out/results.jsonl (or the
file named) and prints, for every workload and trace setting, the number
of runs, the seeds, the environment of the first run, and for each metric
the median, the quartiles and the spread (quartile distance over median),
as `statistics.quantiles(values, n=4)` gives them.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(records):
    groups = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            entry = {"unit": recs[0]["result"]["metrics"][name]["unit"], "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            metrics[name] = entry
        out["%s trace=%d" % (workload, trace)] = {
            "runs": len(recs),
            "seeds": [r["seed"] for r in recs],
            "seconds": sorted({r["seconds"] for r in recs}),
            "failed": sum(r["result"]["failed"] for r in recs),
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "env": recs[0]["env"],
            "metrics": metrics,
        }
    return out


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent / "out" / "results.jsonl")
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    print(json.dumps(summarize(records), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
