"""Summarize the result files of several runs.

    python3 perfbench/summarize.py [--json] [RESULT_FILE ...]

Defaults to every untraced result under .bench_out/.  For each workload
and metric prints the median, the quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles over the median.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths):
    by = {}
    machine = None
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        machine = res["machine"]
        per = by.setdefault(res["workload"], {"seeds": [], "failed": 0})
        per["seeds"].append(res["seed"])
        per["failed"] += len(res["failures"])
        for name, value in res["metrics"].items():
            per.setdefault("metrics", {}).setdefault(name, []).append(value)
    out = {"machine": machine, "workloads": {}}
    for workload, per in by.items():
        rows = {}
        for name, values in per["metrics"].items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        out["workloads"][workload] = {"runs": len(per["seeds"]),
                                      "seeds": per["seeds"],
                                      "failed_ops": per["failed"],
                                      "metrics": rows}
    return out


def main(argv):
    as_json = "--json" in argv
    paths = [a for a in argv if a != "--json"] or glob.glob(
        os.path.join(ROOT, ".bench_out", "result-*-trace0.json"))
    out = summarize(paths)
    if as_json:
        print(json.dumps(out, indent=1))
        return
    for workload, per in out["workloads"].items():
        print(f"{workload}: {per['runs']} runs, {per['failed_ops']} failed ops")
        for name, row in per["metrics"].items():
            print(f"  {name:<18} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
