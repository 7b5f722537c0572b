"""Regenerate perfbench/expected.json, the reference values the checks use.

    python3 perfbench/record_expected.py

Runs one sphere-metric op and one cli-batch pass for two seeds and
refuses to write anything unless every recorded value agrees between
them (all but the fields listed in SEED_DEPENDENT are seed-invariant by
construction).  Only rerun this when a change is meant to alter verdicts
or reported numbers, and say so in the change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from coarsek import serialize  # noqa: E402

SEED_DEPENDENT = {("discretize", "space_hash"), ("k0-points", "classes")}
SEEDS = (0, 1)


def sphere(seed):
    w = workloads.SphereMetric()
    w.setup(seed, None)
    space, x1, x2, _, _ = w.op(0)
    return {"points": len(space), "dist_sum": float(space.dist.sum()),
            "pieces": [int(x1.sum()), int(x2.sum())]}


def cli_pass(seed, workdir):
    w = workloads.CliBatch()
    w.setup(seed, workdir)
    out = {}
    for i, (command, _) in enumerate(w.commands[:-1]):
        _, code = w.op(i)
        if code != 0:
            raise SystemExit(f"{command} exited {code}")
        with open(w.report_path(command), encoding="utf-8") as fh:
            fields, table = serialize.loads_report(fh.read())
        for key in fields:
            if (command, key) in SEED_DEPENDENT:
                fields[key] = None
        out[command] = {"fields": fields, "table": table}
    return out


def main():
    workdir = os.path.join(ROOT, ".bench_out", "record-expected")
    runs = []
    try:
        for seed in SEEDS:
            runs.append({"sphere-metric": sphere(seed),
                         "cli-batch": cli_pass(seed, workdir)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first, second = runs
    bad = []
    for command, rec in first["cli-batch"].items():
        try:
            workloads.same_values(command, rec["fields"],
                                  second["cli-batch"][command]["fields"])
        except workloads.CheckFailed as exc:
            bad.append(str(exc))
    a, b = first["sphere-metric"], second["sphere-metric"]
    if a["points"] != b["points"] or a["pieces"] != b["pieces"] \
            or not workloads.close(a["dist_sum"], b["dist_sum"]):
        bad.append(f"sphere-metric differs between seeds: {a} vs {b}")
    if bad:
        raise SystemExit("not seed-invariant:\n" + "\n".join(bad))
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(first, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
