"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py

For every workload: one untraced op, whose JSON line must carry every
end-to-end metric of BENCHMARK.json with its unit; then two traced runs of
one op with the same seed, whose JSON line must carry every per-layer
metric with its unit and whose exact counts must agree.  Finally the
benchmark must refuse to run, with a non-zero exit and no result line, in
a directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result_line(proc, what):
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(got, specs, what):
    want = {m["name"]: m["unit"] for m in specs}
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong = sorted(k for k in set(want) & set(have) if want[k] != have[k])
        raise SystemExit(f"{what}: missing {missing}, unexpected {extra}, "
                         f"wrong units {wrong}")
    if not got["correct"] or got["failed"] or got["attempted"] < 1:
        raise SystemExit(f"{what}: ops failed: {got}")


def exact_counts(workload):
    path = os.path.join(ROOT, ".bench_out",
                        f"result-{workload}-seed{SEED}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["exact_counts"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    common = ["--seed", str(SEED), "--seconds", "1", "--max-ops", "1"]
    for w in (w["name"] for w in bench["workloads"]):
        got = result_line(run(ROOT, "--workload", w, "--trace", "0", *common),
                          f"{w} untraced")
        check_metrics(got, bench["end_to_end"], f"{w} untraced")
        counts = []
        for _ in range(2):
            got = result_line(run(ROOT, "--workload", w, "--trace", "1",
                                  *common), f"{w} traced")
            check_metrics(got, bench["per_layer"], f"{w} traced")
            counts.append(exact_counts(w))
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            raise SystemExit(f"{w}: counts differ between traced runs: {diff}")
        print(f"ok {w}")

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "mv-split", "--trace", "0", *common)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            raise SystemExit("benchmark ran without the coarsek sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
