#!/usr/bin/env python3
"""Build and run the tpro benchmark.

    python3 tprobench/run.py --workload repro|fuzz|topo --seed N \
        --seconds S --trace 0|1
    python3 tprobench/run.py --selftest

Run from the repository root.  The first call builds tprobench/main.exe
and bin/tpro.exe with dune (release profile, shared cache off, so the
build stays inside the checkout); later calls rebuild nothing.  The last
line of standard output is the result object; build output goes to
standard error.  --selftest runs every workload at a tiny size in both
modes, checks every correctness check passes, and checks that the names
in BENCHMARK.json are exactly the ones the benchmark defines.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "tprobench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):  # an opam switch that is not on PATH
        return ["opam", "exec", "--", "dune"]
    sys.exit("tprobench: neither dune nor opam found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        dune() + ["build", "--root", ".", "--profile", "release", "--display", "quiet",
                  "tprobench/main.exe", "bin/tpro.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        sys.exit("tprobench: build failed")


def bench(args):
    return [BENCH] + args


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1])


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = last_json(subprocess.run(bench(["--names"]), capture_output=True, text=True,
                                     check=True).stdout)
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: BENCHMARK.json has {got}, the benchmark defines {want}")

    expect("workloads", [w["name"] for w in spec["workloads"]], names["workloads"])
    expect("end_to_end", [[m["name"], m["unit"]] for m in spec["end_to_end"]], names["end_to_end"])
    expect("per_layer", [[m["name"], m["unit"]] for m in spec["per_layer"]], names["per_layer"])
    for w in names["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            r = subprocess.run(bench(["--workload", w, "--seed", "1", "--seconds", "1",
                                      "--trace", trace, "--smoke"]),
                               capture_output=True, text=True)
            if r.returncode != 0:
                failures.append(f"{w} trace {trace}: exit {r.returncode}: {r.stderr[-2000:]}")
                continue
            res = last_json(r.stdout)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{w} trace {trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                failures.append(f"{w} trace {trace}: checks failed: {res['correct']}, "
                                f"{res['failed']} of {res['attempted']} failed")
            want = sorted(n for n, _ in names[group])
            if sorted(res["metrics"]) != want:
                failures.append(f"{w} trace {trace}: metric names differ from {group}")
            print(f"selftest: {w} trace {trace}: ok", file=sys.stderr)
    for f in failures:
        print("selftest: FAIL: " + f, file=sys.stderr)
    if failures:
        sys.exit(1)
    print("selftest: every workload, both modes, names match BENCHMARK.json")


def main():
    os.chdir(ROOT)
    build()
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return
    r = subprocess.run(bench(sys.argv[1:]))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
