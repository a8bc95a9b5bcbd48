"""Smoke test of the benchmark itself, on a tiny instance list per workload.

    python3 perfbench/smoke.py

For every workload it checks that
  * both modes report exactly the metric names BENCHMARK.json lists;
  * two runs give the same result digest, and two traced runs the same
    counters (every per-layer metric that is not a time or a rate);
  * a deliberately wrong expected output is reported as a failure, so the
    correctness gate is shown to bite.
Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import tracer
import workloads


def counters(layers: dict) -> dict:
    return {
        k: v for k, v in layers.items()
        if not k.startswith("trace.") and not k.endswith(tracer.TIMED_STATS)
    }


def check_workload(pkg, name: str, spec: dict, expected: dict) -> list[str]:
    problems = []
    seed = workloads.DEFAULT_SEEDS[name]
    out_dir = run.OUT_DIR / "smoke"

    def once(trace: bool, exp: dict = expected) -> dict:
        return run.run(pkg, name, seed, 0.0, trace, expected=exp, tiny=True, out_dir=out_dir)

    plain = [once(False), once(False)]
    traced = [once(True), once(True)]
    for trace, records in ((False, plain), (True, traced)):
        section = "per_layer" if trace else "end_to_end"
        wanted = {m["name"] for m in spec[section]}
        for rec in records:
            line = run.result_line(rec, trace, spec)
            if set(line["metrics"]) != wanted:
                problems.append(f"{section} names differ from BENCHMARK.json")
            if not line["correct"] or line["failed"]:
                problems.append(f"{section} run not correct: {rec['failures']}")
    if len({rec["digest"] for rec in plain + traced}) != 1:
        problems.append("result digest differs between runs")
    if counters(traced[0]["per_layer"]) != counters(traced[1]["per_layer"]):
        a, b = counters(traced[0]["per_layer"]), counters(traced[1]["per_layer"])
        problems.append(f"counters differ: { {k: (a[k], b[k]) for k in a if a[k] != b[k]} }")

    wrong = copy.deepcopy(expected)
    key = workloads.setup(pkg, name, seed, expected, out_dir, tiny=True)[0].key
    wrong["outputs"][name][key] = "deliberately wrong"
    bad = once(False, wrong)
    if bad["correct"] or bad["failed"] != 1 or bad["digest"] == bad["expected_digest"]:
        problems.append("a wrong expected output was not reported as a failure")
    return problems


def main() -> int:
    run.pin_environment()
    pkg = run.import_package()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = workloads.load_expected()
    failed = False
    for name in workloads.NAMES:
        problems = check_workload(pkg, name, spec, expected)
        failed = failed or bool(problems)
        print(f"smoke: {name}: {'; '.join(problems) if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
