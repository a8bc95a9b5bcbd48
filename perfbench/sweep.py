"""Run the benchmark over several seeds per workload and summarise it.

    python3 perfbench/sweep.py [--workloads a,b] [--traced] [--out perfbench/BENCH_name.json]

Runs ``perfbench/run.py`` once per workload and seed 1 to 10, one process
at a time (the seeds are fixed, so every BENCH file holds the same inputs),
then reports for every end-to-end metric in the run records its median,
quartiles and spread (q3 - q1) / median, against the metric's bound in
BENCHMARK.json (a metric the file does not gate has none).
``--traced`` adds one traced run per workload at its default seed (the
per-layer metrics and the tracing overhead).  ``--out`` writes all of it,
with the environment stamp, as a BENCH file that compare.py can read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = range(1, 11)


def one(workload: str, seed: int | None, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark once; returns (result line, full record)."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    seed = workloads.DEFAULT_SEEDS[workload] if seed is None else seed
    with open(run.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return line, json.load(fh)


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bench: dict = {"run_seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        entry: dict = {"seeds": [], "correct": True, "failed": 0, "digests": {}, "tail": []}
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            line, record = one(name, seed, seconds, 0)
            entry["seeds"].append(seed)
            entry["correct"] &= line["correct"]
            entry["failed"] += line["failed"]
            entry["digests"][str(seed)] = record["digest"]
            entry["tail"].append(record["instance_tail"])
            bench["stamp"] = {k: v for k, v in record["stamp"].items() if k not in ("seed", "workload")}
            for metric, v in record["end_to_end"].items():
                values.setdefault(metric, []).append(v)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        entry["end_to_end"] = {m: summarise(v, bounds.get(m)) for m, v in values.items()}
        if args.traced:
            line, record = one(name, None, seconds, 1)
            entry["traced"] = {
                "seed": record["stamp"]["seed"],
                "correct": line["correct"],
                "digest": record["digest"],
                "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
            }
        bench["workloads"][name] = entry
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}")
        for metric, s in entry["end_to_end"].items():
            if s["bound"] is None:
                flag = "(not gated)"
            elif s["spread"] <= s["bound"] / 3:
                flag = f"(bound {s['bound']}) ok"
            else:
                flag = f"(bound {s['bound']}) " + ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {metric:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f} {flag}")
        if args.traced:
            overhead = entry["traced"]["per_layer"]["trace.overhead_s"]
            print(f"  tracing overhead {overhead:.3f} s per pass")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
