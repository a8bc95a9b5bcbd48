"""Compare two BENCH files written by sweep.py.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses to compare (exit 2) when the files were measured with different
Python or numpy versions, core counts or CPU models.  Otherwise prints,
per workload and end-to-end metric, both medians, the relative change, the
bound from BENCHMARK.json and a verdict (a metric the file does not gate
gets neither), then every per-layer counter that changed when both files
hold traced runs.  Exits 1 when NEW is incorrect,
or worse than BASE by more than a bound on any metric.
"""

from __future__ import annotations

import json
import sys

import run
import tracer

STAMP_KEYS = ("python", "numpy", "nproc", "cpu")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    differ = [k for k in STAMP_KEYS if base["stamp"].get(k) != new["stamp"].get(k)]
    if differ:
        for k in differ:
            print(f"refused: {k} differs: {base['stamp'].get(k)!r} vs {new['stamp'].get(k)!r}", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = False
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][name], new["workloads"][name]
        print(f"{name}: correct {b['correct']} -> {n['correct']}")
        worse |= not n["correct"]
        for metric in sorted(set(b["end_to_end"]) & set(n["end_to_end"])):
            mb, mn = b["end_to_end"][metric]["median"], n["end_to_end"][metric]["median"]
            change = (mn - mb) / mb
            m = spec.get(metric)
            if m is None:
                print(f"  {metric:16s} {mb:.5g} -> {mn:.5g}  {change:+.1%}  (not gated)")
                continue
            worsened = change if m["better"] == "lower" else -change
            regressed = worsened > m["bound"]
            if regressed:
                verdict = "WORSE than bound"
            elif max(b["end_to_end"][metric]["spread"], n["end_to_end"][metric]["spread"]) > abs(change):
                verdict = "within spread"
            else:
                verdict = "changed"
            worse |= regressed
            print(f"  {metric:16s} {mb:.5g} -> {mn:.5g}  {change:+.1%}  (bound {m['bound']:.0%}) {verdict}")
        if "traced" in b and "traced" in n:
            lb, ln = b["traced"]["per_layer"], n["traced"]["per_layer"]
            for key in sorted(lb):
                if key.startswith("trace.") or key.endswith(tracer.TIMED_STATS):
                    continue
                if lb[key] != ln.get(key):
                    print(f"  counter {key}: {lb[key]} -> {ln.get(key)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
