"""Record the expected output of every pool instance into expected.json.

    python3 perfbench/record.py

Runs each workload's whole pool once (a few minutes) and stores each
instance's canonical output, plus the closure orders that nori_padic and
kernel_closure select by.  Every instance must pass its own verdict, or nothing is
written.  Re-record only when a workload's pool is meant to change: a
change to padiclie that alters an output is what the benchmark catches.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.pin_environment()
    pkg = run.import_package()
    outputs: dict[str, dict] = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        pool = workloads.POOLS[name](pkg, run.OUT_DIR)
        outputs[name] = {}
        for key, inst in pool.items():
            out, verdict = inst.run()
            if not verdict:
                print(f"record: {name} {key} fails its own verdict: {out}", file=sys.stderr)
                return 1
            outputs[name][key] = out
        print(f"record: {name}: {len(pool)} instances", file=sys.stderr)
    expected = {
        "outputs": outputs,
        "classes": {
            "nori_padic": workloads.nori_padic_classes(pkg),
            "kernel_closure": {k: out["order"] for k, out in outputs["kernel_closure"].items()},
        },
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
