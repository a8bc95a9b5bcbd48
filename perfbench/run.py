"""The padiclie benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process, one thread, closed loop: instances run
back to back and each is verified before the next starts.

``--trace 0`` sets up SETUP_REPEATS times (the import in fresh child
interpreters, input generation and warm-up in this process), then runs
whole passes over the seeded instance list while the next pass is
expected to end within ``--seconds`` (always at least one), and reports
the end-to-end metrics.
``--trace 1`` sets up once with the tracer installed, runs two untraced
and two traced passes, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment stamp, per-pass times, tail latency, digests) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CAP_VARS = ("PADICLIE_CLOSURE_CAP", "PADICLIE_ENUM_CAP")
TAIL_PERCENTILES = (99, 95, 90, 80)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def pin_environment() -> dict:
    """Pin BLAS threads to one and clear the cap overrides that padiclie.core
    reads at import.  Returns what was found, for the stamp."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ.pop(var, None) for var in CAP_VARS}


def import_package():
    """Import padiclie from this checkout's src/."""
    if not (SRC / "padiclie" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no padiclie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import padiclie
    import padiclie.cli  # noqa: F401  (the package root imports neither)
    import padiclie.sampling  # noqa: F401

    if Path(padiclie.__file__).resolve().parent != (SRC / "padiclie").resolve():
        raise SystemExit(f"perfbench: imported padiclie from {padiclie.__file__}, not {SRC}")
    return padiclie


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import padiclie, padiclie.cli, padiclie.sampling; print(time.perf_counter() - t)"
)


def import_times(repeats: int) -> list[float]:
    """Seconds to import padiclie, each in a fresh interpreter, one at a time."""
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    ]


def git_commit() -> str | None:
    """HEAD, with "-dirty" when src/ has uncommitted changes; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        head, dirty = (
            subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
            for args in (["rev-parse", "HEAD"], ["status", "--porcelain", "--", "src"])
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(pkg, workload: str, seed: int, cleared: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "padiclie": pkg.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cleared_env": {var: ("cleared" if val is not None else "unset") for var, val in cleared.items()},
    }


def digest(outputs: list) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(instances, recorded: dict, tracer=None) -> dict:
    """One closed-loop pass; each instance is verified before the next."""
    latencies, outputs, failures = [], [], []
    clock = time.perf_counter
    start = clock()
    for inst in instances:
        if tracer is not None:
            tracer.instance += 1
        t0 = clock()
        try:
            out, verdict = inst.run()
        except Exception as exc:  # an exception is a failed instance, not a crash
            latencies.append(clock() - t0)
            outputs.append(None)
            failures.append({"key": inst.key, "error": repr(exc)})
            continue
        latencies.append(clock() - t0)
        outputs.append(out)
        if not verdict:
            failures.append({"key": inst.key, "error": "program verdict false"})
        elif inst.key not in recorded or recorded[inst.key] != out:
            failures.append({"key": inst.key, "error": "output differs from expected.json"})
    return {"wall_s": clock() - start, "latencies": latencies, "outputs": outputs, "failures": failures}


def tail(latencies: list[float]) -> dict | None:
    """Highest of p99/p95/p90/p80 with at least ten instances beyond it."""
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(latencies, n=100)[pct - 1]
            return {"percentile": pct, "ms": cut * 1e3, "beyond": sum(x > cut for x in latencies)}
    return None


def run(pkg, workload: str, seed: int, seconds: float, trace: bool, *, import_s: list[float] = (),
        expected: dict | None = None, tiny: bool = False, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the full record (see ``result_line``)."""
    expected = workloads.load_expected() if expected is None else expected
    recorded = expected["outputs"][workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    record: dict = {"import_repeats_s": list(import_s)}
    passes = []

    if trace:
        from tracer import Tracer  # imports numpy: must follow pin_environment()

        tracer = Tracer(pkg)
        tracer.install()
        t0 = time.perf_counter()
        instances = workloads.setup(pkg, workload, seed, expected, out_dir, tiny)
        workloads.warm_up(pkg, workload, out_dir)
        traced_setup_s = time.perf_counter() - t0
        tracer.uninstall()
        # Untraced, traced, traced, untraced: a linear drift in the
        # machine's speed cancels out of the overhead estimate.
        for traced_pass in (False, True, True, False):
            if traced_pass:
                tracer.install()
            try:
                passes.append(run_pass(instances, recorded, tracer if traced_pass else None))
            finally:
                tracer.uninstall()
        untraced = statistics.mean(passes[i]["wall_s"] for i in (0, 3))
        traced = statistics.mean(passes[i]["wall_s"] for i in (1, 2))
        layers = tracer.metrics(traced_setup_s + 2 * traced)
        layers.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced, "trace.overhead_s": traced - untraced})
        record["per_layer"] = layers
        record["functions"] = tracer.per_name()
        spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        record["spans_file"] = spans_path.name
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            instances = workloads.setup(pkg, workload, seed, expected, out_dir, tiny)
            workloads.warm_up(pkg, workload, out_dir)
            setup_times.append(time.perf_counter() - t0)
        record["setup_repeats_s"] = setup_times
        start = time.perf_counter()
        while True:
            passes.append(run_pass(instances, recorded))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
                break
        latencies = [x for p in passes for x in p["latencies"]]
        record["end_to_end"] = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "instance_geomean_ms": statistics.geometric_mean(latencies) * 1e3,
            "instance_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(import_s or [0.0]) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["instance_tail"] = tail(latencies)

    keys = [inst.key for inst in instances]
    expected_digest = digest([recorded.get(k) for k in keys])
    digests = [digest(p["outputs"]) for p in passes]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_p50_ms": [statistics.median(p["latencies"]) * 1e3 for p in passes],
        "instances_per_pass": len(instances),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "digest": digests[0],
        "expected_digest": expected_digest,
        "correct": not failures and all(d == expected_digest for d in digests),
    })
    return record


def result_line(record: dict, trace: bool, spec: dict) -> dict:
    """The result line: every metric BENCHMARK.json names for this mode."""
    values = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance-test seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    cleared = pin_environment()
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path) as fh:
        spec = json.load(fh)
    pkg = import_package()
    import_s = [] if args.trace else import_times(SETUP_REPEATS)
    record = run(pkg, args.workload, seed, args.seconds, bool(args.trace), import_s=import_s)
    record["stamp"] = stamp(pkg, args.workload, seed, cleared)
    path = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    line = result_line(record, bool(args.trace), spec)
    print(f"perfbench: {args.workload} seed {seed}: {record['passes']} passes of "
          f"{record['instances_per_pass']} instances, record in {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
