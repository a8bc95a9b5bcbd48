"""Checks on the library source itself."""

import ast
import importlib
import inspect
from pathlib import Path

import padiclie

SOURCES = sorted(Path(padiclie.__file__).resolve().parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # invariant checks must survive python -O, which strips assert, and
    # raise the typed InvariantViolation, not AssertionError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert len(SOURCES) > 5
    assert found == []


# Every function the benchmark's tracer (perfbench/tracer.py) wraps by name,
# with the parameters its work counters read from the call.
TRACED = {
    "core.closure_of_generators": ("generators", "cap"),
    "core.closure_of_pool": ("pool", "modulus", "cap"),
    "core.group_level": (),
    "core.MatP.of": (),
    "core.MatP.__matmul__": (),
    "core.SubgroupClosure.contains": (),
    "explog.exp_extended": (),
    "explog.log_extended": (),
    "explog.exp_trunc": (),
    "explog.log_trunc": (),
    "lattice.membership_mod": (),
    "lattice.LieLattice.from_columns": (),
    "lattice.smith_form": (),
    "nori.roundtrip_check_padic": (),
    "nori.liec_padic": (),
    "nori.grpc_padic": (),
    "nori.resnilp_stratum": (),
    "nori.roundtrip_check_fp": (),
    "nori.enumerate_unipotent_generated": (),
    "nori.liec_bar": (),
    "nori.grpc_bar": (),
    "nori.FpSubgroup.generated_by": (),
    "congcount.count_affine": ("f", "p", "n", "cap"),
    "congcount.count_mod_p_on_sl2": (),
    "congcount.schmidt_check": (),
    "enumeration.sl2_columns": (),
    "cli.main": (),
    "reports.Report.dumps": (),
}


def test_benchmark_trace_hooks_exist():
    for name, params in TRACED.items():
        module, *path = name.split(".")
        obj = importlib.import_module(f"padiclie.{module}")
        for part in path:
            obj = getattr(obj, part)
        assert callable(obj), name
        found = inspect.signature(obj).parameters
        missing = [p for p in params if p not in found]
        assert missing == [], f"{name} lost parameters {missing}"
        if "cap" in params:
            assert found["cap"].kind == inspect.Parameter.KEYWORD_ONLY, name
