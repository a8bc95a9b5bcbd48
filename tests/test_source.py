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


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def test_library_reads_no_environment():
    # every default is a constant of the source, so a result depends on the
    # arguments alone and never on the environment the process started in
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
        or isinstance(node, ast.Name) and node.id in _ENVIRONMENT
        or isinstance(node, ast.ImportFrom) and any(a.name in _ENVIRONMENT for a in node.names)
    ]
    assert found == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_library_reads_every_import():
    # an import that nothing in the module reads is dead weight;
    # ``__init__`` imports to re-export and is exempt
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in read]
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


# One element representation per use: a ``MatP`` for a single element, entry
# columns for a set.  Only the Python-set closure oracle takes 4-tuples.
_FOUR_TUPLE = ("Tuple4", "tuple[int, int, int, int]")
_TUPLE_ORACLES = {"_closure_python"}
_REMOVED = {"PadicScalar", "Tuple4", "_tuple_to_mat", "_mat_to_tuple", "contains_tuple"}


def _parameters(node):
    args = node.args
    return [a for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if a is not None]


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_no_library_signature_takes_a_four_tuple():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in functions:
            if node.name in _TUPLE_ORACLES:
                continue
            for arg in _parameters(node):
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if any(t in annotation for t in _FOUR_TUPLE):
                    found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg}: {annotation})")
        found += [f"{path.name}: defines {name}" for name in _defined_names(tree) if name in _REMOVED]
    assert found == []
    assert not hasattr(padiclie.FpSubgroup, "contains")  # use H.closure.contains


# One polynomial evaluator: library paths count zeros through
# ``congcount._evaluate_on_columns``; the full grid evaluator is the tests'
# oracle only.
_ORACLE_ONLY = {"_evaluate_on_grid"}


def test_grid_evaluator_is_the_oracle_only():
    found, defined = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in _ORACLE_ONLY:
                defined.add(f"{path.name}:{node.name}")
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in _ORACLE_ONLY:
                found.append(f"{path.name}:{node.lineno} uses {name}")
    assert found == []
    assert defined == {"congcount.py:_evaluate_on_grid"}


# ``cli.main`` alone times a subcommand, emits its report and maps the outcome
# to an exit code; a ``_cmd_*`` builds its Report and raises on a bad
# configuration.
_LIFECYCLE = {"_emit", "perf_counter", "stderr"}


def test_cli_commands_leave_the_report_lifecycle_to_main():
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    commands = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]
    found = []
    for command in commands:
        for node in ast.walk(command):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in _LIFECYCLE:
                found.append(f"cli.py:{node.lineno} {command.name} uses {name}")
            if isinstance(node, ast.Return) and node.value is not None and any(
                isinstance(n, ast.Name) and n.id.startswith("EXIT_") for n in ast.walk(node.value)
            ):
                found.append(f"cli.py:{node.lineno} {command.name} returns an exit code")
    assert len(commands) == 7
    assert found == []


# The exp/log column kernels run on two coefficient columns per distinct
# (trace, det) pair; a 2x2 product per element does not belong in them.
def test_series_kernels_take_no_matrix_products():
    path = next(p for p in SOURCES if p.name == "explog.py")
    found = [
        f"explog.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None) == "mul_columns"
    ]
    assert found == []


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


# Every code of a product of closure elements comes from the one blocked
# kernel ``core._product_codes``; encoding the entry columns of a
# ``mul_columns`` product would be a second, unbounded path beside it.
def test_closure_engine_encodes_no_matrix_products():
    path = next(p for p in SOURCES if p.name == "core.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        products = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_call_to(node.value, "mul_columns")
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if _is_call_to(node, "_encode") and any(
                _is_call_to(sub, "mul_columns") or isinstance(sub, ast.Name) and sub.id in products
                for arg in node.args
                for sub in ast.walk(arg)
            ):
                found.append(f"core.py:{node.lineno} in {func.name}")
    assert found == []
