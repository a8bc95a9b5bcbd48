"""Outside-in tracer: wraps padiclie's public functions from the benchmark's
own files, with no change to the package.

A spanned function records (name, parent span, start, end) in an in-memory
buffer; self time is the span's duration minus the time its child spans
cover.  Hot primitives are counted, not timed.  Work counters are derived
from call arguments and return values only.  ``install`` binds each wrapper
in every ``padiclie.*`` namespace that holds the wrapped object, so calls
through re-exports (``padiclie.closure_of_generators``,
``nori.log_extended``) are seen too; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Functions recorded as spans, as (module, attribute path).
SPANNED = (
    ("core", "closure_of_generators"),
    ("core", "closure_of_pool"),
    ("core", "group_level"),
    ("explog", "exp_extended"),
    ("explog", "log_extended"),
    ("explog", "exp_trunc"),
    ("explog", "log_trunc"),
    ("lattice", "membership_mod"),
    ("lattice", "LieLattice.from_columns"),
    ("nori", "roundtrip_check_padic"),
    ("nori", "liec_padic"),
    ("nori", "grpc_padic"),
    ("nori", "resnilp_stratum"),
    ("nori", "roundtrip_check_fp"),
    ("nori", "enumerate_unipotent_generated"),
    ("nori", "liec_bar"),
    ("nori", "grpc_bar"),
    ("nori", "FpSubgroup.generated_by"),
    ("congcount", "count_affine"),
    ("congcount", "count_mod_p_on_sl2"),
    ("congcount", "schmidt_check"),
    ("enumeration", "sl2_columns"),
    ("cli", "main"),
    ("reports", "Report.dumps"),
)
# Primitives too hot for a span: counted only.  The metric name of
# MatP.__matmul__ is MatP.matmul.
COUNTED = (
    ("core", "MatP.of"),
    ("core", "MatP.__matmul__"),
    ("core", "SubgroupClosure.contains"),
    ("lattice", "smith_form"),
)
# Every public function defined in these modules is spanned; the layer
# reports their summed self time.
WHOLE_MODULES = ("sampling",)

# Per-layer metrics whose values are times or rates and so vary run to run;
# every other per-layer metric is a count that must repeat exactly.
TIMED_STATS = ("self_frac", "elements_per_s", "points_per_s")


def _metric_base(module: str, path: str) -> str:
    return f"{module}.{path.replace('__matmul__', 'matmul')}"


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.buf = array("q")  # flat (name id, parent offset, start ns, end ns) records
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.instance = 0
        self._patches: list[tuple[object, str, object]] = []
        # work counters, from arguments and return values
        self.closure_keys: set = set()
        self.closure_repeats = 0
        self.closure_elements = 0
        self.closure_budget = 0.0
        self.pool_sizes = 0
        self.subgroups: set = set()
        self.grid_points = 0
        self.grid_budget = 0.0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, func, observe=None):
        nid = len(self.names)
        self.names.append(name)
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns
        signature = inspect.signature(func) if observe is not None else None

        def wrapper(*args, **kwargs):
            i = len(buf)
            buf.extend((nid, stack[-1], clock(), 0))
            stack.append(i)
            try:
                result = func(*args, **kwargs)
            finally:
                buf[i + 3] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # -- observers ----------------------------------------------------------

    def _observe_closure(self, arguments, result):
        gens = arguments["generators"]
        key = (self.instance, gens[0].modulus.pN, tuple(g.rows for g in gens))
        if key in self.closure_keys:
            self.closure_repeats += 1
        self.closure_keys.add(key)
        self.closure_elements += result.order
        self.closure_budget = max(self.closure_budget, result.order / arguments["cap"])

    def _observe_pool(self, arguments, result):
        self.pool_sizes += len(arguments["pool"])

    def _observe_generated_by(self, arguments, result):
        self.subgroups.add((self.instance, result.elements))

    def _observe_count_affine(self, arguments, result):
        f, p, n = arguments["f"], arguments["p"], arguments["n"]
        points = (p**n) ** f.nvars
        self.grid_points += points
        self.grid_budget = max(self.grid_budget, points / arguments["cap"])

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        """Bind ``wrapper`` wherever ``original`` is reachable by name."""
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items() if n == "padiclie" or n.startswith("padiclie.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _wrap(self, module: str, path: str, make) -> None:
        owner = getattr(self.pkg, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = make(_metric_base(module, path), func)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        self._rebind(owner, attr, raw, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "core.closure_of_generators": self._observe_closure,
            "core.closure_of_pool": self._observe_pool,
            "nori.FpSubgroup.generated_by": self._observe_generated_by,
            "congcount.count_affine": self._observe_count_affine,
        }
        targets = list(SPANNED)
        for module in WHOLE_MODULES:
            mod = getattr(self.pkg, module)
            targets += [
                (module, name)
                for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
            ]
        for module, path in targets:
            self._wrap(
                module, path, lambda name, func: self._span(name, func, observers.get(name))
            )
        for module, path in COUNTED:
            self._wrap(module, path, self._counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, 4) if self.buf else np.zeros((0, 4), np.int64)

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive and self seconds per span name."""
        sp = self.spans()
        nid, parent = sp[:, 0], sp[:, 1]
        dur = (sp[:, 3] - sp[:, 2]).astype(np.float64)
        child = np.zeros(len(sp))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent] // 4, dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k) / 1e9
        self_s = np.bincount(nid, weights=own, minlength=k) / 1e9
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["incl_s"] += float(incl[i])
            entry["self_s"] += float(self_s[i])
        return out

    def pool_rebuilds(self) -> int:
        """Closures built directly inside closure_of_pool."""
        sp = self.spans()
        if not len(sp):
            return 0
        pool_ids = [i for i, n in enumerate(self.names) if n == "core.closure_of_pool"]
        gen_ids = [i for i, n in enumerate(self.names) if n == "core.closure_of_generators"]
        parent = sp[:, 1]
        is_child = np.isin(sp[:, 0], gen_ids) & (parent >= 0)
        parents = sp[parent[is_child] // 4, 0]
        return int(np.isin(parents, pool_ids).sum())

    def metrics(self, traced_s: float) -> dict[str, float]:
        """Per-layer metrics: calls and share of the traced time per spanned
        function, the counted primitives, and the derived work counters.
        ``traced_s`` is the wall time the tracer was installed for."""
        table = self.per_name()
        out: dict[str, float] = {}
        for name, entry in table.items():
            out[f"{name}.calls"] = entry["calls"]
            out[f"{name}.self_frac"] = entry["self_s"] / traced_s
        for module in WHOLE_MODULES:
            own = sum(e["self_s"] for n, e in table.items() if n.startswith(module + "."))
            out[f"{module}.self_frac"] = own / traced_s
        for module, path in COUNTED:
            name = _metric_base(module, path)
            out[f"{name}.calls"] = self.counts[name]

        def ratio(a, b):
            return a / b if b else 0.0

        cog = table.get("core.closure_of_generators", {"calls": 0, "self_s": 0.0})
        out["core.closure_of_generators.elements"] = self.closure_elements
        out["core.closure_of_generators.elements_per_s"] = ratio(self.closure_elements, cog["self_s"])
        out["core.closure_of_generators.repeat_frac"] = ratio(self.closure_repeats, cog["calls"])
        out["core.closure_of_generators.budget_frac"] = self.closure_budget
        out["core.closure_of_pool.useful_ratio"] = ratio(self.pool_rebuilds(), self.pool_sizes)
        gen = table.get("nori.FpSubgroup.generated_by", {"calls": 0})
        out["nori.FpSubgroup.generated_by.useful_ratio"] = ratio(len(self.subgroups), gen["calls"])
        ca = table.get("congcount.count_affine", {"self_s": 0.0})
        out["congcount.count_affine.grid_points"] = self.grid_points
        out["congcount.count_affine.points_per_s"] = ratio(self.grid_points, ca["self_s"])
        out["congcount.count_affine.budget_frac"] = self.grid_budget
        return out

    def write_spans(self, path) -> None:
        """Spans as tab-separated text: name, parent row (or -1), start and
        end in nanoseconds of the process clock."""
        sp = self.spans()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for nid, parent, t0, t1 in sp.tolist():
                fh.write(f"{self.names[nid]}\t{parent // 4 if parent >= 0 else -1}\t{t0}\t{t1}\n")
