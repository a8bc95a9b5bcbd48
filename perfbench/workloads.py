"""The four benchmark workloads.

Each workload draws its inputs from a fixed pool: the seeded stream the
acceptance tests use (or, for kernel_closure, a seeded stream of its own),
generated through padiclie's own samplers.  ``expected.json`` records the
canonical output of every pool entry at the commit that defined the
benchmark and, where instance sizes are heavy-tailed, a size class.
``--seed`` picks a fixed number of entries from each class and the order
they run in, so every seed does the same amount of work on different
inputs, and every instance is checked against its recorded output.

An instance is one call into padiclie's public API.  ``Instance.run``
returns ``(output, verdict)``: the canonical output, compared with the
recorded one, and the program's own verdict (``passed``, ``admits``, exit
code 0, the expected subgroup count, a kernel's level), which must hold
as well.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Default seeds are the acceptance-test seeds: criterion 5 (p-adic half)
# and criterion 6.  The F_p round trip and the kernels have none of their own.
DEFAULT_SEEDS = {
    "nori_padic": 20260810,
    "nori_fp": 20260810,
    "kernel_closure": 20260810,
    "congcount_grid": 606,
}
NAMES = tuple(DEFAULT_SEEDS)


@dataclass
class Instance:
    key: str
    run: Callable[[], tuple[Any, bool]]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _canon(obj: Any) -> Any:
    """JSON round trip, so an output compares equal to its recorded form."""
    return json.loads(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# nori_padic: roundtrip_check_padic on the criterion-5 generator sets
# ---------------------------------------------------------------------------

PADIC_POOL = 50
# Closure orders of the pool: 8 sets of 5^7 (about 9 s each), 14 of 5^5
# (0.3 to 0.42 s) and 28 smaller ones (about 30 ms).  A pass runs one 5^7
# set, all fourteen 5^5 sets and three small ones.  The 5^5 sets are most
# of the instances, and they are the same sets whatever the seed, so the
# per-instance latency figures do not move with the seed's choice.
PADIC_HEAVY = 78125
PADIC_PICK = {3125: 14, 125: 3}  # closure order: sets of it per pass


def nori_padic_inputs(pkg) -> dict[str, list]:
    m = pkg.core.Modulus(5, 3)
    sets = pkg.sampling.random_resunip_generator_sets(random.Random(20260810), m, PADIC_POOL)
    return {f"set{i}": gens for i, gens in enumerate(sets)}


def nori_padic_pool(pkg, out_dir: Path) -> dict[str, Instance]:
    m = pkg.core.Modulus(5, 3)

    def instance(gens):
        def run():
            rep = pkg.nori.roundtrip_check_padic([gens], m)
            return _canon(rep.to_json()), rep.passed

        return run

    return {k: Instance(k, instance(gens)) for k, gens in nori_padic_inputs(pkg).items()}


def nori_padic_classes(pkg) -> dict[str, int]:
    """Closure order of each pool set: the size class used for selection."""
    return {k: pkg.core.closure_of_generators(gens).order for k, gens in nori_padic_inputs(pkg).items()}


def around(heavy: str, rest: list[str], rng) -> list[str]:
    """Run order: ``rest`` shuffled, with ``heavy`` in the middle, so the
    small instances are timed in two windows of each pass, not one."""
    rest = list(rest)
    rng.shuffle(rest)
    half = len(rest) // 2
    return rest[:half] + [heavy] + rest[half:]


def nori_padic_select(keys, classes, rng, tiny):
    by_order: dict[int, list[str]] = {}
    for k in keys:
        by_order.setdefault(classes[k], []).append(k)
    if tiny:
        return by_order[min(by_order)][:2]
    heavy = rng.choice(by_order[PADIC_HEAVY])
    rest = [k for order, n in PADIC_PICK.items() for k in rng.sample(by_order[order], n)]
    return around(heavy, rest, rng)


# ---------------------------------------------------------------------------
# nori_fp: the CLI's F_p round trip, in process
# ---------------------------------------------------------------------------

NORI_FP_PRIMES = (7, 11, 13)


def fp_instance(pkg, p: int, out_dir: Path) -> Instance:
    def run():
        path = out_dir / f"nori-p{p}.json"
        code = pkg.cli.main(["nori", "--p", str(p), "--out", str(path)])
        with open(path) as fh:
            report = json.load(fh)
        case = report["cases"][0]
        out = {
            "exit": code,
            "digest": report["digest"],
            "subgroup_count": case["subgroup_count"],
            "algebra_count": case["algebra_count"],
        }
        ok = code == 0 and report["passed"] and case["subgroup_count"] == case["algebra_count"] == p + 3
        return out, ok

    return Instance(f"p{p}", run)


def nori_fp_pool(pkg, out_dir: Path) -> dict[str, Instance]:
    return {f"p{p}": fp_instance(pkg, p, out_dir) for p in NORI_FP_PRIMES}


def nori_fp_select(keys, classes, rng, tiny):
    # The F_p round trip has no random input; the seed only orders the primes.
    if tiny:
        return ["p7"]
    keys = list(keys)
    rng.shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# kernel_closure: group_level on reduction kernels and random pairs
# ---------------------------------------------------------------------------

KERNEL_CAP = 1_000_000
# (p, N, n) of the reduction kernels K(p^n) mod p^N.  K(3) mod 3^5 has
# 531,441 elements; the others close in well under a second.
KERNELS = (
    (3, 5, 1), (3, 5, 2), (3, 4, 1), (3, 6, 4), (5, 3, 1), (5, 4, 2), (5, 4, 3), (7, 3, 1), (7, 4, 3),
)
# (p, N, n) of the random pairs -> (pool size, pairs per pass).  Their
# closure orders vary with the pair, so a pass takes pairs of the level's
# most common order only.  The twelve pairs at (7, 3, 1), of order 7^5 and
# 0.1 to 0.2 s each, are about half of a pass's 23 instances, spread
# through it: the per-instance latency figures rest on many mid-sized
# closures, not on the three kernels that close in a few milliseconds.
PAIRS = {(3, 5, 1): (12, 2), (7, 3, 1): (24, 12)}


def kernel_closure_inputs(pkg) -> dict[str, list]:
    core = pkg.core
    out = {
        f"kernel-{p}-{N}-{n}": list(core.reduction_kernel_generators(core.Modulus(p, N), n))
        for p, N, n in KERNELS
    }
    for (p, N, n), (pool, _) in PAIRS.items():
        rng = random.Random(f"pairs-{p}-{N}-{n}")
        m = core.Modulus(p, N)
        for j in range(pool):
            out[f"pair-{p}-{N}-{n}-{j}"] = [core.random_congruence_element(rng, m, n) for _ in range(2)]
    return out


def kernel_closure_pool(pkg, out_dir: Path) -> dict[str, Instance]:
    def instance(gens, n):
        def run():
            lvl = pkg.core.group_level(gens, cap=KERNEL_CAP)
            return {"level": lvl.level, "order": lvl.closure_order}, n is None or lvl.level == n

        return run

    def kernel_n(key):  # K(p^n) has level n; a random pair's level is only recorded
        return int(key.rsplit("-", 1)[1]) if key.startswith("kernel-") else None

    return {k: Instance(k, instance(gens, kernel_n(k))) for k, gens in kernel_closure_inputs(pkg).items()}


def kernel_closure_select(keys, classes, rng, tiny):
    if tiny:
        return ["kernel-5-4-3", "kernel-3-4-1"]
    heavy = max((k for k in keys if k.startswith("kernel-")), key=classes.__getitem__)
    rest = [k for k in keys if k.startswith("kernel-") and k != heavy]
    for (p, N, n), (_, pick) in PAIRS.items():
        members = [k for k in keys if k.startswith(f"pair-{p}-{N}-{n}-")]
        orders = [classes[k] for k in members]
        common = max(set(orders), key=lambda o: (orders.count(o), o))
        rest += rng.sample([k for k in members if classes[k] == common], pick)
    return around(heavy, rest, rng)


# ---------------------------------------------------------------------------
# congcount_grid: criterion 6 end to end
# ---------------------------------------------------------------------------

CELLS = tuple((d, s, p, n) for d in (1, 2, 3) for s in (1, 2) for p in (3, 5) for n in (1, 2, 3, 4))
CELL_POOL, CELL_PICK = 100, 50  # leading polynomials of each cell stream; picked per pass
SCHMIDT_CASES = 1000
RATIO_PRIMES = (5, 7, 11, 13)
RATIO_NAMED = ("x1", "x0-1", "x0-x3", "x0+x3-2", "x0+x3", "x1*x2")
RATIO_RANDOM = 40


def congcount_grid_pool(pkg, out_dir: Path) -> dict[str, Instance]:
    """The criterion-6 inputs, drawn exactly as the acceptance test draws them."""
    cc = pkg.congcount
    out: dict[str, Instance] = {}

    rng = random.Random(606)
    for j in range(SCHMIDT_CASES):
        p = rng.choice((3, 5, 7))
        d = rng.randrange(1, 5)
        s = rng.randrange(1, 3)
        g = cc.random_polynomial(rng, d, s, p)

        def schmidt(g=g, p=p):
            res = cc.schmidt_check(g, p)
            return [res.count, res.bound], res.passed

        out[f"schmidt-{j}"] = Instance(f"schmidt-{j}", schmidt)

    for d, s, p, n in CELLS:
        rng = random.Random(7000 + 1000 * d + 100 * s + 10 * p + n)
        for j in range(CELL_POOL):
            f = cc.random_polynomial(rng, d, s, p)

            def cell(f=f, s=s, p=p, n=n):
                count = cc.count_affine(f, p, n)
                return count, cc.bound_a6(max(f.degree(mod_p=p), 1), s, p, n).admits(count)

            key = f"cell-{d}-{s}-{p}-{n}-{j}"
            out[key] = Instance(key, cell)

    skipped = (pkg.errors.IdenticallyZeroOnV, pkg.errors.ZeroModP)
    for p in RATIO_PRIMES:
        polys = [(text, cc.parse_poly(text, nvars=4)) for text in RATIO_NAMED]
        rng = random.Random(1000 + p)
        polys += [(f"r{j}", cc.random_polynomial(rng, 3, 4, p)) for j in range(RATIO_RANDOM)]
        for name, f in polys:

            def ratio(f=f, p=p):
                try:
                    return str(cc.count_mod_p_on_sl2(f, p).ratio), True
                except skipped as exc:  # the acceptance sweep skips these too
                    return type(exc).__name__, True

            key = f"ratio-{p}-{name}"
            out[key] = Instance(key, ratio)
    return out


def congcount_grid_select(keys, classes, rng, tiny):
    """Every Schmidt case and ratio, and CELL_PICK polynomials of each cell."""
    if tiny:
        small = [f"cell-{d}-1-{p}-1-{j}" for d, s, p, n in CELLS if (s, n) == (1, 1) for j in range(2)]
        return [f"schmidt-{j}" for j in range(10)] + small + [f"ratio-5-{t}" for t in RATIO_NAMED]
    chosen = [k for k in keys if not k.startswith("cell-")]
    for d, s, p, n in CELLS:
        chosen += [f"cell-{d}-{s}-{p}-{n}-{j}" for j in sorted(rng.sample(range(CELL_POOL), CELL_PICK))]
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------

POOLS = {
    "nori_padic": nori_padic_pool,
    "nori_fp": nori_fp_pool,
    "kernel_closure": kernel_closure_pool,
    "congcount_grid": congcount_grid_pool,
}
SELECT = {
    "nori_padic": nori_padic_select,
    "nori_fp": nori_fp_select,
    "kernel_closure": kernel_closure_select,
    "congcount_grid": congcount_grid_select,
}


def setup(pkg, workload: str, seed: int, expected: dict, out_dir: Path, tiny: bool = False) -> list[Instance]:
    """Generate the pool, then the seeded instance list, in run order."""
    pool = POOLS[workload](pkg, out_dir)
    keys = SELECT[workload](list(pool), expected["classes"].get(workload, {}), random.Random(seed), tiny)
    return [pool[k] for k in keys]


def warm_up(pkg, workload: str, out_dir: Path) -> None:
    """One small call down the workload's code path, so lazy imports and the
    series-parameter caches are filled before timing starts."""
    if workload == "nori_padic":
        m = pkg.core.Modulus(5, 3)
        pkg.nori.roundtrip_check_padic([[pkg.core.MatP.of([[1, 5], [0, 1]], m)]], m)
    elif workload == "nori_fp":
        fp_instance(pkg, 5, out_dir).run()
    elif workload == "kernel_closure":
        m = pkg.core.Modulus(5, 4)
        pkg.core.group_level(list(pkg.core.reduction_kernel_generators(m, 3)), cap=KERNEL_CAP)
    else:
        cc = pkg.congcount
        f = cc.parse_poly("x0*x1-1", nvars=2)
        cc.count_affine(f, 3, 2)
        cc.schmidt_check(f, 5)
        cc.count_mod_p_on_sl2(cc.parse_poly("x1", nvars=4), 5)
