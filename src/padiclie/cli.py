"""Command-line front end: subcommand dispatch, sweep orchestration, and
report emission.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 config
error, 3 a budget was exceeded.  Small-prime correspondence anomalies are
reported as warnings, not failures.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .core import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ENUM_CAP,
    MatP,
    Modulus,
)
from .errors import BudgetExceeded, ClosureBudgetExceeded, PadicLieError
from .lattice import LieLattice, lattice_level
from .reports import REPORT_SCHEMA, Report, merge_reports

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _parse_matrix(text: str, modulus: Modulus) -> MatP:
    rows = json.loads(text)
    return MatP.of(rows, modulus)


def _emit(report: Report, args) -> None:
    payload = report.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if getattr(args, "csv", None):
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_explog_selftest(args) -> int:
    from .sampling import random_congruence_domain_matrix, random_resnilp_matrix
    from .explog import (
        exp_congruence,
        exp_extended,
        log_congruence,
        log_extended,
    )

    modulus = Modulus(args.p, args.N)
    rng = random.Random(args.seed)
    report = Report("explog-selftest", {"p": args.p, "N": args.N, "seed": args.seed,
                                        "trials": args.trials})
    start = time.perf_counter()
    failures = 0
    for _ in range(args.trials):
        x = random_congruence_domain_matrix(rng, modulus)
        if log_congruence(exp_congruence(x)) != x:
            failures += 1
        g = exp_congruence(x)
        if exp_congruence(log_congruence(g)) != g:
            failures += 1
    extended_failures = 0
    if args.p >= 5:
        for _ in range(args.trials):
            y = random_resnilp_matrix(rng, modulus)
            if log_extended(exp_extended(y).matrix).matrix != y:
                extended_failures += 1
    report.add_case(domain="congruence", trials=args.trials, failures=failures,
                    passed=failures == 0)
    if args.p >= 5:
        report.add_case(domain="extended", trials=args.trials,
                        failures=extended_failures, passed=extended_failures == 0)
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_approx(args) -> int:
    from .approx import (
        approximate_sl2,
        optimality_search,
        trace_functional,
        worst_case_subalgebra,
    )

    if args.N is None:
        args.N = args.n + 3
    if args.N < args.n + 2:
        print("config error: need N >= n + 2 precision headroom", file=sys.stderr)
        return EXIT_CONFIG
    modulus = Modulus(args.p, args.N)
    report = Report("approx", {"p": args.p, "n": args.n, "N": args.N,
                               "worst_case": args.worst_case,
                               "certify_optimality": args.certify_optimality})
    start = time.perf_counter()
    if args.worst_case:
        M = worst_case_subalgebra(modulus, args.n, trace_functional((1, 0, 0)))
    elif args.input:
        with open(args.input) as fh:
            M = LieLattice.from_json(json.load(fh))
        if lattice_level(M) != args.n:
            print(f"config error: lattice has level {lattice_level(M)}, not {args.n}",
                  file=sys.stderr)
            return EXIT_CONFIG
    else:
        print("config error: pass --input or --worst-case", file=sys.stderr)
        return EXIT_CONFIG
    result = approximate_sl2(M)
    half = -(args.n // -2)
    case = {"result": result.to_json(), "m_achieved": result.m,
            "floor": half, "passed": result.m >= half}
    if args.certify_optimality:
        refuted_at = None
        for m in range(result.m + 1, args.N - 1 + 1):
            found, _ = optimality_search(M, m)
            if not found:
                refuted_at = m
                break
        case["optimal_refuted_at"] = refuted_at
        case["passed"] = case["passed"] and (refuted_at == result.m + 1)
    report.add_case(**case)
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_nori(args) -> int:
    from .nori import roundtrip_check_fp, smallest_passing_prime

    report = Report("nori", {"p": args.p, "roundtrip": True})
    start = time.perf_counter()
    rep = roundtrip_check_fp(args.p)
    smallest, _ = smallest_passing_prime(tuple(q for q in (5, 7, 11, 13) if q <= max(args.p, 5)))
    report.add_case(
        p=rep.p,
        subgroup_count=rep.subgroup_count,
        algebra_count=rep.algebra_count,
        failures=rep.failures,
        smallest_passing_p_so_far=smallest,
        passed=rep.passed,
    )
    for a in rep.anomalies:
        report.add_anomaly(a)
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_phi(args) -> int:
    from .volumes import (
        fixed_points_P1,
        phi_brute,
        phi_gamma0,
        predicate_full,
        predicate_gamma0,
        predicate_principal,
        projective_line_size,
    )

    modulus = Modulus(args.p, args.n)
    x = _parse_matrix(args.x, modulus)
    if args.K == "gamma0":
        predicate = predicate_gamma0
    elif args.K == "full":
        predicate = predicate_full
    elif args.K.startswith("principal:"):
        predicate = predicate_principal(int(args.K.split(":", 1)[1]))
    else:
        print(f"config error: unknown subgroup spec {args.K!r}", file=sys.stderr)
        return EXIT_CONFIG
    report = Report("phi", {"p": args.p, "n": args.n, "K": args.K, "x": json.loads(args.x)})
    start = time.perf_counter()
    ratio = phi_brute(predicate, x)
    from .enumeration import sl2_point_count

    total = sl2_point_count(args.p**args.n)
    case = {"count": int(ratio * total), "total": total, "ratio": ratio}
    if args.K == "gamma0":
        closed = phi_gamma0(x, args.n)
        fixed = fixed_points_P1(x, args.p, args.n)
        case.update(closed_form=closed, fixed_points=fixed,
                    p1_size=projective_line_size(args.p, args.n),
                    match=(closed == ratio))
        case["passed"] = closed == ratio
    report.add_case(**case)
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_cdelta(args) -> int:
    from .volumes import Gamma0Spec, GammaFullSpec, c_delta

    report = Report("cdelta", {"gamma": json.loads(args.gamma),
                               "gamma0": args.gamma0, "full_level": args.full_level,
                               "decay_table": args.decay_table})
    gamma = json.loads(args.gamma)
    start = time.perf_counter()
    if args.decay_table:
        primes = [int(t) for t in args.primes.split(",")]
        for p in primes:
            for n in range(1, args.nmax + 1):
                res = c_delta(gamma, Gamma0Spec(p**n))
                # ratio <= index^(-1/3), cubed into exact integers
                bound_ok = res.count**3 <= res.index**2
                report.add_case(p=p, n=n, count=res.count, index=res.index,
                                ratio=res.ratio, decay_bound_ok=bound_ok, passed=bound_ok)
    elif args.gamma0:
        res = c_delta(gamma, Gamma0Spec(args.gamma0))
        report.add_case(M=args.gamma0, kind="gamma0", count=res.count,
                        index=res.index, ratio=res.ratio)
    elif args.full_level:
        res = c_delta(gamma, GammaFullSpec(args.full_level))
        report.add_case(M=args.full_level, kind="full", count=res.count,
                        index=res.index, ratio=res.ratio)
    else:
        print("config error: pass --gamma0, --full-level or --decay-table", file=sys.stderr)
        return EXIT_CONFIG
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_count(args) -> int:
    from .congcount import bound_a6, count_affine, count_mod_p_on_sl2, parse_poly, schmidt_check

    report = Report("count", {"poly": args.poly, "p": args.p, "n": args.n, "mode": args.mode})
    start = time.perf_counter()
    if args.mode == "affine":
        f = parse_poly(args.poly)
        count = count_affine(f, args.p, args.n)
        bound = bound_a6(max(f.degree(mod_p=args.p), 1), f.nvars, args.p, args.n)
        report.add_case(count=count, bound_form=bound.to_json(),
                        passed=bound.admits(count))
    elif args.mode == "sl2":
        f = parse_poly(args.poly, nvars=4)
        res = count_mod_p_on_sl2(f, args.p)
        report.add_case(count=res.count, degree=res.degree, ratio=res.ratio, passed=True)
    elif args.mode == "schmidt":
        f = parse_poly(args.poly)
        res = schmidt_check(f, args.p)
        report.add_case(count=res.count, bound=res.bound, passed=res.passed)
    else:
        print(f"config error: unknown mode {args.mode!r}", file=sys.stderr)
        return EXIT_CONFIG
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_report_merge(args) -> int:
    parts = []
    for path in args.inputs:
        with open(path) as fh:
            parts.append(json.load(fh))
    merged = merge_reports(parts)
    payload = json.dumps(merged, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_PASS if merged["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclie",
        description="Exact mod p^N congruence-subgroup and Lie-lattice toolkit for SL(2)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json-schema", action="store_true",
                        help="print the report JSON schema and exit")
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--csv", help="also write the case table as CSV")
        sp.add_argument("--seed", type=int, default=7, help="PRNG seed")

    sp = sub.add_parser("explog-selftest", help="round-trip the exp/log maps")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--trials", type=int, default=500)
    common(sp)
    sp.set_defaults(func=_cmd_explog_selftest)

    sp = sub.add_parser("approx", help="approximate a subalgebra by a proper isolated one")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="level exponent of the input")
    sp.add_argument("--N", type=int, help="working precision (default n + 3)")
    sp.add_argument("--input", help="lattice JSON file {p, N, columns}")
    sp.add_argument("--worst-case", action="store_true",
                    help="use the built-in worst-case instance")
    sp.add_argument("--certify-optimality", action="store_true",
                    help="exhaustively refute any deeper approximation")
    common(sp)
    sp.set_defaults(func=_cmd_approx)

    sp = sub.add_parser("nori", help="verify the mod-p correspondence round trip")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--roundtrip", action="store_true", default=True)
    common(sp)
    sp.set_defaults(func=_cmd_nori)

    sp = sub.add_parser("phi", help="commutator volumes over SL(2, Z/p^n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--K", required=True, help="gamma0 | full | principal:m")
    sp.add_argument("--x", required=True, help="matrix as JSON rows")
    common(sp)
    sp.set_defaults(func=_cmd_phi)

    sp = sub.add_parser("cdelta", help="fixed points on congruence coset spaces")
    sp.add_argument("--gamma", required=True, help="integer matrix as JSON rows")
    sp.add_argument("--gamma0", type=int, help="level M of the lower-left subgroup")
    sp.add_argument("--full-level", type=int, help="level M of the principal subgroup")
    sp.add_argument("--decay-table", action="store_true",
                    help="emit the ratio table over prime powers")
    sp.add_argument("--primes", default="3,5,7")
    sp.add_argument("--nmax", type=int, default=3)
    common(sp)
    sp.set_defaults(func=_cmd_cdelta)

    sp = sub.add_parser("count", help="polynomial congruence counting")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--mode", default="affine", help="affine | sl2 | schmidt")
    common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("report-merge", help="merge JSON reports deterministically")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_report_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json_schema:
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return EXIT_PASS
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (BudgetExceeded, ClosureBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PadicLieError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
