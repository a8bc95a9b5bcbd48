"""Command-line front end: subcommand dispatch, sweep orchestration, and
report emission.

Each ``_cmd_*`` builds its ``Report`` and returns it, raising ``ValueError``
or ``PadicLieError`` on a bad configuration.  ``main`` alone times the
command, emits the report and owns the exit-code policy: 0 all assertions
passed, 1 an assertion failed, 2 config error, 3 a budget was exceeded.
Small-prime correspondence anomalies are reported as warnings, not
failures.  A broken internal invariant (``InvariantViolation``) is a bug,
not a config error: it propagates.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .core import MatP, Modulus, int_rows, is_prime
from .errors import BudgetExceeded, ClosureBudgetExceeded, InvariantViolation, PadicLieError
from .lattice import LieLattice, lattice_level
from .reports import REPORT_SCHEMA, Report, merge_reports

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _parse_matrix(text: str, modulus: Modulus) -> MatP:
    return MatP.of(int_rows(json.loads(text)), modulus)


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


def _cmd_explog_selftest(args) -> Report:
    from .sampling import random_congruence_domain_matrix, random_resnilp_matrix
    from .explog import (
        exp_congruence,
        exp_extended,
        log_congruence,
        log_extended,
    )

    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} must be >= 1")
    modulus = Modulus(args.p, args.N)
    rng = random.Random(args.seed)
    report = Report("explog-selftest", {"p": args.p, "N": args.N, "seed": args.seed,
                                        "trials": args.trials})
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
    return report


def _cmd_approx(args) -> Report:
    from .approx import (
        approximate_sl2,
        guaranteed_exponent,
        optimality_search,
        worst_case_subalgebra,
    )

    if args.N is None:
        args.N = args.n + 3
    if args.N < args.n + 2:
        raise ValueError("need N >= n + 2 precision headroom")
    modulus = Modulus(args.p, args.N)
    report = Report("approx", {"p": args.p, "n": args.n, "N": args.N,
                               "worst_case": args.worst_case,
                               "certify_optimality": args.certify_optimality})
    if args.worst_case:
        # the x_h row: its unit coordinate keeps it surjective at p = 2 too
        M = worst_case_subalgebra(modulus, args.n, (0, 1, 0))
    elif args.input:
        with open(args.input) as fh:
            M = LieLattice.from_json(json.load(fh))
        if M.modulus != modulus:
            raise ValueError(f"lattice literal is at p = {M.modulus.p}, N = {M.modulus.N}, "
                             f"not p = {args.p}, N = {args.N}")
        if lattice_level(M) != args.n:
            raise ValueError(f"lattice has level {lattice_level(M)}, not {args.n}")
    else:
        raise ValueError("pass --input or --worst-case")
    result = approximate_sl2(M)
    floor = guaranteed_exponent(args.p, args.n)
    case = {"result": result.to_json(), "m_achieved": result.m,
            "floor": floor, "passed": result.m >= floor}
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
    return report


def _cmd_nori(args) -> Report:
    from .nori import roundtrip_check_fp, smallest_passing_prime

    report = Report("nori", {"p": args.p, "roundtrip": True})
    rep = roundtrip_check_fp(args.p)
    candidates = tuple(q for q in (5, 7, 11, 13) if q <= max(args.p, 5))
    smallest, _ = smallest_passing_prime(candidates, known={args.p: rep})
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
    return report


def _cmd_phi(args) -> Report:
    from .volumes import (
        fixed_points_P1,
        gamma0_closed_form_applies,
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
        raise ValueError(f"unknown subgroup spec {args.K!r}")
    report = Report("phi", {"p": args.p, "n": args.n, "K": args.K, "x": json.loads(args.x)})
    ratio = phi_brute(predicate, x)
    from .enumeration import sl2_point_count

    total = sl2_point_count(args.p**args.n)
    case = {"count": int(ratio * total), "total": total, "ratio": ratio}
    if args.K == "gamma0" and gamma0_closed_form_applies(x, args.n):
        closed = phi_gamma0(x, args.n)
        fixed = fixed_points_P1(x, args.p, args.n)
        case.update(closed_form=closed, fixed_points=fixed,
                    p1_size=projective_line_size(args.p, args.n),
                    match=(closed == ratio))
        case["passed"] = closed == ratio
    report.add_case(**case)
    return report


def _cmd_cdelta(args) -> Report:
    from .volumes import Gamma0Spec, GammaFullSpec, c_delta

    report = Report("cdelta", {"gamma": json.loads(args.gamma),
                               "gamma0": args.gamma0, "full_level": args.full_level,
                               "decay_table": args.decay_table})
    gamma = json.loads(args.gamma)
    modes = [args.gamma0 is not None, args.full_level is not None, args.decay_table]
    if sum(modes) != 1:
        raise ValueError("pass one of --gamma0, --full-level or --decay-table")
    if args.decay_table:
        primes = [int(t) for t in args.primes.split(",")]
        not_prime = [p for p in primes if not is_prime(p)]
        if not_prime:
            raise ValueError(f"--primes entries {not_prime} are not prime")
        if args.nmax < 1:
            raise ValueError(f"--nmax {args.nmax} must be >= 1")
        for p in primes:
            for n in range(1, args.nmax + 1):
                res = c_delta(gamma, Gamma0Spec(p**n))
                # ratio <= index^(-1/3), cubed into exact integers
                bound_ok = res.count**3 <= res.index**2
                report.add_case(p=p, n=n, count=res.count, index=res.index,
                                ratio=res.ratio, decay_bound_ok=bound_ok, passed=bound_ok)
    elif args.gamma0 is not None:
        res = c_delta(gamma, Gamma0Spec(args.gamma0))
        report.add_case(M=args.gamma0, kind="gamma0", count=res.count,
                        index=res.index, ratio=res.ratio)
    else:
        res = c_delta(gamma, GammaFullSpec(args.full_level))
        report.add_case(M=args.full_level, kind="full", count=res.count,
                        index=res.index, ratio=res.ratio)
    return report


def _cmd_count(args) -> Report:
    from .congcount import bound_a6, count_affine, count_mod_p_on_sl2, parse_poly, schmidt_check

    report = Report("count", {"poly": args.poly, "p": args.p, "n": args.n, "mode": args.mode})
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
        raise ValueError(f"unknown mode {args.mode!r}")
    return report


def _cmd_report_merge(args) -> Report:
    parts = []
    for path in args.inputs:
        with open(path) as fh:
            parts.append(json.load(fh))
    return merge_reports(parts)


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

    sp = sub.add_parser("explog-selftest", help="round-trip the exp/log maps")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--seed", type=int, default=7, help="PRNG seed")
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
    start = time.perf_counter()
    try:
        report = args.func(args)
        report.timing_seconds += time.perf_counter() - start
        _emit(report, args)
    except (BudgetExceeded, ClosureBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation:
        raise  # a bug in the program, not in its configuration
    except (PadicLieError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
