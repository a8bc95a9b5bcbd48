"""The subalgebra approximation algorithm for sl(2), fully explicit.

Given an exact Lie sublattice M of level p^n, produce a proper isolated
subalgebra I with M inside I + p^m * sl2 and m >= ceil(n/2) (ceil(n/2) - 1
at p = 2, n >= 3).

Rank two isolated sublattices are kernels of primitive trace functionals
x -> tr(c x), c = [[c1, c2], [c3, -c1]].  On coordinates (x_e, x_h, x_f) the
functional is the row (A, B, C) = (c3, 2 c1, c2), the only form carried here
(``trace_pairing_row`` maps c to it); rows stay integral at p = 2.  The kernel
is a subalgebra exactly when the residual B^2 + 4 A C = (2 c1)^2 + 4 c2 c3
vanishes.  Off-quadric rows are repaired by an exact lift: the residual is
linear in A once C is a unit, so one Newton step closes it completely and is
its own fixed point.

The module also hosts the matching optimality machinery: a worst-case
constructor from surjective functionals, an exhaustive search over all
proper isolated candidates mod p^m certifying that no better exponent is
possible on a given instance, and a group-level certificate obtained by
taking logarithms over a subgroup closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ENUM_CAP,
    MatP,
    Modulus,
    SubgroupClosure,
    closure_of_generators,
    in_principal_congruence,
    in_principal_congruence_columns,
    int_valuation,
)
from .errors import (
    BudgetExceeded,
    DegenerateSpan,
    InvariantViolation,
    NotSurjective,
    NoUnitDerivative,
    PreconditionViolation,
    UnsupportedPrecision,
    UnsupportedPrime,
)
from .explog import _congruence_cutoff, _log_series_columns
from .lattice import (
    LieLattice,
    Vec,
    is_subalgebra_mod,
    lattice_level,
    membership_mod,
    membership_mod_columns,
)

# ---------------------------------------------------------------------------
# Trace functionals as rows
# ---------------------------------------------------------------------------


def trace_pairing_row(c: Vec) -> Vec:
    """Row (A, B, C) with tr(c x) = A x_e + B x_h + C x_f for c = (c1, c2, c3):
    A = c3, B = 2 c1, C = c2."""
    c1, c2, c3 = c
    return (c3, 2 * c1, c2)


def _row_apply(row: Vec, x: Vec, q: int) -> int:
    return (row[0] * x[0] + row[1] * x[1] + row[2] * x[2]) % q


def quadric_residual(row: Vec, modulus: Modulus) -> int:
    """B^2 + 4 A C mod p^N; zero exactly when the kernel of the row is a
    subalgebra, and divisible by p^m exactly when it maps to a subalgebra
    mod p^m."""
    a, b, c = row
    return (b * b + 4 * a * c) % modulus.pN


def _kernel_columns(row: Vec, modulus: Modulus, scale: int = 1) -> tuple[int, list[Vec]] | None:
    """``scale`` times a basis of the kernel of the row, with the index j of
    its first unit coordinate: the columns scale * (x_i - (w_i / w_j) x_j)
    for i != j.  None when the row has no unit coordinate."""
    pN = modulus.pN
    w = tuple(x % pN for x in row)
    j = next((i for i in range(3) if w[i] % modulus.p != 0), None)
    if j is None:
        return None
    winv = pow(w[j], -1, pN)
    cols = []
    for i in range(3):
        if i == j:
            continue
        v = [0, 0, 0]
        v[i] = scale
        v[j] = (-w[i] * winv * scale) % pN
        cols.append(tuple(v))
    return j, cols


def _row_lattice(row: Vec, modulus: Modulus) -> LieLattice:
    """Kernel of the functional row as a rank-two isolated lattice."""
    kernel = _kernel_columns(row, modulus)
    if kernel is None:
        raise DegenerateSpan(f"functional row {row} has no unit coordinate")
    return LieLattice.from_columns(kernel[1], modulus)


def annihilator_of_plane(x1: Vec, x2: Vec, modulus: Modulus) -> Vec:
    """The canonical primitive row annihilating span{x1, x2}: the cross
    product of the two coordinate rows, checked by substitution."""
    pN = modulus.pN
    r1 = (x1[0] % pN, x1[1] % pN, x1[2] % pN)
    r2 = (x2[0] % pN, x2[1] % pN, x2[2] % pN)
    cross = (
        (r1[1] * r2[2] - r1[2] * r2[1]) % pN,
        (r1[2] * r2[0] - r1[0] * r2[2]) % pN,
        (r1[0] * r2[1] - r1[1] * r2[0]) % pN,
    )
    if all(x % modulus.p == 0 for x in cross):
        raise DegenerateSpan("spanning vectors are dependent modulo p")
    row = _canonical_row(cross, modulus)
    for x in (x1, x2):
        if _row_apply(row, x, pN) != 0:
            raise InvariantViolation("annihilator row does not kill its plane")
    return row


def _canonical_row(row: Vec, modulus: Modulus) -> Vec:
    """Scale so the first unit coordinate in the order (C, A, B) is 1, which
    makes deduplication stable; in c-coordinates the order is (c2, c3, c1)."""
    p, pN = modulus.p, modulus.pN
    a, b, c = (row[0] % pN, row[1] % pN, row[2] % pN)
    for coord in (c, a, b):
        if coord % p != 0:
            s = pow(coord, -1, pN)
            return ((a * s) % pN, (b * s) % pN, (c * s) % pN)
    raise PreconditionViolation(f"row {row} is not primitive")


def lift_quadric(row: Vec, m: int, modulus: Modulus) -> Vec:
    """Move a row with residual divisible by p^m onto the quadric exactly.

    The residual B^2 + 4AC is linear in A once C is a unit (and vice
    versa); primitivity plus p | residual forces such a unit for p odd.
    For p odd the result is congruent mod p^m, for p = 2 mod 2^{m-2}.  The
    result is canonical, and lifting it again returns it unchanged.
    """
    p, pN = modulus.p, modulus.pN
    if p == 2:
        if m < 3:
            raise UnsupportedPrecision("p = 2 lifting needs residual exponent >= 3")
    elif m < 1:
        raise UnsupportedPrecision("lifting needs residual exponent >= 1")
    res = quadric_residual(row, modulus)
    if int_valuation(res, p, modulus.N) < min(m, modulus.N):
        raise PreconditionViolation(f"residual {res} is not divisible by p^{m}")
    if res == 0:
        return _canonical_row(row, modulus)
    a, b, c = row
    if p == 2:
        # residual = 0 mod 8 forces B even, so B^2/4 is an exact integer
        bb = (b * b) % (4 * pN)
        if bb % 4 != 0:
            raise NoUnitDerivative("residual not divisible by 4 at p = 2")
        quarter = bb // 4
        if c % p != 0:
            lifted = ((-quarter * pow(c, -1, pN)) % pN, b, c)
        elif a % p != 0:
            lifted = (a, b, (-quarter * pow(a, -1, pN)) % pN)
        else:
            raise NoUnitDerivative("no unit partial derivative on the quadric")
    elif c % p != 0:
        lifted = ((-b * b * pow(4 * c, -1, pN)) % pN, b, c)
    elif a % p != 0:
        lifted = (a, b, (-b * b * pow(4 * a, -1, pN)) % pN)
    else:
        raise NoUnitDerivative("no unit partial derivative on the quadric")
    if quadric_residual(lifted, modulus) != 0:
        raise InvariantViolation("lift did not land on the quadric")
    keep = min(m - (2 if p == 2 else 0), modulus.N)
    q = p**keep
    if any((x - y) % q != 0 for x, y in zip(lifted, row)):
        raise InvariantViolation(f"lift moved the row above level p^{keep}")
    return _canonical_row(lifted, modulus)


# ---------------------------------------------------------------------------
# r-selection (the general algorithm's index choice, kept as a trace)
# ---------------------------------------------------------------------------


# The splitting constant c that ``select_r`` selects r with.
_SPLITTING_CONSTANT = Fraction(1, 4)


def select_r(divisors: Sequence[int]) -> tuple[int, int]:
    """The maximal 1-based index r with a_r < c * a_{r+1} (0 when none) and
    the guaranteed exponent nu = ceil((1 - 2c) c^(d-r-1) n), n = a_d, for the
    splitting constant c = 1/4.

    The selection chain a_{r+1} >= c^(d-r-1) n is asserted on every call.
    """
    c = _SPLITTING_CONSTANT
    alpha = list(divisors)
    d = len(alpha)
    n = alpha[-1]
    if n < 1:
        raise PreconditionViolation("level exponent must be >= 1")
    r = 0
    for i in range(1, d):
        if alpha[i - 1] < c * alpha[i]:
            r = i
    nu = math.ceil((1 - 2 * c) * c ** (d - r - 1) * n)
    # alpha[r] is a_{r+1} one-based; every index above r failed the splitting
    # test, so a_{r+1} >= c a_{r+2} >= ... >= c^(d-r-1) a_d
    if Fraction(alpha[r]) < c ** (d - r - 1) * n:
        raise InvariantViolation("selection chain violated: a_{r+1} < c^(d-r-1) n")
    return r, nu


# ---------------------------------------------------------------------------
# The approximation algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxResult:
    """Output of the approximation: a proper isolated subalgebra I, the
    depth exponent m with M inside I + p^m * sl2 (verified before return),
    the branch taken, the r-selection trace (r, nu), and the functional row
    whose kernel is I on the rank-two branch."""

    subalgebra: LieLattice
    m: int
    branch: str  # "rank1" or "rank2-lifted"
    r_selection_trace: tuple[int, int]
    annihilator_row: Vec | None = None

    def to_json(self) -> dict:
        r, nu = self.r_selection_trace
        return {
            "subalgebra": self.subalgebra.to_json(),
            "m": self.m,
            "branch": self.branch,
            "r_selection_trace": {"r": r, "nu": nu, "c_constant": str(_SPLITTING_CONSTANT)},
            "annihilator_row": list(self.annihilator_row) if self.annihilator_row else None,
        }


def guaranteed_exponent(p: int, n: int) -> int:
    """The depth ``approximate_sl2`` guarantees at level p^n: ceil(n/2),
    less one at p = 2."""
    half = math.ceil(Fraction(n, 2))
    return half if p != 2 else max(half - 1, 0)


def approximate_sl2(M: LieLattice) -> ApproxResult:
    """Approximate an exact subalgebra M of level p^n by a proper isolated
    subalgebra to depth m >= ceil(n/2) (p odd; >= ceil(n/2) - 1 for p = 2,
    where n >= 3).

    Branch on the elementary divisors a = (a1, a2, a3), n = a3: when
    a2 >= n/2 the first adapted direction already works with m = a2;
    otherwise the plane (x1, x2) maps to a subalgebra mod p^{n - a1 - a2},
    its annihilator is lifted onto the quadric, and m = n - a2 (minus the
    two-digit lift loss at p = 2).  The containment M inside I + p^m sl2 is
    re-verified on every generator before returning.
    """
    modulus = M.modulus
    p, N = modulus.p, modulus.N
    if not M.is_full_rank:
        raise PreconditionViolation("approximation needs a full-rank (open) sublattice")
    if not is_subalgebra_mod(M, N - 1):
        raise DegenerateSpan("input lattice is not an exact Lie subalgebra")
    n = lattice_level(M)
    if n < 1:
        raise PreconditionViolation("level exponent must be >= 1")
    if p == 2 and n < 3:
        raise UnsupportedPrecision("p = 2 path needs level exponent n >= 3")
    if N < n + 2:
        raise UnsupportedPrecision(f"need N >= n + 2 precision headroom, got N = {N}")

    a1, a2, _ = M.divisors
    trace = select_r(M.divisors)
    floor_m = guaranteed_exponent(p, n)

    threshold = Fraction(n, 2) if p != 2 else Fraction(n, 2) - 1
    if Fraction(a2) >= threshold:
        x1 = M.adapted_basis[0]
        subalgebra = LieLattice.from_columns([x1], modulus).saturated()
        result = ApproxResult(subalgebra, a2, "rank1", trace)
    else:
        x1, x2 = M.adapted_basis[0], M.adapted_basis[1]
        row = annihilator_of_plane(x1, x2, modulus)
        lifted = lift_quadric(row, n - a1 - a2, modulus)
        subalgebra = _row_lattice(lifted, modulus)
        m = n - a2 - (2 if p == 2 else 0)
        result = ApproxResult(subalgebra, m, "rank2-lifted", trace, annihilator_row=lifted)

    if result.m < floor_m:
        raise InvariantViolation(f"achieved exponent {result.m} below guaranteed {floor_m}")
    if result.subalgebra.rank >= 3:
        raise InvariantViolation("approximating subalgebra is not proper")
    if result.subalgebra.saturated() != result.subalgebra:
        raise InvariantViolation("approximating subalgebra is not isolated")
    if not is_subalgebra_mod(result.subalgebra, N - 1):
        raise InvariantViolation("approximating lattice is not an exact subalgebra")
    for g in M.generators:
        if not membership_mod(result.subalgebra, g, result.m):
            raise InvariantViolation("postcondition M inside I + p^m sl2 failed")
    return result


# ---------------------------------------------------------------------------
# Worst-case construction and exhaustive optimality search
# ---------------------------------------------------------------------------


def worst_case_subalgebra(modulus: Modulus, n: int, functional_row: Vec) -> LieLattice:
    """The level-p^n subalgebra p^k ker(phi) + p^n sl2 for n = 2k and a
    surjective functional phi on sl2 / p^k sl2 given by ``functional_row``.

    Automatically a subalgebra: brackets of p^k sl2 land in p^{2k} sl2.
    Level and subalgebra facts are asserted before returning.
    """
    p, N = modulus.p, modulus.N
    if n % 2 != 0 or n < 2:
        raise PreconditionViolation("the worst-case family needs an even level n = 2k")
    if n > N:
        raise UnsupportedPrecision(f"need N >= n, got N = {N}")
    pN, pk = modulus.pN, p ** (n // 2)
    kernel = _kernel_columns(functional_row, modulus, pk)
    if kernel is None:
        raise NotSurjective("functional has no unit coordinate mod p^k")
    j, cols = kernel
    cols.append(tuple((pk * pk) % pN if t == j else 0 for t in range(3)))
    for i in range(3):
        cols.append(tuple((p**n) % pN if t == i else 0 for t in range(3)))
    M = LieLattice.from_columns(cols, modulus)
    if lattice_level(M) != n:
        raise InvariantViolation("worst-case instance does not have the requested level")
    if not is_subalgebra_mod(M, N - 1):
        raise InvariantViolation("worst-case instance is not a subalgebra")
    return M


def _projective_triples(p: int, m: int) -> Iterator[Vec]:
    """Primitive triples mod p^m up to unit scaling, one per class: first
    unit coordinate normalized to 1, earlier coordinates divisible by p."""
    q = p**m
    qp = p ** (m - 1)
    for a in range(q):
        for b in range(q):
            yield (1, a, b)
    for a in range(qp):
        for b in range(q):
            yield (p * a, 1, b)
    for a in range(qp):
        for b in range(qp):
            yield (p * a, p * b, 1)


def projective_point_count(p: int, m: int) -> int:
    return p ** (2 * m) + p ** (2 * m - 1) + p ** (2 * m - 2)


def optimality_search(
    M: LieLattice, m: int, *, cap: int = DEFAULT_ENUM_CAP
) -> tuple[bool, dict | None]:
    """Decide by exhaustion whether any proper isolated subalgebra I has
    M inside I + p^m sl2 (p odd).

    Candidates mod p^m are complete for this question: rank-one spans are
    primitive vectors up to scaling; rank-two isolated subalgebras are the
    J(c) with residual divisible by p^m (an exact one reduces to such a c,
    and conversely any such c lifts); membership of M in I + p^m sl2 only
    depends on the candidate mod p^m.  Returns the verdict plus a witness
    when one exists.
    """
    modulus = M.modulus
    p, N = modulus.p, modulus.N
    if not 1 <= m <= N - 1:
        raise PreconditionViolation(f"m = {m} outside [1, {N - 1}]")
    if p == 2:
        raise UnsupportedPrime("optimality search is for odd p")
    q = p**m
    budget = 2 * projective_point_count(p, m)
    if budget > cap:
        raise BudgetExceeded(f"candidate count ~{budget} exceeds cap {cap}")
    gens = [tuple(x % q for x in g) for g in M.generators]

    for v in _projective_triples(p, m):
        j = next(i for i in range(3) if v[i] % p != 0)
        vj_inv = pow(v[j], -1, q)
        if all((u[i] - u[j] * vj_inv * v[i]) % q == 0 for u in gens for i in range(3)):
            return True, {"kind": "rank1", "vector": v}

    for c in _projective_triples(p, m):
        row = trace_pairing_row(c)
        if quadric_residual(row, modulus) % q == 0 and all(_row_apply(row, u, q) == 0 for u in gens):
            return True, {"kind": "rank2", "functional": c}

    return False, None


# ---------------------------------------------------------------------------
# Group-level certificate
# ---------------------------------------------------------------------------


def group_certificate(
    generators: Sequence[MatP] | SubgroupClosure,
    I: LieLattice,
    m: int,
    *,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """Whether every element of the generated subgroup H satisfies
    log(h) in p*I + p^m sl2, i.e. H is inside exp(p I) K(p^m).

    Generators, or every element of a precomputed closure, must be trivial
    mod p', live at the lattice's modulus, and p must be odd; a closure may
    be passed to share work across candidate subalgebras.  The logarithms
    of all elements are taken at once on the closure's entry columns and
    tested together; they are exact at precision N, so the verdict is sound
    and complete there.
    """
    modulus = I.modulus
    p, N = modulus.p, modulus.N
    if p == 2:
        raise UnsupportedPrime("group certificates are for odd p")
    if not 0 <= m <= N - 1:
        raise PreconditionViolation(f"m = {m} outside [0, {N - 1}]")
    if isinstance(generators, SubgroupClosure):
        closure = generators
        if closure.q != modulus.pN:
            raise PreconditionViolation("closure modulus does not match the lattice")
        if not in_principal_congruence_columns(closure.columns(), modulus.p_prime).all():
            raise PreconditionViolation("closure elements must be trivial mod p'")
    else:
        for g in generators:
            if g.modulus != modulus:
                raise PreconditionViolation("generator modulus does not match the lattice")
            if not in_principal_congruence(g, modulus.eps_p):
                raise PreconditionViolation("generators must be trivial mod p'")
        closure = closure_of_generators(generators, cap=cap)
    cutoff = _congruence_cutoff(p, N, modulus.eps_p)
    a, b, c, d = _log_series_columns(closure.columns(), p, N, cutoff)
    if np.any((a + d) % modulus.pN):
        raise InvariantViolation("logarithm of a congruence SL(2) element must be traceless")
    target = I.scaled(1).plus_scaled_ambient(m)
    return bool(membership_mod_columns(target, (b, a, c), N).all())
