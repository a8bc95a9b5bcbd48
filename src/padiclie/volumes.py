"""Commutator volumes, fixed-point counts and conjugacy-class quantities
for SL(2) over Z/p^n, each with a brute-force enumeration backend.

All volumes are exact rationals (an integer count over the group order);
no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_ENUM_CAP,
    MatP,
    Modulus,
    Valuation,
    as_columns,
    in_principal_congruence_columns,
    int_rows,
    int_valuation,
    inverse_columns,
    mat_inverse,
    mul_columns,
)
from .enumeration import _factorize, crt_product, sl2_columns, sl2_point_count
from .errors import BudgetExceeded, InvariantViolation, ModulusMismatch, PreconditionViolation
from .lattice import adjoint_matrix

# ---------------------------------------------------------------------------
# lambda_p: the depth to which Ad(x) - 1 vanishes
# ---------------------------------------------------------------------------


def lambda_p(x: MatP) -> Valuation:
    """min over the (e, h, f) basis of the valuation of (Ad(x) - 1),
    capped at N.

    For SL(2) over Q_p the adjoint representation is irreducible, so the
    only nonzero semisimple ideal is all of sl2 and no projection is
    needed; the lattice is the standard span of (e, h, f).
    """
    modulus = x.modulus
    p, N = modulus.p, modulus.N
    cols = adjoint_matrix(x)
    best = N
    for j, col in enumerate(cols):
        for i in range(3):
            delta = (col[i] - (1 if i == j else 0)) % modulus.pN
            best = min(best, int_valuation(delta, p, N))
    return Valuation(best, best == N)


# ---------------------------------------------------------------------------
# Commutator volumes by enumeration
# ---------------------------------------------------------------------------


def _group_columns(q: int, cap: int) -> tuple[np.ndarray, ...]:
    total = sl2_point_count(q)
    if total > cap:
        raise BudgetExceeded(f"|SL(2, Z/{q})| = {total} exceeds cap {cap}")
    return sl2_columns(q)


def phi_brute(
    K: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
    x: MatP,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """vol{k in SL(2, Z/p^n) : [k, x] in K} with normalized counting measure.

    ``K`` is a vectorized membership predicate on entry columns mod q.  The
    conjugating group is the image of SL(2, Z/p^n), a bounded-index choice
    inside the adjoint group; the center acts trivially by conjugation so
    the normalized volume is unaffected.
    """
    q = x.modulus.pN
    k = _group_columns(q, cap)
    # k x k^{-1} x^{-1}
    kxk = mul_columns(mul_columns(k, x.as_tuple(), q), inverse_columns(k, q), q)
    inside = K(*mul_columns(kxk, mat_inverse(x).as_tuple(), q), q)
    return Fraction(int(inside.sum()), len(k[0]))


def predicate_full(a, b, c, d, q):
    return np.ones_like(a, dtype=bool)


def predicate_gamma0(a, b, c, d, q):
    """Image of the lower-left-divisible subgroup: c = 0 mod q."""
    return (c % q) == 0


def predicate_principal(m: int):
    """Image of the principal congruence subgroup of exponent m."""

    def inner(a, b, c, d, q):
        return in_principal_congruence_columns((a, b, c, d), _exponent_to_modulus(q, m))

    return inner


def _exponent_to_modulus(q: int, m: int) -> int:
    factors = _factorize(q)
    if len(factors) != 1:
        raise PreconditionViolation("principal predicate needs a prime-power modulus")
    p, n = factors[0]
    if not 0 <= m <= n:
        raise PreconditionViolation(f"exponent {m} outside [0, n = {n}]")
    return p**m


def predicate_closure(closure) -> Callable:
    """Membership in an explicitly closed subgroup (lookup in its sorted
    codes)."""

    def inner(a, b, c, d, q):
        if q != closure.q:
            raise ModulusMismatch(f"predicate evaluated mod {q}, closure lives mod {closure.q}")
        return closure.contains_columns(a, b, c, d)

    return inner


# ---------------------------------------------------------------------------
# The projective line over Z/M and fixed points
# ---------------------------------------------------------------------------


def projective_line(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical representatives of P^1(Z/M) as columns (X, Y): over each
    prime power q = p^e the points [1 : y], then [p t : 1], assembled by
    the Chinese remainder theorem."""
    parts = []
    for p, e in _factorize(M):
        q = p**e
        X = np.concatenate([np.ones(q, dtype=np.int64), p * np.arange(q // p, dtype=np.int64)])
        Y = np.concatenate([np.arange(q, dtype=np.int64), np.ones(q // p, dtype=np.int64)])
        parts.append((q, (X, Y)))
    return crt_product(parts)


def projective_line_size(p: int, n: int) -> int:
    return p**n + p ** (n - 1)


def _fixed_on_P1(g: Sequence[int], M: int) -> np.ndarray:
    """The mask over ``projective_line(M)`` of the points fixed by the
    Moebius action [X : Y] -> [a X + b Y : c X + d Y] of g = (a, b, c, d).
    A primitive pair is fixed exactly when the cross product
    (a X + b Y) Y - (c X + d Y) X vanishes mod M; with g reduced mod M it
    stays below 2 M^3 in absolute value."""
    X, Y = as_columns(projective_line(M), 2 * M**3)
    a, b, c, d = (v % M for v in g)
    return ((a * X + b * Y) * Y - (c * X + d * Y) * X) % M == 0


def fixed_points_P1(x: MatP, p: int, n: int) -> int:
    """Exact count of points of P^1(Z/p^n) fixed by the Moebius action of x."""
    if not 1 <= n <= x.modulus.N or x.modulus.p != p:
        raise PreconditionViolation("matrix modulus does not cover (p, n)")
    return int(np.count_nonzero(_fixed_on_P1(x.as_tuple(), p**n)))


def gamma0_closed_form_applies(x: MatP, n: int) -> bool:
    """Whether ``phi_gamma0`` is stated for x at exponent n: odd p, n <= N
    and x upper triangular with r = min(v(d - a), v(b)) < n."""
    modulus = x.modulus
    p, N = modulus.p, modulus.N
    (a, b), (c, d) = x.rows
    return (
        p != 2
        and n <= N
        and c % modulus.pN == 0
        and min(int_valuation(d - a, p, N), int_valuation(b, p, N)) < n
    )


def phi_gamma0(x: MatP, n: int) -> Fraction:
    """Closed form for the commutator volume against the lower-left
    congruence subgroup of exponent n, for upper-triangular x.

    With r = min(v(d - a), v(b)) < n:
      two fixed points when v(d - a) < (n + r) / 2, each of depth
      n - v(d - a); otherwise a single tube of depth ceil((n - r) / 2);
    both cases normalized by the size of the projective line.  The identity
    with the brute-force fixed-point count is asserted on every call.
    """
    if not gamma0_closed_form_applies(x, n):
        raise PreconditionViolation(
            f"closed form stated for odd p, n <= N and upper-triangular x with r < n = {n}"
        )
    p, N = x.modulus.p, x.modulus.N
    (a, b), (c, d) = x.rows
    vda = int_valuation(d - a, p, N)
    r = min(vda, int_valuation(b, p, N))
    unit_density = Fraction(p, p + 1)
    if 2 * vda < n + r:
        value = 2 * unit_density * Fraction(1, p ** (n - vda))
    else:
        value = unit_density * Fraction(1, p ** (-((n - r) // -2)))
    brute = Fraction(fixed_points_P1(x, p, n), projective_line_size(p, n))
    if value != brute:
        raise InvariantViolation(
            f"closed form {value} disagrees with the fixed-point count {brute}"
        )
    return value


# ---------------------------------------------------------------------------
# c_Delta: fixed points on coset spaces of SL(2, Z)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gamma0Spec:
    """The congruence subgroup with lower-left entry divisible by M."""

    M: int


@dataclass(frozen=True)
class GammaFullSpec:
    """The principal congruence subgroup of exact level M."""

    M: int


def projective_line_size_composite(M: int) -> int:
    return M * prod(p + 1 for p, _ in _factorize(M)) // prod(p for p, _ in _factorize(M))


@dataclass(frozen=True)
class CosetFixedPoints:
    count: int
    index: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.count, self.index)


def c_delta(gamma: Sequence[Sequence[int]], spec: Gamma0Spec | GammaFullSpec,
            *, cap: int = DEFAULT_ENUM_CAP) -> CosetFixedPoints:
    """Number of fixed points of an integer matrix gamma (det 1) on the
    coset space of the congruence subgroup, with the subgroup index.

    For the lower-left type the cosets are the projective line over Z/M
    and the index is its size, cross-validated against the group-order
    ratio; for the principal type the cosets are all of SL(2, Z/M) and the
    count is found by exhaustive conjugation scan.
    """
    (ga, gb), (gc, gd) = int_rows(gamma)
    if ga * gd - gb * gc != 1:
        raise PreconditionViolation("gamma must have determinant one")
    M = spec.M
    if M < 2:
        raise PreconditionViolation("level M must be >= 2")
    g = (ga % M, gb % M, gc % M, gd % M)
    if isinstance(spec, Gamma0Spec):
        if M > 500:
            raise BudgetExceeded("lower-left type budgeted for M <= 500")
        fixed = _fixed_on_P1(g, M)
        index = len(fixed)
        order_ratio = sl2_point_count(M) // _borel_order(M)
        if index != projective_line_size_composite(M) or index != order_ratio:
            raise InvariantViolation("index formula, enumeration and order ratio disagree")
        return CosetFixedPoints(int(np.count_nonzero(fixed)), index)
    if M > 50:
        raise BudgetExceeded("principal type budgeted for M <= 50")
    k = _group_columns(M, cap)
    # delta^{-1} gamma delta = 1 demands gamma delta = delta
    fixed = np.logical_and.reduce([u == v for u, v in zip(mul_columns(g, k, M), k)])
    return CosetFixedPoints(int(np.count_nonzero(fixed)), len(k[0]))


def _borel_order(M: int) -> int:
    """Order of the upper-triangular determinant-one subgroup of
    SL(2, Z/M): M * phi(M)."""
    phi = M
    for p, _ in _factorize(M):
        phi = phi // p * (p - 1)
    return M * phi


# ---------------------------------------------------------------------------
# The level-factorization aggregate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelFactorization:
    """A level written as a map prime -> exponent (all exponents >= 1)."""

    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "LevelFactorization":
        items = tuple(sorted(mapping.items()))
        for p, e in items:
            if e < 1:
                raise PreconditionViolation("exponents must be >= 1")
        return cls(items)

    @classmethod
    def from_integer(cls, N: int) -> "LevelFactorization":
        return cls.of({p: e for p, e in _factorize(N)})

    def value(self) -> int:
        return prod(p**e for p, e in self.exponents)


def beta(
    levels: LevelFactorization,
    x: Sequence[Sequence[int]] | Mapping[int, MatP],
    delta: Fraction,
) -> int:
    """The product of p^{n_p} over support primes where the adjoint defect
    depth satisfies lambda_p(x) < delta * n_p.

    ``x`` is an integer matrix reduced per prime, or an explicit per-prime
    map.  A depth capped at the working precision n_p counts as at least
    n_p, which is sound for delta <= 1 (capped primes are excluded).
    """
    if not 0 < delta <= 1:
        raise PreconditionViolation("delta must lie in (0, 1]")
    total = 1
    for p, n_p in levels.exponents:
        if isinstance(x, Mapping):
            xp = x[p]
            if xp.modulus.N < n_p:
                raise PreconditionViolation(f"matrix at p = {p} lacks precision {n_p}")
            xp = xp.reduce(n_p) if xp.modulus.N > n_p else xp
        else:
            modulus = Modulus(p, n_p)
            xp = MatP.of(x, modulus)
        lam = lambda_p(xp)
        if not lam.capped and Fraction(lam.value) < delta * n_p:
            total *= p**n_p
    return total


# ---------------------------------------------------------------------------
# Unipotent orbital volume
# ---------------------------------------------------------------------------


def unipotent_orbital_volume(
    K: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
    modulus: Modulus,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """(1 / |U| |G|) #{(u, k) : k^{-1} u k in K} over SL(2, Z/p^n), with U
    the upper unitriangular subgroup.

    The pair count aggregates one unipotent row at a time, so memory stays
    at one group sweep.
    """
    q = modulus.pN
    k = _group_columns(q, cap)
    k_inv = inverse_columns(k, q)
    total_pairs = 0
    for t in range(q):
        # k^{-1} u k with u = [[1, t], [0, 1]]
        inside = K(*mul_columns(mul_columns(k_inv, (1, t, 0, 1), q), k, q), q)
        total_pairs += int(inside.sum())
    return Fraction(total_pairs, q * len(k[0]))
