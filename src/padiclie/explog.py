"""Exponential and logarithm maps at finite precision.

Four flavours live here:

* ``exp_congruence`` / ``log_congruence`` between p'.gl(2, Z/p^N) and the
  congruence group {g = 1 mod p'} (p' = p odd, 4 at p = 2);
* ``exp_extended`` / ``log_extended`` between residually nilpotent matrices
  and residually unipotent group elements (p >= 5), with the column forms
  ``exp_extended_columns`` / ``log_extended_columns`` on many elements at
  once;
* ``exp_trunc`` / ``log_trunc``, the degree-(p-1) truncations over F_p on
  nilpotents/unipotents.  There (u - 1)^2 = 0 and x^2 = 0, so they are
  u - 1 and 1 + x, the closed forms the F_p Nori round trip takes; they
  stay as API and as that round trip's oracle;
* ``exp_congruence_classes``, the induced map on classes mod p^n.

Series are summed to a static cutoff chosen so every discarded term has
guaranteed valuation >= N, and division by k (or k!) is performed as exact
division by the p-part followed by a unit inverse.  The computation runs at
a widened working modulus p^W, W = N + V, so those divisions never lose a
digit the answer needs; results are exact mod p^N, with no tolerance
anywhere.

The column kernels run the scalar series (``_exp_series``,
``_log_series``, which stay as the oracle) on two coefficient columns
instead of four entry columns.  An integer 2x2 lift y of trace tau and
determinant det mod p^W has y^2 = tau y - det (Cayley-Hamilton), so
y^k = alpha_k y + beta_k, where alpha_(k+1) = tau alpha_k + beta_k and
beta_(k+1) = -det alpha_k.  Every series term is therefore alpha y + beta
for a pair (alpha, beta) that depends on (tau, det) alone (Higham,
*Functions of Matrices*, SIAM 2008, ch. 1).  A block of elements is
reduced to its distinct (tau, det) pairs (for log, 250 among the 78,125
elements of a 5^7 closure mod 5^3); the series runs once per pair, with
the same division table, cutoff and vanishing-term exit, and
alpha y + beta is formed per element with one gather.

The kernels' domain is y = x (exp) or g - 1 (log) nilpotent mod p, that
is tau = det = 0 mod p, checked on the pairs; it holds the residual and
the congruence domains.  There v(alpha_k) >= floor((k - 1)/2) and
v(beta_k) >= floor(k/2).  These bounds cover v_p(k) for log at p >= 3
and v_p(k!) for exp at p >= 5, so the divisibility check on
(alpha, beta) never fires on the domain.  Where the entries of a term
are not divisible, neither are its coefficients, so it fires wherever a
check on the entries would.  The working precision W = N + V is
unchanged.  Every value formed is below 2 p^(2W) in absolute value, so
the columns are int64 when 2 p^(2W) < 2^62 and object arrays of Python
integers otherwise.  They run a bounded block of elements at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (
    MatP,
    Modulus,
    as_columns,
    checked_columns,
    in_principal_congruence,
    int_valuation,
    residually_nilpotent,
    residually_unipotent,
)
from .errors import DomainViolation, InvariantViolation, PrecisionExceeded, UnsupportedPrime


@dataclass(frozen=True)
class NilpotentResidue:
    """A matrix whose reduction mod p is nilpotent (square zero for 2x2)."""

    matrix: MatP

    def __post_init__(self):
        if not residually_nilpotent(self.matrix):
            raise DomainViolation("matrix is not residually nilpotent")


@dataclass(frozen=True)
class UnipotentResidue:
    """A group element whose reduction mod p is unipotent (g^p = 1 mod p)."""

    matrix: MatP

    def __post_init__(self):
        if not residually_unipotent(self.matrix):
            raise DomainViolation("matrix is not residually unipotent")


def vp_factorial(k: int, p: int) -> int:
    """Legendre's formula for v_p(k!)."""
    v = 0
    q = p
    while q <= k:
        v += k // q
        q *= p
    return v


def _static_cutoff(N: int, slope: Fraction, offset: Fraction) -> int:
    """Least K with offset + k*slope >= N for every k >= K (slope > 0).

    The linear expression is a lower bound for the guaranteed valuation of
    the k-th series term; monotonicity makes a single threshold sound.
    """
    if slope <= 0:
        raise UnsupportedPrime("series does not converge at this prime")
    k = 1
    while offset + k * slope < N:
        k += 1
    return k


@lru_cache(maxsize=None)
def _congruence_cutoff(p: int, N: int, w: int) -> int:
    # term k has valuation >= k*w - v_p(k!) >= k*w - (k-1)/(p-1)
    return _static_cutoff(N, Fraction(w) - Fraction(1, p - 1), Fraction(1, p - 1))


@lru_cache(maxsize=None)
def _resnilp_cutoff(p: int, N: int) -> int:
    # term k has valuation >= floor(k/2) - v_p(k!) >= (k-1)(1/2 - 1/(p-1))
    slope = Fraction(1, 2) - Fraction(1, p - 1)
    return _static_cutoff(N, slope, -slope)


@lru_cache(maxsize=None)
def _division_table(p: int, W: int, cutoff: int) -> tuple[tuple[int, int, int], ...]:
    """(p^a, unit-inverse mod p^W, a) for every k in 1..cutoff-1, where
    k = p^a * u; shared by all series at the same working modulus."""
    pW = p**W
    out = []
    for k in range(1, cutoff):
        a = int_valuation(k, p, W)
        u = k // p**a
        out.append((p**a, pow(u, -1, pW), a))
    return tuple(out)


def _min_valuation(x: MatP) -> int:
    return min(int_valuation(a, x.modulus.p, x.modulus.N) for row in x.rows for a in row)


@lru_cache(maxsize=None)
def _log_working_precision(p: int, N: int, cutoff: int) -> int:
    return N + max((int_valuation(k, p, N + 8) for k in range(1, cutoff)), default=0)


def _exp_series(x: MatP, cutoff: int) -> MatP:
    """1 + x + x^2/2! + ... on a 2x2 matrix, exact mod p^N on domain."""
    p, N = x.modulus.p, x.modulus.N
    W = N + vp_factorial(cutoff - 1, p)
    pW = p**W
    table = _division_table(p, W, cutoff)
    xa, xb, xc, xd = (v % pW for v in x.as_tuple())
    ta, tb, tc, td = 1, 0, 0, 1
    sa, sb, sc, sd = 1, 0, 0, 1
    for pa, uinv, _ in table:
        na = (ta * xa + tb * xc) % pW
        nb = (ta * xb + tb * xd) % pW
        nc = (tc * xa + td * xc) % pW
        nd = (tc * xb + td * xd) % pW
        if pa > 1 and (na % pa or nb % pa or nc % pa or nd % pa):
            raise DomainViolation(
                "series term not divisible by the p-part of k; input outside the domain"
            )
        ta = (na // pa * uinv) % pW
        tb = (nb // pa * uinv) % pW
        tc = (nc // pa * uinv) % pW
        td = (nd // pa * uinv) % pW
        sa = (sa + ta) % pW
        sb = (sb + tb) % pW
        sc = (sc + tc) % pW
        sd = (sd + td) % pW
    pN = p**N
    return MatP(((sa % pN, sb % pN), (sc % pN, sd % pN)), x.modulus)


def _log_series(g: MatP, cutoff: int) -> MatP:
    """(g-1) - (g-1)^2/2 + ... on a 2x2 matrix, exact mod p^N on domain."""
    p, N = g.modulus.p, g.modulus.N
    W = _log_working_precision(p, N, cutoff)
    pW = p**W
    table = _division_table(p, W, cutoff)
    (a, b), (c, d) = g.rows
    ya = (a - 1) % pW
    yb = b % pW
    yc = c % pW
    yd = (d - 1) % pW
    ta, tb, tc, td = 1, 0, 0, 1
    sa = sb = sc = sd = 0
    sign = 1
    for pa, uinv, _ in table:
        na = (ta * ya + tb * yc) % pW
        nb = (ta * yb + tb * yd) % pW
        nc = (tc * ya + td * yc) % pW
        nd = (tc * yb + td * yd) % pW
        ta, tb, tc, td = na, nb, nc, nd
        if pa > 1 and (na % pa or nb % pa or nc % pa or nd % pa):
            raise DomainViolation(
                "series term not divisible by the p-part of k; input outside the domain"
            )
        sa = (sa + sign * (na // pa * uinv)) % pW
        sb = (sb + sign * (nb // pa * uinv)) % pW
        sc = (sc + sign * (nc // pa * uinv)) % pW
        sd = (sd + sign * (nd // pa * uinv)) % pW
        sign = -sign
    pN = p**N
    return MatP(((sa % pN, sb % pN), (sc % pN, sd % pN)), g.modulus)


# Column kernels hold at most this many elements at a time.
_BLOCK_ELEMENTS = 1 << 14


def _in_blocks(kernel, cols, *args) -> tuple[np.ndarray, ...]:
    n = len(cols[0])
    parts = [kernel(tuple(x[lo:lo + _BLOCK_ELEMENTS] for x in cols), *args)
             for lo in range(0, n, _BLOCK_ELEMENTS)]
    if not parts:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _divided(n, pa: int, uinv: int, pW: int):
    """The term n / k = (n / p^a) u^-1 mod p^W for k = p^a u, after the
    divisibility check."""
    if pa == 1:
        return tuple(v * uinv % pW for v in n)
    if any(np.any(v % pa) for v in n):
        raise DomainViolation(
            "series term not divisible by the p-part of k; input outside the domain"
        )
    return tuple(v // pa * uinv % pW for v in n)


def _pairs(y, p: int, pW: int):
    """The distinct (trace, det) pairs of the lifts y mod p^W, as columns
    (tau, -det), and the index of each element's pair.  Every y must be
    nilpotent mod p, that is tau = det = 0 mod p (Cayley-Hamilton)."""
    a, b, c, d = y
    keys = (a + d) % pW * pW + (a * d - b * c) % pW
    keys, inverse = np.unique(keys, return_inverse=True)
    tau, det = keys // pW, keys % pW
    if np.any(tau % p) or np.any(det % p):
        raise DomainViolation(
            "x (exp) or g - 1 (log) is not nilpotent mod p; input outside the domain"
        )
    return tau, -det % pW, inverse


def _times(t, tau, neg_det, pW: int):
    """(alpha, beta) of (alpha y + beta) y = (tau alpha + beta) y - det alpha."""
    alpha, beta = t
    return (tau * alpha + beta) % pW, neg_det * alpha % pW


def _combined(s, inverse, y, pN: int):
    """The element columns of alpha y + beta mod p^N, one pair per element."""
    alpha, beta = (v[inverse] for v in (v % pN for v in s))
    a, b, c, d = y
    return (alpha * a + beta) % pN, alpha * b % pN, alpha * c % pN, (alpha * d + beta) % pN


# The partial sums below are reduced once, at the end: fewer than
# ``cutoff`` terms below p^W each keep them far from overflow, and p^N
# divides p^W.  A term that vanishes mod p^W makes every later one vanish.


def _exp_block(x, p: int, pW: int, pN: int, table):
    x = tuple(v % pW for v in as_columns(x, 2 * pW * pW))
    tau, neg_det, inverse = _pairs(x, p, pW)
    one, zero = np.ones_like(tau), np.zeros_like(tau)
    t = s = (zero, one)
    for pa, uinv, _ in table:
        t = _divided(_times(t, tau, neg_det, pW), pa, uinv, pW)
        if not any(v.any() for v in t):
            break
        s = tuple(u + v for u, v in zip(s, t))
    return _combined(s, inverse, x, pN)


def _log_block(g, p: int, pW: int, pN: int, table):
    a, b, c, d = as_columns(g, 2 * pW * pW)
    y = ((a - 1) % pW, b % pW, c % pW, (d - 1) % pW)
    tau, neg_det, inverse = _pairs(y, p, pW)
    one, zero = np.ones_like(tau), np.zeros_like(tau)
    t = (zero, one)
    s = (zero, zero)
    sign = 1
    for pa, uinv, _ in table:
        t = _times(t, tau, neg_det, pW)
        if not any(v.any() for v in t):
            break
        s = tuple(u + sign * v for u, v in zip(s, _divided(t, pa, uinv, pW)))
        sign = -sign
    return _combined(s, inverse, y, pN)


def _exp_series_columns(x, p: int, N: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """``_exp_series`` on entry columns x = (a, b, c, d), each x nilpotent
    mod p."""
    W = N + vp_factorial(cutoff - 1, p)
    return _in_blocks(_exp_block, x, p, p**W, p**N, _division_table(p, W, cutoff))


def _log_series_columns(g, p: int, N: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """``_log_series`` on entry columns g = (a, b, c, d), each g unipotent
    mod p."""
    W = _log_working_precision(p, N, cutoff)
    return _in_blocks(_log_block, g, p, p**W, p**N, _division_table(p, W, cutoff))


# ---------------------------------------------------------------------------
# Congruence domain: p'.gl <-> {g = 1 mod p'}
# ---------------------------------------------------------------------------


def exp_congruence(x: MatP) -> MatP:
    """exp on p'.gl(2, Z/p^N); the result is trivial mod p'."""
    w = x.modulus.eps_p
    if _min_valuation(x) < w:
        raise DomainViolation(f"entries must have valuation >= {w} (p' domain)")
    result = _exp_series(x, _congruence_cutoff(x.modulus.p, x.modulus.N, w))
    if not in_principal_congruence(result, min(w, x.modulus.N)):
        raise InvariantViolation(f"exp of a p' element is not trivial mod p^{w}")
    return result


def log_congruence(g: MatP) -> MatP:
    """log on {g = 1 mod p'}; two-sided inverse of exp_congruence there."""
    w = g.modulus.eps_p
    if not in_principal_congruence(g, min(w, g.modulus.N)):
        raise DomainViolation(f"g must be trivial mod p^{w} (p' domain)")
    return _log_series(g, _congruence_cutoff(g.modulus.p, g.modulus.N, w))


def exp_congruence_classes(x: MatP, n: int) -> MatP:
    """The class of exp(x) mod p^n; depends only on x mod p^n for n >= eps_p."""
    modulus = x.modulus
    if not modulus.eps_p <= n <= modulus.N:
        raise PrecisionExceeded(f"need eps_p <= n <= N, got n = {n}")
    return exp_congruence(x).reduce(n)


# ---------------------------------------------------------------------------
# Extended domain: residually nilpotent <-> residually unipotent (p >= 5)
# ---------------------------------------------------------------------------


def _require_extended_prime(p: int) -> None:
    # bijectivity needs p > 2*N0 = 4; p = 3 is excluded along with p = 2
    if p < 5:
        raise UnsupportedPrime(f"extended exp/log requires p >= 5, got p = {p}")


def exp_extended(x: MatP | NilpotentResidue) -> UnipotentResidue:
    """exp on residually nilpotent matrices, exact mod p^N (p >= 5)."""
    mat = x.matrix if isinstance(x, NilpotentResidue) else x
    _require_extended_prime(mat.modulus.p)
    if not residually_nilpotent(mat):
        raise DomainViolation("input is not residually nilpotent")
    return UnipotentResidue(_exp_series(mat, _resnilp_cutoff(mat.modulus.p, mat.modulus.N)))


def log_extended(g: MatP | UnipotentResidue) -> NilpotentResidue:
    """log on residually unipotent elements, exact mod p^N (p >= 5)."""
    mat = g.matrix if isinstance(g, UnipotentResidue) else g
    _require_extended_prime(mat.modulus.p)
    if not residually_unipotent(mat):
        raise DomainViolation("input is not residually unipotent")
    return NilpotentResidue(_log_series(mat, _resnilp_cutoff(mat.modulus.p, mat.modulus.N)))


def exp_extended_columns(x, modulus: Modulus) -> tuple[np.ndarray, ...]:
    """``exp_extended`` on the residually nilpotent matrices with entry
    columns x = (a, b, c, d), residues mod p^N; returns their columns."""
    p, N = modulus.p, modulus.N
    _require_extended_prime(p)
    return _exp_series_columns(checked_columns(x), p, N, _resnilp_cutoff(p, N))


def log_extended_columns(g, modulus: Modulus) -> tuple[np.ndarray, ...]:
    """``log_extended`` on the residually unipotent elements with entry
    columns g = (a, b, c, d), residues mod p^N; returns their columns."""
    p, N = modulus.p, modulus.N
    _require_extended_prime(p)
    return _log_series_columns(checked_columns(g), p, N, _resnilp_cutoff(p, N))


# ---------------------------------------------------------------------------
# Truncated maps over F_p
# ---------------------------------------------------------------------------


def exp_trunc(xbar: MatP) -> MatP:
    """exp^(p) y = sum_{i<p} y^i / i! over F_p, on nilpotent y."""
    modulus = xbar.modulus
    if modulus.N != 1:
        raise PrecisionExceeded("truncated exp is defined over F_p (N = 1)")
    if not residually_nilpotent(xbar):
        raise DomainViolation("truncated exp needs a nilpotent input")
    p = modulus.p
    acc = MatP.identity(modulus)
    power = MatP.identity(modulus)
    fact_inv = 1
    for i in range(1, p):
        power = power @ xbar
        if all(a == 0 for row in power.rows for a in row):
            break
        fact_inv = (fact_inv * pow(i, -1, p)) % p
        acc = acc + power.scale(fact_inv)
    return acc


def log_trunc(gbar: MatP) -> MatP:
    """log^(p) x = -sum_{i<p} (1-x)^i / i over F_p, on unipotent x."""
    modulus = gbar.modulus
    if modulus.N != 1:
        raise PrecisionExceeded("truncated log is defined over F_p (N = 1)")
    if not residually_unipotent(gbar):
        raise DomainViolation("truncated log needs a unipotent input")
    p = modulus.p
    y = gbar - MatP.identity(modulus)
    acc = MatP.zero(modulus)
    power = MatP.identity(modulus)
    for i in range(1, p):
        power = power @ y
        if all(a == 0 for row in power.rows for a in row):
            break
        sign = 1 if i % 2 == 1 else -1
        acc = acc + power.scale((sign * pow(i, -1, p)) % p)
    return acc


# ---------------------------------------------------------------------------
# Coset membership against the upper Borel (power-lifting property tests)
# ---------------------------------------------------------------------------


def borel_coset_witness(g: MatP, m: int, *, congruence_part: bool) -> MatP | None:
    """A witness b, upper triangular with det 1, such that b = g mod p^m;
    None when no such b exists.

    With ``congruence_part`` the witness must additionally be trivial mod p
    (membership in (Borel cap K(p)) K(p^m)); without it any upper-triangular
    determinant-one b qualifies (membership in (Borel cap K) K(p^m)).  The
    product set reduces mod p^m onto the upper-triangular subgroup, so the
    witness can be written down from the entries; no coset enumeration is
    needed, and the returned b is the certificate.
    """
    if not 0 <= m <= g.modulus.N:
        raise PrecisionExceeded(f"m = {m} outside [0, {g.modulus.N}]")
    if congruence_part and not in_principal_congruence(g, 1):
        return None
    if m == 0:
        return MatP.identity(g.modulus)
    pN = g.modulus.pN
    pm = g.modulus.p**m
    (a, b), (c, _) = g.rows
    if c % pm != 0:
        return None
    if a % g.modulus.p == 0:
        return None
    return MatP.of([[a, b], [0, pow(a, -1, pN)]], g.modulus)
