"""Exact counting of polynomial congruence solutions, over affine space
mod p^n and over SL(2, F_p), with the three explicit bounds they are
checked against.

Affine zeros mod p^n are counted on a p-adic digit tree, the reduction
behind Igusa's local zeta function (Denef, "Report on Igusa's local zeta
function", Seminaire Bourbaki 741, 1991). Level 1 is the grid mod p,
evaluated mod p^2 together with its probes x + p e_i in one pass. A root
mod p at which some partial derivative is a unit has exactly
p^((s-1)(n-1)) lifts mod p^n (Hensel), counted in closed form; only the
singular roots are lifted, one digit at a time. Counts on SL(2, F_p) are
exhaustive. Every count evaluates f with one column evaluator, on entry
columns that are int64 while every product stays below 2^62 and Python
integers otherwise; the full-grid evaluator is kept only as the tests'
oracle. Bound comparisons involving a fractional power of p are raised to
an integer power first, so nothing is ever floated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping

import numpy as np

from .core import DEFAULT_ENUM_CAP, column_dtype, is_prime
from .enumeration import sl2_columns, sl2_point_count
from .errors import (
    BudgetExceeded,
    IdenticallyZeroOnV,
    PreconditionViolation,
    ZeroModP,
    ZeroPolynomial,
)


@dataclass(frozen=True)
class IntPolynomial:
    """A sparse integer polynomial: exponent vectors mapped to coefficients."""

    terms: tuple[tuple[tuple[int, ...], int], ...]
    nvars: int

    @classmethod
    def of(cls, terms: Mapping[tuple[int, ...], int], nvars: int) -> "IntPolynomial":
        cleaned = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong arity")
            if coeff != 0:
                cleaned[tuple(exps)] = cleaned.get(tuple(exps), 0) + coeff
        return cls(tuple(sorted((e, c) for e, c in cleaned.items() if c != 0)), nvars)

    def degree(self, mod_p: int | None = None) -> int:
        """Total degree; with ``mod_p`` monomials vanishing mod p are ignored."""
        degs = [
            sum(e)
            for e, c in self.terms
            if mod_p is None or c % mod_p != 0
        ]
        return max(degs, default=0)

    def is_zero(self, mod_p: int | None = None) -> bool:
        return all(c % mod_p == 0 for _, c in self.terms) if mod_p else not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms:
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
            )
            if mono:
                pieces.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                pieces.append(str(coeff))
        return "+".join(pieces).replace("+-", "-")


_TOKEN = re.compile(r"\s*(?:(?P<coeff>\d+)|(?P<var>x\d+)(?:\^(?P<exp>\d+))?|(?P<op>[*+-]))\s*")


def parse_poly(text: str, nvars: int | None = None) -> IntPolynomial:
    """Parse expressions like ``x0^2+x1^2`` or ``3*x0*x1^2 - 2``.

    The grammar is sums of signed monomial products; anything else is
    rejected.  A run of signs composes (``- -`` is ``+``), and a ``*`` or a
    sign must be followed by a factor, a ``*`` also preceded by one.
    """
    terms: dict[tuple[int, ...], int] = {}
    max_var = -1
    pending_sign = 1
    factors: list[tuple[int, int] | int] = []
    last = None  # the last token: "factor" or its operator

    def flush():
        nonlocal factors, pending_sign
        coeff = pending_sign
        exps: dict[int, int] = {}
        for f in factors:
            if isinstance(f, int):
                coeff *= f
            else:
                v, e = f
                exps[v] = exps.get(v, 0) + e
        key_len = (max(exps) + 1) if exps else 0
        key = tuple(exps.get(i, 0) for i in range(key_len))
        terms[key] = terms.get(key, 0) + coeff
        factors, pending_sign = [], 1

    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        pos = m.end()
        op = m.group("op")
        if op == "*" and last != "factor" or op in ("+", "-") and last == "*":
            raise ValueError(f"misplaced {op!r} in polynomial {text!r}")
        last = op or "factor"
        if m.group("coeff") is not None:
            factors.append(int(m.group("coeff")))
        elif m.group("var") is not None:
            v = int(m.group("var")[1:])
            max_var = max(max_var, v)
            factors.append((v, int(m.group("exp") or 1)))
        elif op in ("+", "-"):
            if factors:
                flush()
            if op == "-":
                pending_sign = -pending_sign
    if pos != len(text):
        raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
    if last not in (None, "factor"):
        raise ValueError(f"polynomial {text!r} ends in {last!r}")
    if factors:
        flush()
    if not terms:
        raise ValueError("empty polynomial")
    s = nvars if nvars is not None else max_var + 1
    padded = {tuple(list(k) + [0] * (s - len(k))): c for k, c in terms.items()}
    return IntPolynomial.of(padded, s)


# ---------------------------------------------------------------------------
# Affine counting
# ---------------------------------------------------------------------------


def _evaluate_on_grid(f: IntPolynomial, q: int) -> np.ndarray:
    """Values of f on (Z/q)^s as an s-dimensional int64 array mod q, built
    independently of ``_evaluate_on_columns``: the test oracle of
    ``count_affine`` at q = p^n and of ``count_mod_p_on_sl2`` at q = p. No
    library path calls it."""
    s = f.nvars
    xs = np.arange(q, dtype=np.int64)
    max_exp = [0] * s
    for exps, _ in f.terms:
        for i, e in enumerate(exps):
            max_exp[i] = max(max_exp[i], e)
    pow_tables = []
    for i in range(s):
        table = [np.ones(q, dtype=np.int64)]
        for _ in range(max_exp[i]):
            table.append((table[-1] * xs) % q)
        pow_tables.append(table)
    acc = np.zeros((q,) * s, dtype=np.int64)
    for exps, coeff in f.terms:
        term = np.int64(coeff % q)
        piece = np.full((1,) * s, term, dtype=np.int64)
        for i, e in enumerate(exps):
            shape = [1] * s
            shape[i] = q
            piece = (piece * pow_tables[i][e].reshape(shape)) % q
        acc = (acc + piece) % q
    return acc


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise PreconditionViolation(f"p = {p} is not prime")


# Points evaluated per block, and children formed per block of the descent.
_BLOCK = 1 << 14


def _evaluate_on_columns(exps: np.ndarray, coeffs: list[int], xs: np.ndarray, q: int) -> np.ndarray:
    """Values mod q of sum_t coeffs[t] x^exps[t] at each point column of xs
    (shape (s, m)), ``_BLOCK`` points at a time: int64 while products
    (< q^2) and term sums (< T q) stay below 2^62, Python integers
    otherwise."""
    s, m = xs.shape
    if m > _BLOCK:
        return np.concatenate([_evaluate_on_columns(exps, coeffs, xs[:, lo:lo + _BLOCK], q)
                               for lo in range(0, m, _BLOCK)])
    dtype = column_dtype(q * max(q, len(coeffs)))
    xs = xs.astype(dtype, copy=False)
    top = int(exps.max())
    powers = np.empty((top + 1, s, m), dtype=dtype)
    powers[0] = 1
    for j in range(1, top + 1):
        powers[j] = powers[j - 1] * xs % q
    factors = powers[exps, np.arange(s)]
    acc = np.array([c % q for c in coeffs], dtype=dtype)[:, None]
    for i in range(s):
        acc = acc * factors[:, i] % q
    return acc.sum(axis=0) % q


def _lift(exps: np.ndarray, coeffs: list[int], nodes: np.ndarray, digits: np.ndarray, p: int, k: int):
    """The points x + p^k t for each node column x and digit column t, and
    the values of f mod p^(k+1) there, one row per node."""
    dtype = column_dtype(p ** (k + 1))
    children = (nodes.astype(dtype)[:, :, None] + digits.astype(dtype)[:, None, :] * p**k).reshape(len(nodes), -1)
    values = _evaluate_on_columns(exps, coeffs, children, p ** (k + 1))
    return children, values.reshape(-1, digits.shape[1])


def count_affine(f: IntPolynomial, p: int, n: int, *, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact number of zeros of f on (Z/p^n)^s, by a p-adic digit tree.

    At n = 1 the count is the zeros of f on the grid mod p. For k >= 1,
    f(x + p^k t) = f(x) + p^k grad f(x).t mod p^(k+1), and grad f mod p is
    the same for every lift of x. So a root mod p where some partial
    derivative is a unit has exactly p^(s-1) children at each level, and
    p^((s-1)(n-1)) lifts mod p^n; these are counted in closed form. Level 1
    is one evaluation mod p^2 at every x of the grid mod p and at its
    probes x + p e_i: the roots are the x with p | f(x), and the gradient
    mod p is read off f(x + p e_i) - f(x) = p df/dx_i(x) mod p^2.
    The singular roots are lifted one digit at a time: the p^s children
    x + p^k t of each root mod p^k are evaluated mod p^(k+1), in blocks of
    at most ``_BLOCK`` children (or one root's), and the zeros are kept.
    The cap bounds q^s for q = p^n; the tree visits fewer than 2 q^s nodes.
    ``(_evaluate_on_grid(f, p**n) == 0).sum()`` is the test oracle.
    """
    _require_prime(p)
    if f.is_zero(mod_p=p):
        raise ZeroModP("polynomial vanishes identically mod p")
    if n < 1 or f.nvars < 1:
        raise PreconditionViolation("need n >= 1 and at least one variable")
    q = p**n
    if q**f.nvars > cap:
        raise BudgetExceeded(f"grid size {q ** f.nvars} exceeds cap {cap}")
    s = f.nvars
    exps = np.array([e for e, _ in f.terms], dtype=np.int64)
    coeffs = [c for _, c in f.terms]
    digits = np.indices((p,) * s).reshape(s, -1)
    if n == 1:
        return int((_evaluate_on_columns(exps, coeffs, digits, p) == 0).sum())
    # f mod p^2 at each x of the grid mod p and at its probes x + p e_i
    _, near = _lift(exps, coeffs, digits, np.eye(s + 1, s, -1, dtype=np.int64).T, p, 1)
    roots = near[:, 0] % p == 0
    singular = roots & (near == near[:, :1]).all(axis=1)
    total = int((roots & ~singular).sum()) * p ** ((s - 1) * (n - 1))
    if not singular.any():
        return total
    chunk = max(1, _BLOCK // p**s)
    # Depth first, so at most one partial block waits per level.
    stack = [(1, digits[:, singular])]
    while stack:
        k, nodes = stack.pop()
        if nodes.shape[1] > chunk:
            stack.append((k, nodes[:, chunk:]))
            nodes = nodes[:, :chunk]
        children, values = _lift(exps, coeffs, nodes, digits, p, k)
        kept = values.ravel() == 0
        if k + 1 == n:
            total += int(kept.sum())
        elif kept.any():
            stack.append((k + 1, children[:, kept]))
    return total


@dataclass(frozen=True)
class CongruenceBound:
    """The bound d^s C(n+s-1, s-1) p^{ns - n/d} on affine zero counts,
    kept as an integer factor and a fractional p-power.

    Comparisons raise both sides to the d-th power: the count satisfies the
    bound exactly when count^d <= (d^s C)^d p^{nsd - n}.
    """

    integer_factor: int
    p: int
    power_numerator: int
    power_denominator: int

    def admits(self, count: int) -> bool:
        d = self.power_denominator
        lhs = count**d
        rhs = self.integer_factor**d * self.p**self.power_numerator
        return lhs <= rhs

    def to_json(self) -> dict:
        return {
            "integer_factor": self.integer_factor,
            "p_power": f"{self.p}^({self.power_numerator}/{self.power_denominator})",
        }


def bound_a6(d: int, s: int, p: int, n: int) -> CongruenceBound:
    """The count-form bound for degree-d polynomials in s variables mod p^n."""
    _require_prime(p)
    if min(d, s, n) < 1:
        raise PreconditionViolation("d, s, n must all be >= 1")
    B = d**s * comb(n + s - 1, s - 1)
    return CongruenceBound(B, p, n * s * d - n, d)


# ---------------------------------------------------------------------------
# Counting on SL(2, F_p) and the constant-free mod-p bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarietyCount:
    count: int
    degree: int
    p: int

    @property
    def ratio(self) -> Fraction:
        """count / (deg f * p^{dim V - 1}) with dim SL(2) = 3: the measured
        stand-in for the bound's implied constant."""
        return Fraction(self.count, self.degree * self.p**2)


def count_mod_p_on_sl2(f: IntPolynomial, p: int, *, cap: int = DEFAULT_ENUM_CAP) -> VarietyCount:
    """Exact zero count of a 4-variable polynomial (entries a, b, c, d) on
    SL(2, F_p), with the measured ratio against deg(f) p^2.  The cap
    bounds |SL(2, F_p)| and is checked before the group is enumerated."""
    if f.nvars != 4:
        raise PreconditionViolation("polynomial must use the four matrix entries x0..x3")
    _require_prime(p)
    if p > 101:
        raise BudgetExceeded("budgeted for prime p <= 101")
    deg = f.degree(mod_p=p)
    if f.is_zero(mod_p=p):
        raise ZeroModP("polynomial vanishes identically mod p")
    total = sl2_point_count(p)
    if total > cap:
        raise BudgetExceeded(f"|SL(2, F_p)| = {total} exceeds cap {cap}")
    exps = np.array([e for e, _ in f.terms], dtype=np.int64)
    values = _evaluate_on_columns(exps, [c for _, c in f.terms], np.stack(sl2_columns(p)), p)
    count = int((values == 0).sum())
    if count == total:
        raise IdenticallyZeroOnV("polynomial vanishes on every point of SL(2, F_p)")
    return VarietyCount(count, deg, p)


@dataclass(frozen=True)
class SchmidtCheck:
    count: int
    bound: int
    degree: int

    @property
    def passed(self) -> bool:
        return self.count <= self.bound


def schmidt_check(g: IntPolynomial, p: int, *, cap: int = DEFAULT_ENUM_CAP) -> SchmidtCheck:
    """Exhaustive zero count over F_p^s against the bound deg(g) p^{s-1}."""
    _require_prime(p)
    if g.is_zero(mod_p=p):
        raise ZeroPolynomial("polynomial is zero over F_p")
    count = count_affine(g, p, 1, cap=cap)
    deg = g.degree(mod_p=p)
    return SchmidtCheck(count, deg * p ** (g.nvars - 1), deg)


def random_polynomial(rng, d: int, s: int, p: int) -> IntPolynomial:
    """A seeded random polynomial of total degree <= d in s variables, with
    coefficients in [-p^2, p^2], guaranteed nonzero mod p."""
    hi = p**2
    while True:
        terms = {}
        for exps in _monomials_up_to(d, s):
            if rng.random() < 0.6:
                terms[exps] = rng.randrange(-hi, hi + 1)
        f = IntPolynomial.of(terms, s)
        if not f.is_zero(mod_p=p):
            return f


def _monomials_up_to(d: int, s: int) -> Iterator[tuple[int, ...]]:
    if s == 0:
        yield ()
        return
    for e in range(d + 1):
        for rest in _monomials_up_to(d - e, s - 1):
            yield (e, *rest)
