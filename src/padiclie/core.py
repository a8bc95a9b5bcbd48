"""Exact arithmetic on residues mod p^N and the subgroup machinery of
SL(2, Z/p^N).

Everything works at a fixed finite precision: a residue never carries more
than N base-p digits, and every operation states what it guarantees modulo
p^N.  Python integers are exact at any size, so the only precision limit is
the explicit one carried by :class:`Modulus`; mixed-modulus arithmetic is an
error, never a silent coercion.

All values are immutable after construction and all operations are pure, so
independent inputs can safely be processed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ClosureBudgetExceeded,
    InvariantViolation,
    ModulusMismatch,
    NonUnit,
    PrecisionExceeded,
    PreconditionViolation,
)

#: Matrix size.  The artifact is about SL(2) throughout; the ambient Lie
#: algebra sl(2) has dimension 3.
N0 = 2
AMBIENT_DIM = 3

DEFAULT_CLOSURE_CAP = 1_000_000
DEFAULT_ENUM_CAP = 10_000_000

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def _is_int(x) -> bool:
    """An int that is not a bool: floats, strings and booleans are refused
    wherever an exact integer is required."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_entry(a) -> int:
    """A matrix entry as a Python int: an int or a numpy integer, never a
    bool, a float or anything else."""
    if not (_is_int(a) or isinstance(a, np.integer)):
        raise ValueError(f"entry {a!r} is not an integer")
    return int(a)


def int_rows(rows) -> Mat2:
    """A 2x2 literal of ints (not bools) as tuples; a float, a string, a
    boolean or any other shape is refused, never truncated."""
    if not (
        isinstance(rows, (list, tuple))
        and len(rows) == 2
        and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in rows)
        and all(_is_int(a) for row in rows for a in row)
    ):
        raise PreconditionViolation(f"{rows!r} is not a 2x2 matrix of integers")
    return tuple(tuple(row) for row in rows)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def int_valuation(a: int, p: int, cap: int) -> int:
    """v_p(a) computed on the residue a mod p^cap, capped at ``cap``."""
    a %= p**cap
    if a == 0:
        return cap
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@dataclass(frozen=True)
class Modulus:
    """The pair (p, N): residues live in Z/p^N.

    p = 2 is legal here; modules whose preconditions exclude it say so and
    reject it themselves.
    """

    p: int
    N: int

    def __post_init__(self):
        for name, value in (("p", self.p), ("N", self.N)):
            if not _is_int(value):
                raise ValueError(f"{name} = {value!r} is not an integer")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.N < 1:
            raise ValueError(f"N = {self.N} must be >= 1")

    @cached_property
    def pN(self) -> int:
        return self.p**self.N

    @property
    def p_prime(self) -> int:
        """p' = p for odd p and 4 for p = 2 (the uniform-domain modulus)."""
        return self.p if self.p != 2 else 4

    @property
    def eps_p(self) -> int:
        """Congruence floor: 1 for odd p, 2 for p = 2."""
        return 1 if self.p != 2 else 2

    def reduce(self, m: int) -> "Modulus":
        if not 1 <= m <= self.N:
            raise PrecisionExceeded(f"cannot reduce precision {self.N} to {m}")
        return Modulus(self.p, m)

    def __repr__(self) -> str:
        return f"Modulus(p={self.p}, N={self.N})"


class Valuation(NamedTuple):
    """A p-adic valuation capped at the working precision.

    ``capped`` means the residue is indistinguishable from 0 at this
    precision; ``value`` then equals N and is only a lower bound.
    """

    value: int
    capped: bool

    def __int__(self) -> int:
        return self.value


def modulus_from_json(obj, kind: str) -> Modulus:
    """The modulus of a literal {"p": .., "N": .., ...}; ``Modulus`` rejects
    a p or N that is a float, a string or a boolean, never truncating it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} literal must be a JSON object")
    return Modulus(obj.get("p"), obj.get("N"))


def residue_rows_from_json(rows, modulus: Modulus, kind: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of lists of integers in [0, p^N), as tuples."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{kind} literal {rows!r} is not a list of lists")
    pN = modulus.pN
    for row in rows:
        for a in row:
            if not _is_int(a) or not 0 <= a < pN:
                raise ValueError(f"{kind} literal entry {a!r} outside [0, {pN})")
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class MatP:
    """A 2x2 matrix over Z/p^N with all entries at one shared modulus.

    Entries are ints or numpy integers, stored as Python ints, whose
    products never wrap; a bool or a float is refused."""

    rows: tuple[tuple[int, ...], ...]
    modulus: Modulus

    def __post_init__(self):
        rows = self.rows
        pN = self.modulus.pN
        if len(rows) != 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
            raise ValueError("matrix must be 2x2")
        (a, b), (c, d) = rows
        if not (type(a) is type(b) is type(c) is type(d) is int):
            rows = tuple(tuple(_int_entry(a) for a in row) for row in rows)
            object.__setattr__(self, "rows", rows)
        for row in rows:
            for a in row:
                if not 0 <= a < pN:
                    raise ValueError(f"entry {a} outside [0, {pN})")

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]], modulus: Modulus) -> "MatP":
        pN = modulus.pN
        return cls(
            tuple(tuple((a if type(a) is int else _int_entry(a)) % pN for a in row) for row in rows),
            modulus,
        )

    @classmethod
    def identity(cls, modulus: Modulus) -> "MatP":
        return cls(((1, 0), (0, 1)), modulus)

    @classmethod
    def zero(cls, modulus: Modulus) -> "MatP":
        return cls(((0, 0), (0, 0)), modulus)

    @classmethod
    def from_json(cls, obj: dict) -> "MatP":
        """Parse the shared matrix literal {"p":..,"N":..,"mat":[[..],[..]]}.

        JSON integers must already lie in [0, p^N); anything else is a
        config error, not something to normalize silently.
        """
        modulus = modulus_from_json(obj, "matrix")
        return cls(residue_rows_from_json(obj.get("mat"), modulus, "matrix"), modulus)

    def to_json(self) -> dict:
        return {
            "p": self.modulus.p,
            "N": self.modulus.N,
            "mat": [list(row) for row in self.rows],
        }

    # -- structure --------------------------------------------------------

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(a for row in self.rows for a in row)

    def _check(self, other: "MatP") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} vs {other.modulus}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "MatP") -> "MatP":
        self._check(other)
        pN = self.modulus.pN
        return MatP(
            tuple(
                tuple((a + b) % pN for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.modulus,
        )

    def __sub__(self, other: "MatP") -> "MatP":
        self._check(other)
        pN = self.modulus.pN
        return MatP(
            tuple(
                tuple((a - b) % pN for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.modulus,
        )

    def __neg__(self) -> "MatP":
        pN = self.modulus.pN
        return MatP(tuple(tuple((-a) % pN for a in row) for row in self.rows), self.modulus)

    def __matmul__(self, other: "MatP") -> "MatP":
        self._check(other)
        pN = self.modulus.pN
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return MatP(
            (
                ((a * e + b * g) % pN, (a * f + b * h) % pN),
                ((c * e + d * g) % pN, (c * f + d * h) % pN),
            ),
            self.modulus,
        )

    def scale(self, t: int) -> "MatP":
        pN = self.modulus.pN
        return MatP(tuple(tuple((t * a) % pN for a in row) for row in self.rows), self.modulus)

    def power(self, k: int) -> "MatP":
        if k < 0:
            return mat_inverse(self).power(-k)
        result = MatP.identity(self.modulus)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def trace(self) -> int:
        return (self.rows[0][0] + self.rows[1][1]) % self.modulus.pN

    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return (a * d - b * c) % self.modulus.pN

    def reduce(self, m: int) -> "MatP":
        """The image modulo p^m, as a matrix at the smaller modulus."""
        sub = self.modulus.reduce(m)
        q = sub.pN
        return MatP(tuple(tuple(a % q for a in row) for row in self.rows), sub)

    def is_identity(self) -> bool:
        return self == MatP.identity(self.modulus)


def mat_inverse(g: MatP) -> MatP:
    """Exact two-sided inverse modulo p^N; requires v_p(det g) = 0."""
    d = g.det()
    if d % g.modulus.p == 0:
        raise NonUnit(f"det = {d} is divisible by p = {g.modulus.p}")
    dinv = pow(d, -1, g.modulus.pN)
    (a, b), (c, d2) = g.rows
    pN = g.modulus.pN
    return MatP(
        (
            ((d2 * dinv) % pN, (-b * dinv) % pN),
            ((-c * dinv) % pN, (a * dinv) % pN),
        ),
        g.modulus,
    )


def in_principal_congruence(g: MatP, m: int) -> bool:
    """Whether g is trivial modulo p^m, i.e. every entry of g - 1 has
    valuation >= m."""
    if m > g.modulus.N:
        raise PrecisionExceeded(f"m = {m} exceeds precision N = {g.modulus.N}")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return True
    q = g.modulus.p**m
    for i, row in enumerate(g.rows):
        for j, a in enumerate(row):
            if (a - (1 if i == j else 0)) % q != 0:
                return False
    return True


def residually_unipotent(g: MatP) -> bool:
    """Whether g^p = 1 modulo p.

    For 2x2 matrices over F_p this holds exactly when (g - 1)^2 = 0 (the
    characteristic polynomial is then (t - 1)^2 and the p-th power of
    1 + nilpotent is trivial), that is when g - 1 has trace and
    determinant 0 mod p (Cayley-Hamilton over F_p); the trace-determinant
    form is what is computed, and a test pins it against the literal
    power.
    """
    p = g.modulus.p
    (a, b), (c, d) = g.rows
    return (a + d - 2) % p == 0 and ((a - 1) * (d - 1) - b * c) % p == 0


def residually_unipotent_by_power(g: MatP) -> bool:
    """The literal definition g^p = 1 mod p (test oracle for the fast form)."""
    gp = g.reduce(1) if g.modulus.N > 1 else g
    return gp.power(g.modulus.p).is_identity()


def residually_nilpotent(x: MatP) -> bool:
    """Whether the reduction of x mod p is nilpotent: x^2 = 0 mod p, that
    is trace and determinant 0 mod p (Cayley-Hamilton over F_p)."""
    p = x.modulus.p
    (a, b), (c, d) = x.rows
    return (a + d) % p == 0 and (a * d - b * c) % p == 0


# ---------------------------------------------------------------------------
# Element columns: many 2x2 elements as entry columns (a, b, c, d)
# ---------------------------------------------------------------------------


def column_dtype(bound: int):
    """int64 when every value a column computation forms stays below
    ``bound`` <= 2^62, else object (Python integers), so exactness is never
    traded for speed."""
    return np.int64 if bound <= 2**62 else object


def checked_columns(cols) -> tuple[np.ndarray, ...]:
    """The columns as arrays, refusing (``ValueError``) any that is not
    1-D, not of integer or object dtype, or not as long as the others: a
    float would be truncated and a short column broadcast without notice."""
    cols = tuple(np.asarray(x) for x in cols)
    for x in cols:
        if x.ndim != 1 or x.dtype.kind not in "iuO":
            raise ValueError(f"element columns must be 1-D integer arrays, got {x.ndim}-D {x.dtype}")
    if len({len(x) for x in cols}) > 1:
        raise ValueError("element columns must have equal lengths")
    return cols


def as_columns(cols, bound: int) -> tuple[np.ndarray, ...]:
    """The columns at ``column_dtype(bound)``."""
    dtype = column_dtype(bound)
    return tuple(np.asarray(x).astype(dtype, copy=False) for x in cols)


def mul_columns(x, y, q):
    """Entrywise-broadcast product of two element columns x, y (or tuples)."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % q,
        (a * f + b * h) % q,
        (c * e + d * g) % q,
        (c * f + d * h) % q,
    )


def inverse_columns(k, q):
    """Inverse of determinant-one element columns k (or a tuple) with entries
    in [0, q): the adjugate [[d, -b], [-c, a]]."""
    a, b, c, d = k
    return (d, -b % q, -c % q, a)


def in_principal_congruence_columns(cols, q_m: int) -> np.ndarray:
    """``in_principal_congruence`` on entry columns: the mask of elements
    trivial modulo q_m = p^m."""
    a, b, c, d = cols
    return ((a - 1) % q_m == 0) & (b % q_m == 0) & (c % q_m == 0) & ((d - 1) % q_m == 0)


def residually_unipotent_columns(cols, p: int) -> np.ndarray:
    """``residually_unipotent`` on entry columns: (g - 1)^2 = 0 mod p."""
    a, b, c, d = cols
    return residually_nilpotent_columns((a - 1, b, c, d - 1), p)


def residually_nilpotent_columns(cols, p: int) -> np.ndarray:
    """``residually_nilpotent`` on entry columns: x^2 = 0 mod p, that is
    trace and determinant 0 mod p (Cayley-Hamilton over F_p)."""
    a, b, c, d = (x % p for x in cols)
    return ((a + d) % p == 0) & ((a * d - b * c) % p == 0)


# ---------------------------------------------------------------------------
# Subgroup closures in SL(2, Z/q)
# ---------------------------------------------------------------------------

# ``_product_codes`` forms at most this many codes at a time, so the
# engine's scratch memory (eight entries per code, 512 KB at int64, and a
# decoded tile of the code set) stays in cache and is bounded whatever the
# subgroup order.  On K(3) mod 3^5, 2^12 to 2^14 are equally fast, 2^11
# pays per-block overhead and from 2^15 on the blocks leave the cache;
# 2^13 keeps the peak memory of that closure at 1.6 times its result.
_BLOCK_CODES = 1 << 13


def _encode(a, b, c, d, q):
    return ((a * q + b) * q + c) * q + d


@lru_cache(maxsize=16)
def _radix(q: int, dtype) -> np.ndarray:
    """The place values q^3, q^2, q, 1 of the entries in a code, as a
    read-only column."""
    radix = np.array([q**3, q**2, q, 1], dtype=dtype)[:, None]
    radix.flags.writeable = False
    return radix


def element_codes(cols, q: int) -> np.ndarray:
    """Codes ((a q + b) q + c) q + d of entry columns (residues in [0, q)),
    at the dtype a closure mod q stores them in."""
    dtype = column_dtype(q**4)
    return _radix(q, dtype)[:, 0] @ np.asarray(cols, dtype=dtype)


def _residue_columns(cols, q: int) -> np.ndarray:
    """``checked_columns`` as the rows of one array at the code dtype mod q,
    refusing (``ValueError``) an entry outside [0, q): its code would name
    another element."""
    cols = np.array(checked_columns(cols), dtype=column_dtype(q**4))
    if cols.size and (cols.min() < 0 or cols.max() >= q):
        raise ValueError(f"element entries must be residues in [0, {q})")
    return cols


def _decode(codes: np.ndarray, q: int) -> np.ndarray:
    """The entry columns of codes, as the rows a, b, c, d of one array."""
    x = codes // _radix(q, codes.dtype)  # row i: codes // q^(3 - i)
    x[1:] -= x[:-1] * q
    return x


def _product_codes(x_codes: np.ndarray, reps, q: int, out: np.ndarray) -> np.ndarray:
    """Writes the codes of the products x.r, for x in the code set X and r
    in the representatives (entry columns, residues in [0, q)), into the
    contiguous array ``out``: out[j |X| + i] is the code of x_i r_j.

    A block of at most ``_BLOCK_CODES`` codes is formed at a time, over a
    tile of X (decoded from its codes) and a tile of the representatives.
    Every entry is formed in place and reduced as x - (x // q) q, which is
    several times faster than int64 ``%``; every value stays below q^4.
    """
    n, k = len(x_codes), len(reps[0])
    if not n or not k:
        return out
    e_f, g_h = np.asarray(reps, dtype=out.dtype).reshape(2, 1, 2, k, 1)  # rows (e, f), (g, h)
    grid = out.reshape(k, n)
    place = _radix(q, out.dtype).reshape(2, 2, 1, 1)
    width = min(n, _BLOCK_CODES)
    rows = min(k, max(1, _BLOCK_CODES // width))
    scratch = np.empty((2, 2, 2, rows, width), dtype=out.dtype)
    for lo in range(0, n, width):
        hi = min(n, lo + width)
        left, right = _decode(x_codes[lo:hi], q).reshape(2, 2, 1, 1, -1).swapaxes(0, 1)  # (a, c), (b, d)
        for r0 in range(0, k, rows):
            r1 = min(k, r0 + rows)
            y, t = scratch[:, :, :, :r1 - r0, :hi - lo]
            np.multiply(left, e_f[:, :, r0:r1], out=y)  # y[i, j] = x[i, 0] r[0, j] + x[i, 1] r[1, j]
            np.multiply(right, g_h[:, :, r0:r1], out=t)
            y += t
            np.floor_divide(y, q, out=t)
            t *= q
            y -= t
            y *= place
            y[0] += y[1]
            np.add(y[0, 0], y[0, 1], out=grid[r0:r1, lo:hi])
    return out


def _isin_sorted(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_codes, codes)
    pos[pos == len(sorted_codes)] = 0
    return sorted_codes[pos] == codes


class _SortedRuns:
    """A growing code set as sorted runs, each over twice the size of the
    next, so membership costs a few binary searches and every code is
    merged O(log n) times."""

    def __init__(self, first: np.ndarray):
        self.runs = [first]
        self.size = len(first)

    def add(self, codes: np.ndarray) -> None:
        """Adds ``codes``, a fresh array that is sorted in place."""
        runs = self.runs
        codes.sort()
        runs.append(codes)
        self.size += len(codes)
        while len(runs) > 1 and len(runs[-2]) < 2 * len(runs[-1]):
            last = runs.pop()
            runs[-1] = np.concatenate((runs[-1], last))
            runs[-1].sort(kind="stable")

    def missing(self, codes: np.ndarray) -> np.ndarray:
        mask = np.ones(len(codes), dtype=bool)
        for run in self.runs:
            mask &= ~_isin_sorted(run, codes)
        return mask

    def merged(self) -> np.ndarray:
        codes = np.concatenate(self.runs)
        codes.sort(kind="stable")
        return codes


def _require_sl2(g: MatP, modulus: Modulus, role: str) -> None:
    """Refuse g of another modulus (``ModulusMismatch``) or of det != 1
    (``ValueError``)."""
    if g.modulus != modulus:
        raise ModulusMismatch(f"element lives mod {g.modulus.pN}, closure mod {modulus.pN}")
    if g.det() != 1 % modulus.pN:
        raise ValueError(f"{role} has det != 1 mod p^N")


def _over_cap(size: int, cap: int) -> ClosureBudgetExceeded:
    return ClosureBudgetExceeded(f"closure exceeded cap {cap} (at least {size} elements)")


def _doubling_codes(h_codes: np.ndarray, g: MatP, q: int, cap: int) -> np.ndarray:
    """Sorted codes of <H, g> for g normalizing H (the cyclic group <g>
    when H is trivial), by doubling.  Both callers, ``SubgroupClosure._stage``
    and the end of ``SubgroupClosure._extend``, have found g s g^-1 in H
    for every generator s of H.

    Then <H, g> is the union of the cosets H.g^i for i below the least j
    with g^j in H.  The representatives R = (g^i), i < k, kept as codes,
    grow as R <- R u R.g^k u R.g^2k u R.g^3k, so log4(j) vectorized steps
    reach j; the j - 1 new cosets are written beside H and sorted in place.
    """
    order_h, dtype = len(h_codes), h_codes.dtype
    reps = np.array([_encode(1, 0, 0, 1, q)], dtype=dtype)
    step = g  # g^k
    while True:
        square = step @ step
        cols = np.array([x.as_tuple() for x in (step, square, square @ step)], dtype=dtype).T
        block = _product_codes(reps, cols, q, np.empty(3 * len(reps), dtype))  # g^(k + i), i < 3k
        hits = np.flatnonzero(_isin_sorted(h_codes, block))
        take = int(hits[0]) if hits.size else len(block)
        size = (len(reps) + take) * order_h
        if size > cap:
            raise _over_cap(size, cap)
        reps = np.concatenate((reps, block[:take]))
        if hits.size:
            break
        step = square @ square
    codes = np.empty(size, dtype=dtype)
    codes[:order_h] = h_codes
    _product_codes(h_codes, _decode(reps[1:], q), q, codes[order_h:])
    codes.sort()
    return codes


def _dimino_codes(
    h_codes: np.ndarray, gens: Sequence[MatP], q: int, cap: int
) -> np.ndarray:
    """Sorted codes of <H, gens> for a subgroup H given by its sorted codes
    and a generator list whose earlier members generate H (one Dimino stage).

    The result is the union of the right cosets H.t.  Each round multiplies
    the representatives found in the previous one by every generator and by
    its inverse; the products outside the known cosets are tested together,
    each coset keyed by its smallest code, and every new coset joins as one
    block of |H| codes.  The union of cosets is closed under right
    multiplication by the generators when no round finds a new one, so it
    is the whole subgroup.  The inverses add no coset that the generators
    alone would not reach, but they walk the coset graph both ways, so
    fewer rounds reach its far side: SL(2, F_13) closes from a Sylow
    subgroup in 8 rounds instead of 12.
    """
    dtype = h_codes.dtype
    steps = (*gens, *(mat_inverse(g) for g in gens))
    s = list(zip(*(g.as_tuple() for g in steps)))
    order_h = len(h_codes)
    chunk = max(1, _BLOCK_CODES // order_h)
    known = _SortedRuns(h_codes)
    frontier = np.array([_encode(1, 0, 0, 1, q)], dtype=dtype)
    while True:
        cand = np.unique(_product_codes(frontier, s, q, np.empty(len(frontier) * len(steps), dtype)))
        cand = cand[known.missing(cand)]
        reps = []
        for lo in range(0, len(cand), chunk):
            piece = cand[lo:lo + chunk]
            if lo:  # cosets found earlier in this round may hold some
                piece = piece[known.missing(piece)]
                if not len(piece):
                    continue
            cosets = np.empty((len(piece), order_h), dtype)  # row j: H.t_j
            _product_codes(h_codes, _decode(piece, q), q, cosets.ravel())
            _, first = np.unique(cosets.min(axis=1), return_index=True)
            if known.size + len(first) * order_h > cap:
                raise _over_cap(known.size + len(first) * order_h, cap)
            if len(first) < len(piece):
                cosets, piece = cosets[first], piece[first]
            known.add(cosets.ravel())
            reps.append(piece)
        if not reps:
            break
        frontier = np.concatenate(reps)
    return known.merged()


class SubgroupClosure:
    """The full element set of the subgroup generated by finitely many
    elements of SL(2, Z/q), built by Dimino's coset enumeration (Dimino
    1971; Butler, *Fundamental Algorithms for Permutation Groups*, 1991).

    The first generator's cyclic group is built by doubling.  A further
    generator g that is not yet a member extends the closure H to <H, g>
    through the normal closure of H in <H, g> (``_extend``): by doubling
    where a new element normalizes the closure so far, by one Dimino stage
    (the union of its right cosets) otherwise; in a group of class two,
    such as K(p) mod p^3, every step is a doubling.  ``extend`` runs this
    on a closure that already exists, so growing a subgroup one generator
    at a time never starts over; ``extend_by_pool`` does so for a pool of
    elements given as entry columns.

    Every product of elements reaches a code through one blocked kernel,
    ``_product_codes``, that writes into an array its caller allocates: a
    doubling writes the j - 1 new cosets H.g^i beside H and sorts that
    array in place, and a Dimino stage writes each new coset once.

    Elements are stored as one sorted array of codes
    ((a q + b) q + c) q + d: int64 when q**4 fits, Python integers in an
    object array otherwise; sets of elements go in and out as entry columns
    (a, b, c, d).  ``generators`` holds, as ``MatP``s, only the generators
    that enlarged the group.
    """

    def __init__(self, modulus: Modulus, generators: tuple[MatP, ...], codes: np.ndarray):
        self.modulus = modulus
        self.q = modulus.pN
        self.generators = generators
        self._codes = codes

    @classmethod
    def trivial(cls, modulus: Modulus) -> "SubgroupClosure":
        q = modulus.pN
        return cls(modulus, (), np.array([_encode(1, 0, 0, 1, q)], dtype=column_dtype(q**4)))

    @property
    def order(self) -> int:
        return len(self._codes)

    def __len__(self) -> int:
        return self.order

    @property
    def codes(self) -> np.ndarray:
        """The sorted element codes, read-only."""
        view = self._codes.view()
        view.flags.writeable = False
        return view

    def extend(self, g: MatP, *, cap: int = DEFAULT_CLOSURE_CAP) -> "SubgroupClosure":
        """The closure of <H, g>; ``self`` when g is already a member."""
        _require_sl2(g, self.modulus, "generator")
        if self.contains(g):
            return self
        return self._extend(g, cap)

    def extend_by_pool(self, pool, *, cap: int = DEFAULT_CLOSURE_CAP) -> "SubgroupClosure":
        """The closure of H and a pool of elements given by entry columns.

        Extends by the first non-member in pool order, then tests the rest of
        the pool against the grown closure with one ``contains_columns`` call,
        until no non-member is left: the same stages, generators and
        elements as extending by each pool element in turn.
        """
        q = self.q
        pool = _residue_columns(pool, q)
        a, b, c, d = pool
        if np.any((a * d - b * c) % q != 1 % q):
            raise ValueError("pool element has det != 1 mod p^N")
        codes = element_codes(pool, q)
        closure = self
        rest = np.flatnonzero(~_isin_sorted(closure._codes, codes))
        while rest.size:
            i = rest[0]
            g = MatP(((int(a[i]), int(b[i])), (int(c[i]), int(d[i]))), self.modulus)
            closure = closure._extend(g, cap)
            rest = rest[1:]
            rest = rest[~_isin_sorted(closure._codes, codes[rest])]
        return closure

    def _extend(self, g: MatP, cap: int) -> "SubgroupClosure":
        """<H, g> for a non-member g of determinant one, through the normal
        closure of H in <H, g>.

        While a conjugate t = g s g^-1 of a generator s of the current
        closure K is not a member, K grows to <K, t> (each t lies in
        <H, g>); each generator is conjugated once, as K only grows.  When
        none is left, g K g^-1 = K, so <H, g> = K.<g> is one doubling.  The
        stage by t is not itself a normal-closure stage: that recursion
        need not end on a group that is not nilpotent.
        """
        g_inv = mat_inverse(g)
        closure, i = self, 0
        while i < len(closure.generators):
            t = g @ closure.generators[i] @ g_inv
            i += 1
            if not closure.contains(t):
                closure = closure._stage(t, cap)
        codes = closure._codes
        if not closure.contains(g):
            codes = _doubling_codes(codes, g, self.q, cap)
        return SubgroupClosure(self.modulus, (*self.generators, g), codes)

    def _stage(self, t: MatP, cap: int) -> "SubgroupClosure":
        """<H, t> for a non-member t: by doubling when t normalizes H, by
        one Dimino stage otherwise."""
        gens = (*self.generators, t)
        if self._normalizes(t):
            codes = _doubling_codes(self._codes, t, self.q, cap)
        else:
            codes = _dimino_codes(self._codes, gens, self.q, cap)
        return SubgroupClosure(self.modulus, gens, codes)

    def _normalizes(self, g: MatP) -> bool:
        """Whether g H g^-1 = H, tested on the generators of H."""
        g_inv = mat_inverse(g)
        return all(self.contains(g @ s @ g_inv) for s in self.generators)

    def contains(self, g: MatP) -> bool:
        if g.modulus.pN != self.q:
            raise ModulusMismatch(f"element lives mod {g.modulus.pN}, closure mod {self.q}")
        code = _encode(*g.as_tuple(), self.q)
        i = int(np.searchsorted(self._codes, code))
        return i < len(self._codes) and int(self._codes[i]) == code

    def contains_columns(self, a, b, c, d) -> np.ndarray:
        """Membership mask of the elements with entry columns a, b, c, d,
        residues in [0, q); any other entry is refused (``ValueError``)."""
        return _isin_sorted(self._codes, element_codes(_residue_columns((a, b, c, d), self.q), self.q))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The elements as entry columns (a, b, c, d), in increasing code
        order."""
        return tuple(_decode(self._codes, self.q))

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """The elements as (a, b, c, d), in increasing code order."""
        return _iter_tuples(self._codes, self.q)

    def double_coset(self, s) -> np.ndarray:
        """The sorted codes of H S H, from all |H|^2 |S| products, for one
        element S = g (a ``MatP``) or a set S given by entry columns.

        <H, x> = <H, g> for each x in H g H.  For the cyclic group S = <u>
        of an element u of prime order, <H, x> = <H, u> for each x in
        H S H outside H (``nori.enumerate_unipotent_generated``).
        """
        q, h = self.q, self._codes
        if isinstance(s, MatP):
            s = tuple([x] for x in s.as_tuple())
        s = as_columns(s, 2 * q * q)
        reps = mul_columns(tuple(x[:, None] for x in s), _decode(h, q)[:, None, :], q)  # S H
        codes = np.empty(len(h) * reps[0].size, h.dtype)
        return np.unique(_product_codes(h, [x.ravel() for x in reps], q, codes))

    def conjugate(self, x: MatP, generators: tuple[MatP, ...]) -> "SubgroupClosure":
        """The closure of x H x^-1, recorded as generated by ``generators``,
        which the caller vouches generate x H x^-1.

        When x normalizes H, tested on the generators of H, the result
        shares H's codes: conjugation is injective, so x H x^-1 inside H
        with equal orders is equality.  Otherwise it is formed from one
        product per element of H and a sort."""
        _require_sl2(x, self.modulus, "conjugator")
        if self._normalizes(x):
            return SubgroupClosure(self.modulus, generators, self._codes)
        q, h = self.q, self._codes
        right = mul_columns(_decode(h, q), mat_inverse(x).as_tuple(), q)  # H x^-1
        codes = _product_codes(np.array([_encode(*x.as_tuple(), q)], h.dtype), right, q, np.empty_like(h))
        codes.sort()
        return SubgroupClosure(self.modulus, generators, codes)


def _iter_tuples(codes: np.ndarray, q: int) -> Iterator[tuple[int, ...]]:
    for code in codes.tolist():
        code, d = divmod(code, q)
        code, c = divmod(code, q)
        a, b = divmod(code, q)
        yield (a, b, c, d)


def _closure_python(
    q: int, gens: list[tuple[int, int, int, int]], cap: int
) -> frozenset[tuple[int, int, int, int]]:
    """Breadth-first closure over a Python set of (a, b, c, d) tuples: the
    test oracle for the coset-enumeration engine."""
    seen: set[tuple[int, int, int, int]] = {(1, 0, 0, 1)}
    seen.update(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for e, f, g_, h in gens:
                t = ((a * e + b * g_) % q, (a * f + b * h) % q,
                     (c * e + d * g_) % q, (c * f + d * h) % q)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if len(seen) > cap:
            raise ClosureBudgetExceeded(
                f"closure exceeded cap {cap} (at least {len(seen)} elements)"
            )
        frontier = nxt
    return frozenset(seen)


def closure_of_generators(
    generators: Sequence[MatP], *, cap: int = DEFAULT_CLOSURE_CAP
) -> SubgroupClosure:
    """Closure of the subgroup generated inside SL(2, Z/p^N).

    Generators are added one at a time with ``SubgroupClosure.extend``;
    those already inside the running closure cost one membership lookup,
    so a huge pool with a small generating set inside costs about as much
    as that set.
    """
    if not generators:
        raise ValueError("need at least one generator (use the identity for the trivial group)")
    closure = SubgroupClosure.trivial(generators[0].modulus)
    for g in generators:
        closure = closure.extend(g, cap=cap)
    return closure


def closure_of_pool(
    pool: Sequence[MatP], modulus: Modulus, *, cap: int = DEFAULT_CLOSURE_CAP
) -> SubgroupClosure:
    """``closure_of_generators`` for a pool that may be empty (the trivial
    group of ``modulus``)."""
    return closure_of_generators([MatP.identity(modulus), *pool], cap=cap)


# ---------------------------------------------------------------------------
# Level of a subgroup of SL(2, Z/p^N)
# ---------------------------------------------------------------------------


def reduction_kernel_generators(modulus: Modulus, n: int) -> tuple[MatP, ...]:
    """A generating set for {g in SL(2, Z/p^N) : g = 1 mod p^n}.

    For n >= 1 the kernel is the image of a uniform congruence subgroup, so
    by the Frattini argument any set whose images span the first congruence
    layer generates it; the two elementary unipotents together with one
    diagonal element do.  n = 0 returns generators of the full group.
    p = 2 with n = 1 has no uniform structure; there the full kernel is
    enumerated directly (it is small at desk scale) and returned whole.
    """
    p, N = modulus.p, modulus.N
    if not 0 <= n <= N:
        raise PrecisionExceeded(f"n = {n} outside [0, {N}]")
    if n == 0:
        return (
            MatP.of([[1, 1], [0, 1]], modulus),
            MatP.of([[1, 0], [1, 1]], modulus),
        )
    if p == 2 and n == 1:
        return tuple(_enumerate_reduction_kernel(modulus, 1))
    pn = p**n
    u = 1 + pn
    return (
        MatP.of([[1, pn], [0, 1]], modulus),
        MatP.of([[1, 0], [pn, 1]], modulus),
        MatP.of([[u, 0], [0, pow(u, -1, modulus.pN)]], modulus),
    )


def _enumerate_reduction_kernel(modulus: Modulus, n: int) -> list[MatP]:
    """All g in SL(2, Z/p^N) with g = 1 mod p^n, one per (a, b, c)."""
    r = modulus.p ** (modulus.N - n)
    return [
        _congruence_element(modulus, n, a, b, c)
        for a in range(r)
        for b in range(r)
        for c in range(r)
    ]


def _congruence_element(modulus: Modulus, n: int, a: int, b: int, c: int) -> MatP:
    """The g in SL(2, Z/p^N) with g = 1 + p^n [[a, b], [c, *]].

    The determinant condition (1 + p^n a) d - p^(2n) b c = 1 pins the
    remaining entry d, because 1 + p^n a is a unit.
    """
    pN = modulus.pN
    pn = modulus.p**n
    d = (1 + pn * pn * b * c) * pow(1 + pn * a, -1, pN)
    return MatP.of([[1 + pn * a, pn * b], [pn * c, d]], modulus)


@dataclass(frozen=True)
class GroupLevel:
    """Result of a level computation with its certificate.

    ``level`` is the least n with the full mod-p^n reduction kernel inside
    the generated subgroup, or None when no n <= N-1 works (reported as
    ">= N").  ``closure_order`` is the order of the subgroup mod p^N.
    ``witnesses`` are ``reduction_kernel_generators(modulus, level)``
    (empty when ``level`` is None).  When ``group_level`` closed the group,
    their membership in the closure proves the containment.  On the sift
    path they generate K(p^level), which the sift proves is inside the
    group: every level k >= ``level`` of the filtration holds three
    independent leading terms of elements of the group.
    """

    level: int | None
    closure_order: int
    witnesses: tuple[MatP, ...]

    @property
    def attained(self) -> bool:
        return self.level is not None


def group_level(
    generators: Sequence[MatP] | SubgroupClosure, *, cap: int = DEFAULT_CLOSURE_CAP
) -> GroupLevel:
    """Level of the subgroup H of SL(2, Z/p^N) generated by ``generators``.
    A precomputed closure may be passed instead; it is not closed again.

    For a generator list at p >= 5 with every generator = 1 mod p, no
    closure is formed: H lies in K(p) and is sifted along the congruence
    filtration K(p^k), k = 1, ..., N - 1 (``_sift_group_level``).  The
    leading term (g - 1)/p^k mod p maps K(p^k)/K(p^(k+1)) isomorphically
    onto sl2(F_p), and the sift keeps, for each k, an echelon basis B_k of
    leading terms of elements of H at depth k: an induced polycyclic
    sequence (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 8).  It sifts every generator, then each new basis
    element's p-th power and its commutators with the earlier ones, which
    lie deeper.  Once all of them sift to the identity the sequence is
    consistent, and by downward induction on k, H cap K(p^k) is generated
    by the basis elements at depths >= k and has order p^(d_k + ... +
    d_(N-1)), d_k = |B_k|.  So |H| = p^(d_1 + ... + d_(N-1)), and K(p^n)
    lies in H exactly when d_k = 3 for every k >= n.  A level with d_k = 3
    ends the sift: K(p^k) is uniform for k >= 1 when p is odd and for
    k >= 2 when p = 2, so its Frattini subgroup is K(p^(k+1)), and by the
    Burnside basis theorem the three basis elements at depth k generate
    K(p^k) (Dixon, du Sautoy, Mann and Segal, *Analytic Pro-p Groups*,
    ch. 4).  Every other input is closed and probed with the kernel
    generators of each level.  Either way the generators are validated in
    order, as ``SubgroupClosure.extend`` does (on the sift path all of them
    before the order is known), and an order above ``cap`` raises
    ``ClosureBudgetExceeded``.
    """
    if isinstance(generators, SubgroupClosure):
        closure = generators
    elif generators and generators[0].modulus.p >= 5 and all(
        in_principal_congruence(g, 1) for g in generators
    ):
        return _sift_group_level(generators, cap)
    else:
        closure = closure_of_generators(generators, cap=cap)
    modulus = closure.modulus
    for n in range(0, modulus.N):
        if n and modulus.p ** (3 * (modulus.N - n)) > closure.order:
            continue  # K(p^n) has more elements than H
        probes = reduction_kernel_generators(modulus, n)
        if all(closure.contains(w) for w in probes):
            return GroupLevel(level=n, closure_order=closure.order, witnesses=probes)
    return GroupLevel(level=None, closure_order=closure.order, witnesses=())


def _sift_group_level(generators: Sequence[MatP], cap: int) -> GroupLevel:
    """``group_level`` of generators in K(p), at any p, by sifting along
    the filtration K(p^k), lowest depth first (see ``group_level``).

    Elements are 4-tuples of Python ints.  ``pending[k]`` holds what is
    still to be sifted at depth >= k: elements, and the p-th powers
    ``(x, None)`` and commutators ``(x, y)`` of basis elements, formed only
    when their depth is reached, so none is formed below a full level.  For
    odd p, x -> x^p embeds each level in the next, and a dimension that
    falls along the filtration raises ``InvariantViolation``.
    """
    modulus = generators[0].modulus
    for g in generators:
        _require_sl2(g, modulus, "generator")
    p, N, q = modulus.p, modulus.N, modulus.pN
    depth_of = {p**k: k for k in range(N + 1)}  # gcd(a - 1, b, c, q) -> depth

    def depth(x):
        return depth_of[gcd(x[0] - 1, x[1], x[2], q)]

    pending: list[list] = [[] for _ in range(N)]
    for g in generators:
        if (k := depth(x := g.as_tuple())) < N:
            pending[k].append(x)
    dims = [0] * N  # dims[k] = d_k; dims[0] is unused
    done: list[tuple] = []  # basis elements with their depths, in order
    first_uniform = 1 if p > 2 else 2  # K(p^k) is uniform from this k on
    for k in range(1, N):
        basis: list[tuple] = []  # (element, leading term, pivot, 1/pivot entry)
        for x in pending[k]:
            if len(x) == 2:
                x, y = x
                # x^p, or [x, y] = (x y) (y x)^-1
                x = _power(x, p, q) if y is None else mul_columns(
                    mul_columns(x, y, q), inverse_columns(mul_columns(y, x, q), q), q)
                if (j := depth(x)) > k:
                    if j < N:
                        pending[j].append(x)
                    continue
            v = _lead(x, k, p)
            for b, w, i, inv in basis:
                if e := -v[i] * inv % p:
                    x = mul_columns(x, _power(b, e, q), q)
                    v = tuple((s + e * t) % p for s, t in zip(v, w))
            if not any(v):
                if (j := depth(x)) <= k:
                    raise InvariantViolation(f"leading term vanished, element stays at depth {j}")
                if j < N:
                    pending[j].append(x)
                continue
            i = next(i for i, s in enumerate(v) if s)
            basis.append((x, v, i, pow(v[i], -1, p)))
            if k + 1 < N:
                pending[k + 1].append((x, None))
            for y, j in done:
                if k + j < N:
                    pending[k + j].append((x, y))
            done.append((x, k))
            if len(basis) == 3 and k >= first_uniform:
                break
        dims[k] = len(basis)
        if dims[k] == 3 and k >= first_uniform:
            dims[k:] = [3] * (N - k)
            break
    if p > 2 and any(dims[k] > dims[k + 1] for k in range(1, N - 1)):
        raise InvariantViolation(f"level dimensions {dims[1:]} fall along the filtration")
    order = p ** sum(dims)
    if order > cap:
        raise _over_cap(order, cap)
    level = next((n for n in range(1, N) if all(d == 3 for d in dims[n:])), None)
    witnesses = () if level is None else reduction_kernel_generators(modulus, level)
    return GroupLevel(level, order, witnesses)


def _lead(x: tuple, k: int, p: int) -> tuple[int, int, int]:
    """The leading term (x - 1)/p^k mod p of x in K(p^k), as the entries
    (1, 1), (1, 2) and (2, 1); the (2, 2) entry is minus the first."""
    pk = p**k
    return ((x[0] - 1) // pk % p, x[1] // pk % p, x[2] // pk % p)


def _power(x: tuple, e: int, q: int) -> tuple:
    """x^e for e >= 1, by squaring."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul_columns(result, x, q)
        e >>= 1
        if not e:
            return result
        x = mul_columns(x, x, q)


# ---------------------------------------------------------------------------
# Seeded sampling helpers (deterministic given the rng)
# ---------------------------------------------------------------------------


def random_sl2(rng, modulus: Modulus) -> MatP:
    """A seeded element of SL(2, Z/p^N).

    Not a uniform sample; good enough for property tests, which only need
    wide and reproducible coverage.
    """
    p, pN = modulus.p, modulus.pN
    while True:
        a = rng.randrange(pN)
        b = rng.randrange(pN)
        if a % p != 0:
            c = rng.randrange(pN)
            d = (pow(a, -1, pN) * (1 + b * c)) % pN
            return MatP.of([[a, b], [c, d]], modulus)
        if b % p != 0:
            d = rng.randrange(pN)
            c = ((a * d - 1) * pow(b, -1, pN)) % pN
            return MatP.of([[a, b], [c, d]], modulus)


def random_congruence_element(rng, modulus: Modulus, n: int) -> MatP:
    """A seeded element of SL(2, Z/p^N) congruent to 1 mod p^n (n >= 1)."""
    if n < 1 or n > modulus.N:
        raise PrecisionExceeded(f"n = {n} outside [1, {modulus.N}]")
    r = modulus.p ** (modulus.N - n)
    a = rng.randrange(r)
    b = rng.randrange(r)
    c = rng.randrange(r)
    return _congruence_element(modulus, n, a, b, c)

