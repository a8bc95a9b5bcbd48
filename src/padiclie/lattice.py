"""Lattices in sl(2) at precision N: elementary divisors, bracket structure,
saturation, Lie closure, subalgebra and membership tests.

Vectors are coordinate triples in the ordered basis (e, h, f) of sl(2),
with e = [[0,1],[0,0]], h = [[1,0],[0,-1]], f = [[0,0],[1,0]].  A lattice is
stored through an adapted basis: an ambient basis x_1, x_2, x_3 and
exponents a_1 <= a_2 <= a_3 such that the p^{a_i} x_i span it.  Exponents
equal to N are precision-capped, which is how rank-deficient spans are
represented; generator lists of any rank are legal inputs.

Equality and hashing use a second, canonical basis: the Howell form of
the lattice's points mod p^N (Howell, "Spans in the module (Z_m)^s", 1986).
Its rows are in echelon form, each pivot is exactly p^e, entries above a
pivot are reduced mod p^e, and every point whose first j coordinates vanish
is a combination of the rows pivoting after column j.  Two generator lists
span the same points exactly when their Howell forms agree.  At N = 1 it
is the reduced row echelon basis of a subspace of F_p^3, which is how the
subalgebras of sl(2, F_p) are compared.

Lattices are immutable; every operation returns a fresh value, so the
adapted data and the canonical basis can be cached without invalidation
logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, prod
from typing import Iterator, Sequence

import numpy as np

from .core import (
    AMBIENT_DIM,
    MatP,
    Modulus,
    as_columns,
    column_dtype,
    int_valuation,
    modulus_from_json,
    residue_rows_from_json,
)
from .errors import InvariantViolation, PrecisionExceeded, PrecisionExhausted

Vec = tuple[int, int, int]

#: Bracket table on the ordered basis (e, h, f):
#: [h,e] = 2e, [h,f] = -2f, [e,f] = h, antisymmetric, zero on the diagonal.
STRUCTURE_CONSTANTS: dict[tuple[int, int], Vec] = {
    (0, 1): (-2, 0, 0),
    (1, 0): (2, 0, 0),
    (0, 2): (0, 1, 0),
    (2, 0): (0, -1, 0),
    (1, 2): (0, 0, -2),
    (2, 1): (0, 0, 2),
    (0, 0): (0, 0, 0),
    (1, 1): (0, 0, 0),
    (2, 2): (0, 0, 0),
}

E: Vec = (1, 0, 0)
H: Vec = (0, 1, 0)
F: Vec = (0, 0, 1)
BASIS: tuple[Vec, Vec, Vec] = (E, H, F)


def bracket(x: Vec, y: Vec, q: int) -> Vec:
    """[x, y] mod q in (e, h, f) coordinates; bilinear and antisymmetric."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (
        (2 * (b1 * a2 - a1 * b2)) % q,
        (a1 * c2 - c1 * a2) % q,
        (2 * (c1 * b2 - b1 * c2)) % q,
    )


def _check_structure_constants() -> None:
    # antisymmetry and Jacobi, once at import time, over a wrap-free modulus
    q = 1 << 40
    for i, j in product(range(3), repeat=2):
        lhs = bracket(BASIS[i], BASIS[j], q)
        if lhs != tuple(c % q for c in STRUCTURE_CONSTANTS[(i, j)]):
            raise InvariantViolation(f"bracket disagrees with the table at {(i, j)}")
        if lhs != tuple((-c) % q for c in bracket(BASIS[j], BASIS[i], q)):
            raise InvariantViolation(f"bracket is not antisymmetric at {(i, j)}")
    for x, y, z in product(BASIS, repeat=3):
        s = vec_add(
            bracket(x, bracket(y, z, q), q),
            vec_add(bracket(y, bracket(z, x, q), q), bracket(z, bracket(x, y, q), q), q),
            q,
        )
        if s != (0, 0, 0):
            raise InvariantViolation(f"Jacobi identity fails on {(x, y, z)}")


def vec_add(x: Vec, y: Vec, q: int) -> Vec:
    return ((x[0] + y[0]) % q, (x[1] + y[1]) % q, (x[2] + y[2]) % q)


def vec_scale(t: int, x: Vec, q: int) -> Vec:
    return ((t * x[0]) % q, (t * x[1]) % q, (t * x[2]) % q)


def vec_to_mat(v: Vec, modulus: Modulus) -> MatP:
    """The matrix b*h + a*e + c*f = [[b, a], [c, -b]] for v = (a, b, c)."""
    a, b, c = v
    pN = modulus.pN
    return MatP.of([[b % pN, a % pN], [c % pN, (-b) % pN]], modulus)


def mat_to_vec(m: MatP) -> Vec:
    """Inverse of vec_to_mat; requires trace zero."""
    (x11, x12), (x21, x22) = m.rows
    if (x11 + x22) % m.modulus.pN != 0:
        raise ValueError("matrix is not trace zero")
    return (x12, x11, x21)


def adjoint_matrix(g: MatP) -> tuple[Vec, Vec, Vec]:
    """Columns of Ad(g) on (e, h, f): coordinates of g X g^{-1} per basis X."""
    from .core import mat_inverse

    ginv = mat_inverse(g)
    cols = []
    for v in BASIS:
        conj = g @ vec_to_mat(v, g.modulus) @ ginv
        cols.append(mat_to_vec(conj))
    return tuple(cols)


def apply_columns(cols: Sequence[Vec], v: Vec, q: int) -> Vec:
    """Matrix-vector product where ``cols`` are the matrix columns."""
    return (
        (cols[0][0] * v[0] + cols[1][0] * v[1] + cols[2][0] * v[2]) % q,
        (cols[0][1] * v[0] + cols[1][1] * v[1] + cols[2][1] * v[2]) % q,
        (cols[0][2] * v[0] + cols[1][2] * v[1] + cols[2][2] * v[2]) % q,
    )


# ---------------------------------------------------------------------------
# Smith normal form over Z/p^N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization data for a coordinate matrix over Z/p^N.

    ``divisors`` are the exponents a_1 <= ... <= a_3 (N-capped entries mean
    zero columns at this precision), ``adapted_basis`` is an ambient basis
    x_i with the input span equal to the span of the p^{a_i} x_i, and
    ``adapted_inverse`` is its inverse matrix (rows), so coordinates with
    respect to the adapted basis are one multiplication away.
    """

    divisors: tuple[int, int, int]
    adapted_basis: tuple[Vec, Vec, Vec]
    adapted_inverse: tuple[Vec, Vec, Vec]
    modulus: Modulus


def smith_form(columns: Sequence[Vec], modulus: Modulus) -> SmithForm:
    """Elementary divisors and an adapted basis for the span of ``columns``.

    Pivots are chosen with minimal valuation, ties broken by (row, column)
    order, which makes the divisor sequence non-decreasing and the run
    deterministic.
    """
    p, N = modulus.p, modulus.N
    pN = modulus.pN
    k = len(columns)
    if k == 0:
        columns = []
    a = [[col[r] % pN for col in columns] for r in range(3)]  # 3 x k
    # row operations act on the left; track both U (adapted_inverse) and
    # U^{-1} (adapted basis, stored as columns)
    u_rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    uinv_cols = [[1 if i == j else 0 for i in range(3)] for j in range(3)]
    divisors: list[int] = []

    def row_swap(r, s):
        a[r], a[s] = a[s], a[r]
        u_rows[r], u_rows[s] = u_rows[s], u_rows[r]
        uinv_cols[r], uinv_cols[s] = uinv_cols[s], uinv_cols[r]

    def row_scale(r, unit):
        inv = pow(unit, -1, pN)
        a[r] = [(unit * x) % pN for x in a[r]]
        u_rows[r] = [(unit * x) % pN for x in u_rows[r]]
        uinv_cols[r] = [(inv * x) % pN for x in uinv_cols[r]]

    def row_addmul(r, s, factor):
        # row r += factor * row s;  U^{-1} column s -= factor * column r
        a[r] = [(x + factor * y) % pN for x, y in zip(a[r], a[s])]
        u_rows[r] = [(x + factor * y) % pN for x, y in zip(u_rows[r], u_rows[s])]
        uinv_cols[s] = [(x - factor * y) % pN for x, y in zip(uinv_cols[s], uinv_cols[r])]

    steps = min(3, k)
    for t in range(steps):
        best = None
        for i in range(t, 3):
            for j in range(t, k):
                v = int_valuation(a[i][j], p, N)
                if best is None or v < best[0]:
                    best = (v, i, j)
        v, bi, bj = best
        if v >= N:
            break
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pa = p**v
        unit = a[t][t] // pa
        row_scale(t, pow(unit, -1, pN))
        # now a[t][t] = p^v exactly modulo p^N
        for i in range(t + 1, 3):
            factor = a[i][t] // pa
            row_addmul(i, t, -factor)
        for j in range(t + 1, k):
            factor = a[t][j] // pa
            for i in range(3):
                a[i][j] = (a[i][j] - factor * a[i][t]) % pN
        divisors.append(v)

    while len(divisors) < 3:
        divisors.append(N)
    divisors_t = tuple(divisors)
    if any(divisors_t[i] > divisors_t[i + 1] for i in range(2)):
        raise InvariantViolation("divisors not sorted; pivoting invariant broken")
    det_u = _det3(u_rows, pN)
    if det_u % p == 0:
        raise InvariantViolation("transform not unimodular; pivoting invariant broken")
    adapted = tuple(tuple(c) for c in uinv_cols)
    adapted_inv = tuple(tuple(r) for r in u_rows)
    return SmithForm(divisors_t, adapted, adapted_inv, modulus)


def howell_form(rows: Sequence[Vec], modulus: Modulus) -> tuple[Vec, ...]:
    """The Howell form of the span of ``rows`` mod p^N: the canonical basis
    described in the module docstring, one row per pivot column."""
    q = modulus.pN
    rest = [[x % q for x in r] for r in rows]
    basis: list[list[int]] = []
    pivots: list[tuple[int, int]] = []  # (column, p^e)
    for j in range(3):
        # gcd(x, p^N) = p^v(x), and p^N for x = 0
        pe, i = min(((gcd(r[j], q), i) for i, r in enumerate(rest)), default=(q, 0))
        if pe == q:
            continue
        pivot = rest.pop(i)
        unit_inv = pow(pivot[j] // pe, -1, q)
        pivot = [unit_inv * x % q for x in pivot]  # pivot[j] == p^e
        rest = [[(x - r[j] // pe * y) % q for x, y in zip(r, pivot)] for r in rest]
        # the multiples of the pivot row that vanish in column j
        rest.append([q // pe * x % q for x in pivot])
        basis.append(pivot)
        pivots.append((j, pe))
    for k, (j, pe) in enumerate(pivots):
        for r in basis[:k]:
            f = r[j] // pe
            if f:
                r[:] = [(x - f * y) % q for x, y in zip(r, basis[k])]
    return tuple(tuple(r) for r in basis)


def _det3(rows, q: int) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


# ---------------------------------------------------------------------------
# LieLattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieLattice:
    """A lattice in sl(2) at precision N, stored through its adapted basis.

    ``divisors`` may contain N-capped entries (rank-deficient spans); the
    level is only defined for full-rank lattices.  Equality and the hash
    compare the modulus and the canonical ``basis``.
    """

    modulus: Modulus
    divisors: tuple[int, int, int]
    adapted_basis: tuple[Vec, Vec, Vec]
    adapted_inverse: tuple[Vec, Vec, Vec]

    @classmethod
    def from_columns(cls, columns: Sequence[Vec], modulus: Modulus) -> "LieLattice":
        sf = smith_form(columns, modulus)
        return cls(modulus, sf.divisors, sf.adapted_basis, sf.adapted_inverse)

    @classmethod
    def ambient(cls, modulus: Modulus) -> "LieLattice":
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return cls(modulus, (0, 0, 0), ident, ident)

    @classmethod
    def scaled_ambient(cls, modulus: Modulus, k: int) -> "LieLattice":
        """p^k times the ambient lattice."""
        if not 0 <= k <= modulus.N:
            raise PrecisionExceeded(f"k = {k} outside [0, {modulus.N}]")
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return cls(modulus, (k, k, k), ident, ident)

    @classmethod
    def from_json(cls, obj: dict) -> "LieLattice":
        """Parse the lattice literal {"p":..,"N":..,"columns":[[x, y, z], ..]}.

        JSON integers must already lie in [0, p^N); anything else is a
        config error, not something to normalize silently.
        """
        modulus = modulus_from_json(obj, "lattice")
        cols = residue_rows_from_json(obj.get("columns"), modulus, "lattice")
        for col in cols:
            if len(col) != 3:
                raise ValueError(f"lattice literal column {list(col)!r} does not have 3 entries")
        return cls.from_columns(cols, modulus)

    def to_json(self) -> dict:
        return {
            "p": self.modulus.p,
            "N": self.modulus.N,
            "columns": [list(g) for g in self.generators],
        }

    # -- structure --------------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d < self.modulus.N)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == AMBIENT_DIM

    @property
    def generators(self) -> tuple[Vec, ...]:
        """The scaled adapted basis p^{a_i} x_i, skipping capped directions."""
        p, pN = self.modulus.p, self.modulus.pN
        out = []
        for d, x in zip(self.divisors, self.adapted_basis):
            if d < self.modulus.N:
                s = p**d
                out.append(((s * x[0]) % pN, (s * x[1]) % pN, (s * x[2]) % pN))
        return tuple(out)

    def _coords(self, v: Vec) -> Vec:
        """Coordinates of v in the adapted basis (exact: the basis is
        unimodular)."""
        q = self.modulus.pN
        r = self.adapted_inverse
        return (
            (r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2]) % q,
            (r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2]) % q,
            (r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2]) % q,
        )

    # -- membership and comparisons ----------------------------------------

    def contains(self, v: Vec) -> bool:
        return membership_mod(self, v, self.modulus.N)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The Howell form of the lattice mod p^N (canonical: equal
        lattices have equal bases, whatever their generators)."""
        return howell_form(self.generators, self.modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieLattice):
            return NotImplemented
        return (self.modulus, self.basis) == (other.modulus, other.basis)

    def __hash__(self) -> int:
        return hash((self.modulus, self.basis))

    # -- derived lattices ---------------------------------------------------

    def saturated(self) -> "LieLattice":
        """Divisors zeroed on the span: the smallest isolated lattice
        containing this one (x in result whenever p*x is)."""
        new_divs = tuple(0 if d < self.modulus.N else self.modulus.N for d in self.divisors)
        return LieLattice(self.modulus, new_divs, self.adapted_basis, self.adapted_inverse)

    def scaled(self, k: int) -> "LieLattice":
        """p^k times this lattice (divisors shifted, capped at N)."""
        N = self.modulus.N
        new_divs = tuple(min(d + k, N) for d in self.divisors)
        return LieLattice(self.modulus, new_divs, self.adapted_basis, self.adapted_inverse)

    def plus_scaled_ambient(self, m: int) -> "LieLattice":
        """The lattice L + p^m * sl2."""
        if not 0 <= m <= self.modulus.N:
            raise PrecisionExceeded(f"m = {m} outside [0, {self.modulus.N}]")
        new_divs = tuple(min(d, m) for d in self.divisors)
        return LieLattice(self.modulus, new_divs, self.adapted_basis, self.adapted_inverse)

    def intersect_scaled_ambient(self, m: int) -> "LieLattice":
        """The lattice L cap p^m * sl2 (exact: the basis is ambient-adapted)."""
        if not 0 <= m <= self.modulus.N:
            raise PrecisionExceeded(f"m = {m} outside [0, {self.modulus.N}]")
        new_divs = tuple(max(d, m) for d in self.divisors)
        return LieLattice(self.modulus, new_divs, self.adapted_basis, self.adapted_inverse)

    # -- enumeration ---------------------------------------------------------

    def point_count(self) -> int:
        """Number of distinct residues of the lattice modulo p^N."""
        p, N = self.modulus.p, self.modulus.N
        total = 1
        for d in self.divisors:
            total *= p ** (N - d)
        return total

    def iter_points(self) -> Iterator[Vec]:
        """All residues of the lattice modulo p^N."""
        p, N = self.modulus.p, self.modulus.N
        pN = self.modulus.pN
        gens = self.generators
        ranges = [range(p ** (N - d)) for d in self.divisors if d < N]
        for ts in product(*ranges):
            v = (0, 0, 0)
            for t, g in zip(ts, gens):
                v = vec_add(v, vec_scale(t, g, pN), pN)
            yield v

    def point_columns(self) -> tuple[np.ndarray, ...]:
        """``iter_points`` as coordinate columns (x, y, z), in the same
        order."""
        N = self.modulus.N
        sizes = [self.modulus.p ** (N - d) for d in self.divisors if d < N]
        return combination_columns(self.generators, sizes, self.modulus.pN)

    def __repr__(self) -> str:
        return (
            f"LieLattice(p={self.modulus.p}, N={self.modulus.N}, "
            f"divisors={self.divisors})"
        )


def lattice_level(lat: LieLattice) -> int:
    """The largest divisor a_3: the least n with p^n * sl2 inside the lattice."""
    if not lat.is_full_rank:
        raise PrecisionExhausted("level is defined for full-rank lattices only")
    return lat.divisors[-1]


def membership_mod(lat: LieLattice, v: Vec, m: int) -> bool:
    """Whether v lies in L + p^m * sl2; exact at precision N for m <= N.

    In adapted coordinates the conditions decouple: the i-th coordinate must
    have valuation >= min(a_i, m).
    """
    if not 0 <= m <= lat.modulus.N:
        raise PrecisionExceeded(f"m = {m} outside [0, {lat.modulus.N}]")
    p, N = lat.modulus.p, lat.modulus.N
    t = lat._coords(v)
    for ti, d in zip(t, lat.divisors):
        need = min(d, m)
        if need > 0 and int_valuation(ti, p, N) < need:
            return False
    return True


def membership_mod_columns(lat: LieLattice, v, m: int) -> np.ndarray:
    """``membership_mod`` on coordinate columns v = (x, y, z): the mask of
    the vectors in L + p^m * sl2."""
    if not 0 <= m <= lat.modulus.N:
        raise PrecisionExceeded(f"m = {m} outside [0, {lat.modulus.N}]")
    p, q = lat.modulus.p, lat.modulus.pN
    x, y, z = as_columns(v, 3 * q * q)
    mask = np.ones(len(x), dtype=bool)
    for (r0, r1, r2), d in zip(lat.adapted_inverse, lat.divisors):
        need = min(d, m)
        if need > 0:
            mask &= (r0 * x + r1 * y + r2 * z) % p**need == 0  # p^need divides q
    return mask


def combination_columns(
    gens: Sequence[Vec], sizes: Sequence[int], q: int
) -> tuple[np.ndarray, ...]:
    """Coordinate columns of the sums t_1 g_1 + t_2 g_2 + ... mod q with
    0 <= t_i < sizes[i], in ``itertools.product`` order (the last t varies
    fastest)."""
    stride = prod(sizes)
    index = np.arange(stride)
    dtype = column_dtype(2 * q * q)
    cols = tuple(np.zeros(len(index), dtype=dtype) for _ in range(3))
    for g, size in zip(gens, sizes):
        stride //= size
        t = (index // stride % size).astype(dtype)
        cols = tuple((x + t * gi) % q for x, gi in zip(cols, g))
    return cols


def mat_to_vec_columns(cols, q: int) -> tuple[np.ndarray, ...]:
    """``mat_to_vec`` on entry columns (a, b, c, d) of trace-zero matrices."""
    a, b, c, d = cols
    if np.any((a + d) % q):
        raise ValueError("matrix is not trace zero")
    return (b, a, c)


def vec_to_mat_columns(v, q: int) -> tuple[np.ndarray, ...]:
    """``vec_to_mat`` on coordinate columns v = (x, y, z)."""
    x, y, z = v
    return (y % q, x % q, z % q, -y % q)


def bracket_witness(lat: LieLattice, m: int) -> tuple[Vec, Vec] | None:
    """A pair of generators of L whose bracket lies outside L + p^m sl2,
    or None when there is none."""
    gens, q = lat.generators, lat.modulus.pN
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not membership_mod(lat, bracket(gens[i], gens[j], q), m):
                return gens[i], gens[j]
    return None


def lie_closure(columns: Sequence[Vec], modulus: Modulus) -> LieLattice:
    """The smallest Lie sublattice of sl2 mod p^N that holds ``columns``.

    Starts from their span and, while ``bracket_witness`` finds a pair of
    generators whose bracket lies outside, adds that bracket.  Each step
    enlarges the lattice, so there are at most 3N steps.

    No library code calls it now that ``core.group_level`` sifts along the
    congruence filtration.  The tests use it as that sift's oracle at
    orders the closure cannot reach (on the logarithms of generators in
    K(p), p >= 5, where Lazard's correspondence makes it log H), and it is
    the step that gives the Lie lattice log(H cap K(p)) of a group, which
    an approximation of H by a subalgebra needs."""
    lat = LieLattice.from_columns(columns, modulus)
    while (pair := bracket_witness(lat, modulus.N)) is not None:
        lat = LieLattice.from_columns((*lat.generators, bracket(*pair, modulus.pN)), modulus)
    return lat


def is_subalgebra_mod(lat: LieLattice, nu: int) -> bool:
    """Whether all pairwise generator brackets lie in L + p^nu * sl2."""
    if not 0 <= nu <= lat.modulus.N - 1:
        raise PrecisionExceeded(f"nu = {nu} outside [0, {lat.modulus.N - 1}]")
    return bracket_witness(lat, nu) is None


_check_structure_constants()
