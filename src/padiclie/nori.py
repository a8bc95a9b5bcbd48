"""Subgroup / subalgebra correspondences over F_p and at precision N.

Over F_p: unipotent-generated subgroups of SL(2, F_p) correspond to
nilpotently-generated Lie subalgebras of sl(2, F_p) via spans of truncated
logarithms one way and closures of truncated exponentials the other.  The
correspondence is only guaranteed for p large; failures at small p are
recorded as anomalies, never asserted away.

At precision N (p >= 5): a closed subgroup generated by residually
unipotent elements corresponds to the span of the logarithms of its
residually unipotent elements, and a lattice spanned by residually
nilpotent elements generates a subgroup through exponentials of its
residually nilpotent stratum.  The two defining identities

    span(log H_resunip) cap p sl2 = log(H cap K(p))
    <exp h_resnilp> cap K(p)      = exp(h cap p sl2)

are checked as literal set equalities on enumerated elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ENUM_CAP,
    MatP,
    Modulus,
    SubgroupClosure,
    as_columns,
    closure_of_generators,
    closure_of_pool,
    element_codes,
    group_level,
    in_principal_congruence_columns,
    residually_unipotent_columns,
)
from .enumeration import sl2_columns
from .errors import (
    BracketClosureAnomaly,
    BudgetExceeded,
    InvariantViolation,
    UnsupportedPrime,
)
from .explog import exp_extended_columns, exp_trunc, log_extended_columns, log_trunc
from .lattice import (
    LieLattice,
    Vec,
    bracket,
    combination_columns,
    lattice_level,
    mat_to_vec,
    mat_to_vec_columns,
    membership_mod,
    membership_mod_columns,
    vec_add,
    vec_scale,
    vec_to_mat,
    vec_to_mat_columns,
)

Tuple4 = tuple[int, int, int, int]


def _tuple_to_mat(t: Tuple4, modulus: Modulus) -> MatP:
    return MatP.of([[t[0], t[1]], [t[2], t[3]]], modulus)


# ---------------------------------------------------------------------------
# Finite side: subgroups of SL(2, F_p) and subalgebras of sl(2, F_p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FpSubgroup:
    """A subgroup of SL(2, F_p) as its canonical sorted element set.

    ``closure`` is the closure it was built from, when there is one; it
    lets the subgroup be extended by a generator without closing again.
    """

    p: int
    elements: frozenset[Tuple4]
    generator_record: tuple[Tuple4, ...] = ()
    closure: SubgroupClosure | None = field(default=None, compare=False, repr=False)

    @classmethod
    def generated_by(cls, p: int, generators: Iterable[Tuple4]) -> "FpSubgroup":
        modulus = Modulus(p, 1)
        gens = tuple(generators)
        mats = [_tuple_to_mat(g, modulus) for g in gens] or [MatP.identity(modulus)]
        return cls.from_closure(closure_of_generators(mats), gens)

    @classmethod
    def from_closure(cls, closure: SubgroupClosure, record: tuple[Tuple4, ...]) -> "FpSubgroup":
        return cls(closure.modulus.p, frozenset(closure.iter_tuples()), record, closure)

    @classmethod
    def trivial(cls, p: int) -> "FpSubgroup":
        return cls.from_closure(SubgroupClosure.trivial(Modulus(p, 1)), ())

    @property
    def order(self) -> int:
        return len(self.elements)

    def canonical(self) -> tuple[Tuple4, ...]:
        return tuple(sorted(self.elements))

    def contains(self, t: Tuple4) -> bool:
        return t in self.elements


@dataclass(frozen=True)
class FpLieSubalgebra:
    """A Lie subalgebra of sl(2, F_p) as a reduced echelon basis."""

    p: int
    basis: tuple[Vec, ...]

    @classmethod
    def spanned_by(cls, p: int, vectors: Iterable[Vec]) -> "FpLieSubalgebra":
        return cls(p, _echelon_basis(vectors, p))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return _in_span(self.basis, v, self.p)

    def elements(self) -> Iterator[Vec]:
        p = self.p
        for coeffs in product(range(p), repeat=self.dim):
            v = (0, 0, 0)
            for t, b in zip(coeffs, self.basis):
                v = vec_add(v, vec_scale(t, b, p), p)
            yield v

    def is_bracket_closed(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not self.contains(bracket(self.basis[i], self.basis[j], self.p)):
                    return False
        return True


def _echelon_basis(vectors: Iterable[Vec], p: int) -> tuple[Vec, ...]:
    """Reduced row echelon basis of a span inside F_p^3 (canonical)."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = [x % p for x in vec]
        for b, lead in zip(basis, pivots):
            if v[lead]:
                f = v[lead]
                v = [(x - f * y) % p for x, y in zip(v, b)]
        if not any(v):
            continue
        lead = next(i for i in range(3) if v[i])
        inv = pow(v[lead], -1, p)
        v = [(x * inv) % p for x in v]
        for idx, b in enumerate(basis):
            f = b[lead]
            if f:
                basis[idx] = [(x - f * y) % p for x, y in zip(b, v)]
        basis.append(v)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return tuple(tuple(basis[i]) for i in order)


def _in_span(basis: Sequence[Vec], v: Vec, p: int) -> bool:
    v = [x % p for x in v]
    for b in basis:
        lead = next(i for i in range(3) if b[i] != 0)
        if v[lead]:
            f = v[lead]
            v = [(x - f * y) % p for x, y in zip(v, b)]
    return not any(v)


def _is_nilpotent_vec(v: Vec, p: int) -> bool:
    # (a, b, c) on (e, h, f) is the matrix [[b, a], [c, -b]]; nilpotent iff
    # the determinant -(b^2 + a c) vanishes
    a, b, c = v
    return (b * b + a * c) % p == 0


def unipotent_elements(H: FpSubgroup) -> frozenset[Tuple4]:
    """{x in H : (x - 1)^2 = 0 over F_p}; equals {x : x^p = 1} on SL(2)."""
    p = H.p
    out = set()
    for a, b, c, d in H.elements:
        # (x - 1)^2 = x^2 - 2x + 1 = (tr x) x - x - x + ... use entries directly
        e11 = ((a - 1) * (a - 1) + b * c) % p
        e12 = (b * (a + d - 2)) % p
        e21 = (c * (a + d - 2)) % p
        e22 = ((d - 1) * (d - 1) + b * c) % p
        if e11 == 0 and e12 == 0 and e21 == 0 and e22 == 0:
            out.add((a, b, c, d))
    return frozenset(out)


def h_plus(H: FpSubgroup) -> FpSubgroup:
    """The subgroup generated by the unipotent elements of H.

    Its index in H is prime to p (checked): it swallows the p-Sylow
    subgroups.
    """
    unips = unipotent_elements(H)
    result = FpSubgroup.generated_by(H.p, sorted(unips))
    index, rest = divmod(H.order, result.order)
    if rest or index % H.p == 0:
        raise InvariantViolation(
            f"H+ of order {result.order} in H of order {H.order}: index not a prime-to-p integer"
        )
    return result


def liec_bar(H: FpSubgroup) -> FpLieSubalgebra:
    """F_p-span of the truncated logarithms of the unipotents of H.

    The span is expected to be bracket-closed for p large; a failure raises
    a recorded anomaly rather than passing silently.
    """
    if H.p < 5:
        raise UnsupportedPrime("mod-p correspondence needs p >= 5")
    modulus = Modulus(H.p, 1)
    vecs = []
    for t in unipotent_elements(H):
        logmat = log_trunc(_tuple_to_mat(t, modulus))
        vecs.append(mat_to_vec(logmat))
    algebra = FpLieSubalgebra.spanned_by(H.p, vecs)
    if not algebra.is_bracket_closed():
        raise BracketClosureAnomaly(
            "span of logarithms is not bracket-closed", p=H.p, witness=H.canonical()
        )
    return algebra


def grpc_bar(L: FpLieSubalgebra) -> FpSubgroup:
    """Subgroup generated by exp of every nilpotent element of L (all
    F_p-multiples of nilpotents are again elements of L, so enumerating the
    nilpotent stratum covers the one-parameter subgroups)."""
    if L.p < 5:
        raise UnsupportedPrime("mod-p correspondence needs p >= 5")
    modulus = Modulus(L.p, 1)
    pool = [
        exp_trunc(vec_to_mat(v, modulus))
        for v in L.elements()
        if _is_nilpotent_vec(v, L.p)
    ]
    return FpSubgroup.from_closure(
        closure_of_pool(pool, modulus),
        tuple((m.rows[0][0], m.rows[0][1], m.rows[1][0], m.rows[1][1]) for m in pool),
    )


def enumerate_unipotent_generated(p: int, *, cap: int = DEFAULT_ENUM_CAP) -> list[FpSubgroup]:
    """All subgroups H of SL(2, F_p) with H+ = H, by extending the closures
    of those found so far by one unipotent until no new subgroup appears.

    Every unipotent-generated subgroup arises by adding one unipotent at a
    time, so the breadth-first sweep is complete.  <H, u> = <H, x> for every
    x in the double coset H u H, so one extension serves all of its
    unipotents.  The count is
    cross-checked against the classification of subgroups of SL(2, F_p)
    containing p-elements: the trivial group, the p + 1 Sylow p-subgroups,
    and the full group, so p + 3 in total.
    """
    if p not in (5, 7, 11, 13):
        raise BudgetExceeded("enumeration is budgeted for p in {5, 7, 11, 13}")
    modulus = Modulus(p, 1)
    cols = sl2_columns(p)
    unipotent = residually_unipotent_columns(cols, p)
    all_unips = [
        (u, _tuple_to_mat(u, modulus))
        for u in sorted(zip(*(x[unipotent].tolist() for x in cols)))
    ]
    # a closure's sorted code array is canonical, so its bytes key the subgroup
    seen: dict[bytes, FpSubgroup] = {}
    trivial = FpSubgroup.trivial(p)
    seen[trivial.closure.codes.tobytes()] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            done = set(H.elements)  # unipotents u whose <H, u> is known
            for u, umat in all_unips:
                if u in done:
                    continue
                closure = H.closure.extend(umat)
                done |= H.closure.double_coset(umat)
                key = closure.codes.tobytes()
                if key not in seen:
                    if len(seen) + 1 > cap:
                        raise BudgetExceeded(f"subgroup count exceeded cap {cap}")
                    extended = FpSubgroup.from_closure(closure, (*H.generator_record, u))
                    seen[key] = extended
                    nxt.append(extended)
        frontier = nxt
    subgroups = sorted(seen.values(), key=lambda H: (H.order, H.canonical()))
    expected = p + 3
    if len(subgroups) != expected:
        raise BracketClosureAnomaly(
            f"unipotent-generated subgroup count {len(subgroups)} differs from "
            f"the classification count {expected}",
            p=p,
        )
    return subgroups


def enumerate_nilpotently_generated(p: int) -> list[FpLieSubalgebra]:
    """All Lie subalgebras of sl(2, F_p) spanned by their nilpotent
    elements, by scanning every subspace of F_p^3."""
    out = []
    for basis in _all_subspaces(p):
        algebra = FpLieSubalgebra(p, basis)
        if not algebra.is_bracket_closed():
            continue
        nilpotents = [v for v in algebra.elements() if _is_nilpotent_vec(v, p)]
        if FpLieSubalgebra.spanned_by(p, nilpotents).basis == algebra.basis:
            out.append(algebra)
    return out


def _all_subspaces(p: int) -> Iterator[tuple[Vec, ...]]:
    """Canonical echelon bases of every subspace of F_p^3, all dimensions,
    enumerated directly from the reduced echelon shapes (p^2 + p + 1 each
    in dimensions one and two)."""
    yield ()
    for a in range(p):
        for b in range(p):
            yield ((1, a, b),)
    for b in range(p):
        yield ((0, 1, b),)
    yield ((0, 0, 1),)
    for a in range(p):
        for b in range(p):
            yield ((1, 0, a), (0, 1, b))
    for a in range(p):
        yield ((1, a, 0), (0, 0, 1))
    yield ((0, 1, 0), (0, 0, 1))
    yield ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# Precision-N side
# ---------------------------------------------------------------------------


# The stratum is enumerated this many classes at a time.
_STRATUM_BLOCK = 1 << 16


def _vec_codes(v, q: int) -> np.ndarray:
    """Codes (x q + y) q + z of coordinate columns, one per vector."""
    x, y, z = as_columns(v, q**3)
    return (x * q + y) * q + z


def liec_padic(
    generators: Sequence[MatP] | SubgroupClosure,
    modulus: Modulus | None = None,
    *,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> LieLattice:
    """Span of the logarithms of all residually unipotent elements of the
    generated subgroup, as a lattice at precision N (p >= 5).

    The span grows greedily in code order: the first logarithm outside the
    lattice so far joins the spanning list, the lattice is rebuilt, and the
    rest are tested again.  Bracket closure at precision N - 1 is asserted;
    a failure raises an anomaly carrying the witness bracket.
    """
    if isinstance(generators, SubgroupClosure):
        closure = generators
        if modulus is None:
            raise ValueError("modulus required with a precomputed closure")
    else:
        modulus = generators[0].modulus
        closure = closure_of_generators(generators, cap=cap)
    if modulus.p < 5:
        raise UnsupportedPrime("precision-N correspondence needs p >= 5")
    cols = closure.columns()
    resunip = residually_unipotent_columns(cols, modulus.p)
    logs = log_extended_columns(tuple(x[resunip] for x in cols), modulus)
    v = mat_to_vec_columns(logs, modulus.pN)
    span_cols: list[Vec] = []
    lattice = LieLattice.from_columns([], modulus)
    rest = np.flatnonzero(~membership_mod_columns(lattice, v, modulus.N))
    while rest.size:
        span_cols.append(tuple(int(x[rest[0]]) for x in v))
        lattice = LieLattice.from_columns(span_cols, modulus)
        rest = rest[1:]
        rest = rest[~membership_mod_columns(lattice, tuple(x[rest] for x in v), modulus.N)]
    gens = lattice.generators
    q = modulus.pN
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = bracket(gens[i], gens[j], q)
            if not membership_mod(lattice, br, modulus.N - 1):
                raise BracketClosureAnomaly(
                    "logarithm span is not bracket-closed at precision N - 1",
                    p=modulus.p,
                    witness=(gens[i], gens[j]),
                )
    return lattice


def resnilp_stratum(
    L: LieLattice, *, sample_exponent: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> tuple[np.ndarray, ...]:
    """Representatives of the residually nilpotent elements of L, complete
    modulo p^min(N, 3) (or the requested exponent), as coordinate columns.

    Enumerates the image of L modulo p^s through its adapted generators, a
    bounded block at a time, and keeps the classes whose mod-p reduction is
    nilpotent, lifted by their canonical representatives, each at its first
    occurrence in enumeration order.
    """
    modulus = L.modulus
    p, N = modulus.p, modulus.N
    s = min(N, 3) if sample_exponent is None else min(sample_exponent, N)
    ps = p**s
    sizes = [p ** max(s - d, 0) for d in L.divisors if d < N]
    total = prod(sizes)
    if total > cap:
        raise BudgetExceeded(f"stratum enumeration size {total} exceeds cap {cap}")
    parts = []
    for lo in range(0, total, _STRATUM_BLOCK):
        index = np.arange(lo, min(lo + _STRATUM_BLOCK, total))
        a, b, c = combination_columns(L.generators, sizes, ps, index)
        nilpotent = (b * b + a * c) % p == 0  # as in _is_nilpotent_vec
        parts.append((a[nilpotent], b[nilpotent], c[nilpotent]))
    v = tuple(np.concatenate(col) for col in zip(*parts))
    _, first = np.unique(_vec_codes(v, ps), return_index=True)
    first.sort()
    return tuple(x[first] for x in v)


def grpc_padic(
    L: LieLattice, *, cap: int = DEFAULT_CLOSURE_CAP, enum_cap: int = DEFAULT_ENUM_CAP
) -> SubgroupClosure:
    """Closure of the exponentials of the residually nilpotent stratum of L
    (p >= 5).

    The stratum is enumerated exactly at precision min(N, 3); for deeper N
    one refinement step is verified to add no new group elements, which
    keeps the generator set faithful at desk scale.
    """
    modulus = L.modulus
    p, N = modulus.p, modulus.N
    if p < 5:
        raise UnsupportedPrime("precision-N correspondence needs p >= 5")
    q = modulus.pN
    s = min(N, 3)
    reps = resnilp_stratum(L, sample_exponent=s, cap=enum_cap)
    pool = exp_extended_columns(vec_to_mat_columns(reps, q), modulus)
    closure = SubgroupClosure.trivial(modulus).extend_by_pool(pool, cap=cap)
    if N > s:
        refined = resnilp_stratum(L, sample_exponent=s + 1, cap=enum_cap)
        g = exp_extended_columns(vec_to_mat_columns(refined, q), modulus)
        escaped = np.flatnonzero(~closure.contains_columns(*g))
        if escaped.size:
            raise BracketClosureAnomaly(
                "stratum refinement escaped the closure; raise the sample depth",
                p=p,
                witness=tuple(int(x[escaped[0]]) for x in refined),
            )
    return closure


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------


def _kernel_logs(closure: SubgroupClosure) -> tuple[np.ndarray, ...]:
    """Coordinate columns of log g for the elements g of H cap K(p), in
    code order."""
    modulus = closure.modulus
    cols = closure.columns()
    kernel = tuple(x[in_principal_congruence_columns(cols, modulus.p)] for x in cols)
    return mat_to_vec_columns(log_extended_columns(kernel, modulus), modulus.pN)


@dataclass
class RoundtripReport:
    """Outcome of a correspondence verification run."""

    p: int
    subgroup_count: int = 0
    algebra_count: int = 0
    failures: list[dict] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "subgroup_count": self.subgroup_count,
            "algebra_count": self.algebra_count,
            "failures": self.failures,
            "anomalies": self.anomalies,
            "checked": self.checked,
        }


def roundtrip_check_fp(p: int) -> RoundtripReport:
    """Verify both round trips over F_p on the full enumerations."""
    report = RoundtripReport(p=p)
    try:
        subgroups = enumerate_unipotent_generated(p)
    except BracketClosureAnomaly as exc:
        report.anomalies.append(str(exc))
        return report
    report.subgroup_count = len(subgroups)
    closed: dict[tuple[Vec, ...], FpSubgroup] = {}  # grpc_bar(L) by L.basis
    for H in subgroups:
        try:
            L = liec_bar(H)
            back = closed[L.basis] = grpc_bar(L)
        except BracketClosureAnomaly as exc:
            report.anomalies.append(str(exc))
            continue
        report.checked += 1
        if back.elements != H.elements:
            report.failures.append(
                {"direction": "group", "order": H.order, "witness": H.generator_record}
            )
    algebras = enumerate_nilpotently_generated(p)
    report.algebra_count = len(algebras)
    for L in algebras:
        try:
            back_l = liec_bar(closed[L.basis] if L.basis in closed else grpc_bar(L))
        except BracketClosureAnomaly as exc:
            report.anomalies.append(str(exc))
            continue
        report.checked += 1
        if back_l.basis != L.basis:
            report.failures.append({"direction": "algebra", "dim": L.dim, "basis": L.basis})
    return report


def smallest_passing_prime(candidates: Sequence[int] = (5, 7, 11, 13)) -> tuple[int | None, list[RoundtripReport]]:
    """Run the F_p round trip on successive primes; report the first that
    passes with no failures and no anomalies."""
    reports = []
    for p in candidates:
        rep = roundtrip_check_fp(p)
        reports.append(rep)
        if rep.passed and not rep.anomalies:
            return p, reports
    return None, reports


def roundtrip_check_padic(
    samples: Sequence[Sequence[MatP]],
    modulus: Modulus,
    *,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> RoundtripReport:
    """Check the two defining identities and level preservation on sampled
    residually-unipotent-generated subgroups at precision N.

    For each sample H (a generator list): with h = span(log H_resunip),

    * every log of an element of H cap K(p) lies in h cap p sl2 and the two
      sets have equal cardinality (identity one, literal set equality);
    * the closure of exp(h_resnilp) meets K(p) in exactly exp(h cap p sl2)
      (identity two, literal set equality);
    * when h is full rank, the group level of H equals the lattice level.
    """
    report = RoundtripReport(p=modulus.p)
    p, q = modulus.p, modulus.pN
    for gens in samples:
        closure = closure_of_generators(gens, cap=cap)
        h = liec_padic(closure, modulus, cap=cap)
        report.subgroup_count += 1

        # identity one: span(log H_resunip) cap p sl2 = log(H cap K(p))
        inner = h.intersect_scaled_ambient(1)
        logs = _kernel_logs(closure)
        ok_one = bool(membership_mod_columns(inner, logs, modulus.N).all())
        ok_one = ok_one and len(np.unique(_vec_codes(logs, q))) == inner.point_count()
        if not ok_one:
            report.failures.append(
                {"identity": "from-group", "generators": [g.to_json() for g in gens]}
            )
        report.checked += 1

        # identity two: <exp h_resnilp> cap K(p) = exp(h cap p sl2)
        group = grpc_padic(h, cap=cap)
        lhs = group.codes[in_principal_congruence_columns(group.columns(), p)]
        rhs = exp_extended_columns(vec_to_mat_columns(inner.point_columns(), q), modulus)
        rhs = np.unique(element_codes(rhs, q))
        if not np.array_equal(lhs, rhs):
            report.failures.append(
                {"identity": "from-algebra", "generators": [g.to_json() for g in gens]}
            )
        report.checked += 1

        # level preservation on open subgroups
        if h.is_full_rank:
            lvl = group_level(closure)
            if not lvl.attained or lvl.level != lattice_level(h):
                report.failures.append(
                    {
                        "identity": "level",
                        "group_level": lvl.level,
                        "lattice_level": lattice_level(h),
                    }
                )
            report.checked += 1
    return report
