"""Subgroup / subalgebra correspondences at precision N, and over F_p as
the case N = 1.

At precision N (p >= 5): a closed subgroup generated by residually
unipotent elements corresponds to the span of the logarithms of its
residually unipotent elements, and a lattice spanned by residually
nilpotent elements generates a subgroup through exponentials of its
residually nilpotent stratum.  The two defining identities

    span(log H_resunip) cap p sl2 = log(H cap K(p))
    <exp h_resnilp> cap K(p)      = exp(h cap p sl2)

are checked as literal set equalities on enumerated elements, at every N.
``grpc_padic`` closes a complete generator set, one point of h per
residually nilpotent class mod p and a basis of h cap p sl2 (its docstring
gives the argument).  A round trip starts from a subgroup H and its h, so
it first tries to prove <exp h_resnilp> = H by membership instead
(``_exp_generates``): each generator of H is exp of a residually nilpotent
point of h, and each exponential of a generating point lies in H.  Only
when that proof fails is the group closed, by ``grpc_padic``, which stays
the fallback and the tests' oracle.

Over F_p this is Nori's correspondence (Nori, Invent. Math. 88, 1987):
unipotent-generated subgroups of SL(2, F_p) correspond to nilpotently
generated Lie subalgebras of sl(2, F_p).  It is the same code at N = 1:
a subalgebra is a ``LieLattice`` at precision 1, ``liec_bar`` is
``liec_padic`` and ``grpc_bar`` is ``grpc_padic``.  Log and exp are column
maps: ``_resunip_logs`` masks the residually unipotent elements of a
closure and takes their logarithms, and ``_exps`` takes exponentials.
Over F_p a unipotent u has (u - 1)^2 = 0 and a nilpotent x has x^2 = 0,
so there they are the closed forms log u = u - 1 and exp x = 1 + x, and
above N = 1 they run the column series.  Bracket closure is checked at
precision max(N - 1, 1).  The correspondence is only guaranteed for p
large; failures at small p are recorded as anomalies, never asserted away.

Both F_p enumerations start from the p + 1 lines, unipotent or nilpotent.
``enumerate_unipotent_generated`` builds every cyclic group <u> from one
column product, records each new subgroup with its conjugacy class, and
extends one subgroup per class;
``enumerate_nilpotently_generated`` checks only the spans of nilpotent
lines, which hold every subspace spanned by its nilpotent elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, product
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ENUM_CAP,
    MatP,
    Modulus,
    SubgroupClosure,
    as_columns,
    checked_columns,
    closure_of_generators,
    closure_of_pool,
    element_codes,
    group_level,
    in_principal_congruence_columns,
    mat_inverse,
    reduction_kernel_generators,
    residually_nilpotent_columns,
    residually_unipotent_columns,
)
from .enumeration import sl2_columns
from .errors import (
    BracketClosureAnomaly,
    BudgetExceeded,
    DomainViolation,
    InvariantViolation,
    ModulusMismatch,
    PreconditionViolation,
    UnsupportedPrime,
)
from .explog import (
    _require_extended_prime,
    exp_extended_columns,
    log_extended,
    log_extended_columns,
)
from .lattice import (
    LieLattice,
    Vec,
    bracket,
    bracket_witness,
    combination_columns,
    howell_form,
    lattice_level,
    mat_to_vec,
    mat_to_vec_columns,
    membership_mod_columns,
    vec_to_mat_columns,
)

# ---------------------------------------------------------------------------
# F_p side: subgroups of SL(2, F_p) and subalgebras of sl(2, F_p), N = 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FpSubgroup:
    """A subgroup of SL(2, F_p): the closure that holds its elements and
    the generators that built them (``closure.generators``, ``MatP``s at
    ``Modulus(p, 1)``), which also lets it be extended by a generator
    without closing again.  A closure above precision 1 is refused
    (``PreconditionViolation``).
    Subgroups are compared by ``canonical()`` or by their closures' codes.
    """

    closure: SubgroupClosure

    def __post_init__(self):
        if self.closure.modulus.N != 1:
            raise PreconditionViolation(
                f"an F_p subgroup is a closure at precision 1, not {self.closure.modulus.N}"
            )

    @classmethod
    def generated_by(cls, p: int, generators: Iterable[MatP]) -> "FpSubgroup":
        return cls(closure_of_pool(tuple(generators), Modulus(p, 1)))

    @classmethod
    def trivial(cls, p: int) -> "FpSubgroup":
        return cls(SubgroupClosure.trivial(Modulus(p, 1)))

    @property
    def p(self) -> int:
        return self.closure.modulus.p

    @property
    def order(self) -> int:
        return self.closure.order

    @property
    def elements(self) -> frozenset[tuple[int, ...]]:
        """The elements as (a, b, c, d) tuples, derived from the closure."""
        return frozenset(self.closure.iter_tuples())

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.closure.iter_tuples())


def _unipotent_columns(H: FpSubgroup) -> tuple[np.ndarray, ...]:
    """The entry columns of {x in H : (x - 1)^2 = 0 over F_p}, in code
    order; the set equals {x : x^p = 1} on SL(2)."""
    cols = H.closure.columns()
    unipotent = residually_unipotent_columns(cols, H.p)
    return tuple(x[unipotent] for x in cols)


def unipotent_elements(H: FpSubgroup) -> frozenset[tuple[int, ...]]:
    """The unipotent elements of H as (a, b, c, d) tuples."""
    return frozenset(zip(*(x.tolist() for x in _unipotent_columns(H))))


def h_plus(H: FpSubgroup) -> FpSubgroup:
    """The subgroup generated by the unipotent elements of H.

    Its index in H is prime to p (checked): it swallows the p-Sylow
    subgroups.
    """
    closure = SubgroupClosure.trivial(H.closure.modulus).extend_by_pool(_unipotent_columns(H))
    result = FpSubgroup(closure)
    index, rest = divmod(H.order, result.order)
    if rest or index % H.p == 0:
        raise InvariantViolation(
            f"H+ of order {result.order} in H of order {H.order}: index not a prime-to-p integer"
        )
    return result


def liec_bar(H: FpSubgroup) -> LieLattice:
    """F_p-span of the logarithms u - 1 of the unipotents u of H:
    ``liec_padic`` at N = 1.

    The span is expected to be bracket-closed for p large; a failure raises
    a recorded anomaly rather than passing silently.
    """
    return liec_padic(H.closure)


def grpc_bar(L: LieLattice) -> FpSubgroup:
    """Subgroup generated by exp x = 1 + x for every nilpotent element x of
    L, a lattice at precision 1: ``grpc_padic`` at N = 1, whose stratum is
    every nilpotent element (all F_p-multiples of nilpotents are again
    elements of L, so this covers the one-parameter subgroups)."""
    if L.modulus.N != 1:
        raise PreconditionViolation(f"grpc_bar takes a lattice at precision 1, not {L.modulus.N}")
    return FpSubgroup(grpc_padic(L))


def enumerate_unipotent_generated(p: int, *, cap: int = DEFAULT_ENUM_CAP) -> list[FpSubgroup]:
    """All subgroups H of SL(2, F_p) with H+ = H, by extending the closures
    of those found so far by one unipotent until no new subgroup appears.

    Every unipotent-generated subgroup arises by adding one unipotent at a
    time, so the breadth-first sweep is complete.  One extension serves
    every unipotent of the set H <u> H: a unipotent u != 1 has order p, so
    u^k generates <u> for p not dividing k, and <H, h u^k h'> = <H, u> for
    h, h' in H; for p dividing k, h u^k h' lies in H and adds nothing.
    From the trivial group that set is <u> itself, which is already the
    extension, so every cyclic group <u> is built at once from the columns
    of all unipotents (``_cyclic_extensions``); they are the p + 1 Sylow
    p-subgroups.

    Each new subgroup is recorded with its whole conjugacy class
    (``_conjugacy_class``), and only one member of each class is swept.
    That is complete: the unipotent-generated subgroups are closed under
    conjugation, and <x H x^-1, u> = x <H, x^-1 u x> x^-1, so the
    extensions of a conjugate of H are conjugates of extensions of H, and
    each lies in a class that the sweep of H adds in full.  The direct
    extensions of a sweep are recorded before any class is added, so a
    subgroup reached by a pair (H, u) keeps that pair's generators; a
    member found only in a class records the conjugated generators of the
    member it came from.
    At the budgeted primes the p + 1 Sylow p-subgroups are one class, so
    the first of them is swept, by one stage to the full group (the tests
    count the stages and the conjugations).  The count of subgroups is
    cross-checked against the classification of subgroups of SL(2, F_p)
    containing p-elements: the trivial group, the p + 1 Sylow
    p-subgroups, and the full group, so p + 3 in total.

    p must be a prime in {5, 7, 11, 13} (``UnsupportedPrime`` below 5 or
    for a non-prime, ``BudgetExceeded`` above 13), and more than ``cap``
    subgroups raise ``BudgetExceeded`` with the count reached.
    """
    _check_budgeted_prime(p)
    sl2 = sl2_columns(p)
    unip = tuple(x[residually_unipotent_columns(sl2, p)] for x in sl2)
    codes = element_codes(unip, p)
    order = np.argsort(codes)
    unip, unip_codes = tuple(x[order] for x in unip), codes[order]
    # a closure's sorted code array is canonical, so its bytes key the subgroup
    trivial = FpSubgroup.trivial(p)
    seen = {trivial.closure.codes.tobytes(): trivial}

    def record(closure: SubgroupClosure) -> FpSubgroup | None:
        """The subgroup of a closure not seen before, recorded, else None."""
        key = closure.codes.tobytes()
        if key in seen:
            return None
        if len(seen) + 1 > cap:
            raise BudgetExceeded(
                f"subgroup count exceeded cap {cap} (at least {len(seen) + 1} subgroups)"
            )
        seen[key] = FpSubgroup(closure)
        return seen[key]

    def found(extensions: list[tuple[MatP, SubgroupClosure]]) -> list[FpSubgroup]:
        """One subgroup per conjugacy class among the extensions not seen
        before, each recorded with its class."""
        new = [H for H in (record(closure) for _, closure in extensions) if H is not None]
        classes, classed = [], set()
        for H in new:
            if H.closure.codes.tobytes() not in classed:
                classes.append(H)
                for member in _conjugacy_class(H):
                    classed.add(member.codes.tobytes())
                    record(member)
        return classes

    frontier = found(_cyclic_extensions(trivial, unip, unip_codes))
    while frontier:
        frontier = [K for H in frontier for K in found(_swept(H, unip, unip_codes))]
    # codes order like (a, b, c, d) tuples, as entries lie in [0, p)
    subgroups = sorted(seen.values(), key=lambda H: (H.order, H.closure.codes.tolist()))
    expected = p + 3
    if len(subgroups) != expected:
        raise BracketClosureAnomaly(
            f"unipotent-generated subgroup count {len(subgroups)} differs from "
            f"the classification count {expected}",
            p=p,
        )
    return subgroups


def _check_budgeted_prime(p: int) -> None:
    """The F_p enumerations run for a prime p in {5, 7, 11, 13}."""
    try:
        Modulus(p, 1)
    except ValueError as exc:
        raise UnsupportedPrime(f"F_p enumeration needs a prime: {exc}") from None
    if p < 5:
        raise UnsupportedPrime("F_p enumeration needs p >= 5")
    if p > 13:
        raise BudgetExceeded("enumeration is budgeted for p in {5, 7, 11, 13}")


def _column_mat(cols: tuple[np.ndarray, ...], i: int, modulus: Modulus) -> MatP:
    a, b, c, d = (int(x[i]) for x in cols)
    return MatP(((a, b), (c, d)), modulus)


def _swept(
    H: FpSubgroup, unip: tuple[np.ndarray, ...], unip_codes: np.ndarray
) -> list[tuple[MatP, SubgroupClosure]]:
    """The extensions (u, <H, u>) of H, one ``extend`` per double coset
    H <u> H of the unipotents outside H, each by its first u in code
    order."""
    p, modulus = H.p, H.closure.modulus
    exponents = np.arange(p)
    done = H.closure.contains_columns(*unip)
    extensions = []
    for i in range(len(unip_codes)):
        if done[i]:
            continue
        u = _column_mat(unip, i, modulus)
        # <u> = {1 + k (u - 1) : k < p}, as (u - 1)^2 = 0
        cyclic = tuple((e + exponents * (x - e)) % p for x, e in zip(u.as_tuple(), (1, 0, 0, 1)))
        done |= np.isin(unip_codes, H.closure.double_coset(cyclic), assume_unique=True)
        extensions.append((u, H.closure.extend(u)))
    return extensions


def _cyclic_extensions(
    trivial: FpSubgroup, unip: tuple[np.ndarray, ...], unip_codes: np.ndarray
) -> list[tuple[MatP, SubgroupClosure]]:
    """``_swept`` of the trivial group from one column product.  Each
    unipotent u != 1 gives the row of sorted codes of
    <u> = {1 + k (u - 1) : k < p}, which is the closure ``extend`` builds
    from u; equal rows are equal groups, so one ``np.unique`` over the rows
    gives the extensions, each with the first u of its group in code
    order."""
    p, modulus = trivial.p, trivial.closure.modulus
    rest = np.flatnonzero(~trivial.closure.contains_columns(*unip))
    k = np.arange(p)
    cyclic = [((e + k * (x[rest, None] - e)) % p).ravel() for x, e in zip(unip, (1, 0, 0, 1))]
    rows = np.sort(element_codes(cyclic, p).reshape(len(rest), p), axis=1)
    groups, first = np.unique(rows, axis=0, return_index=True)
    extensions = []
    for j in np.argsort(first):
        u = _column_mat(unip, rest[first[j]], modulus)
        extensions.append((u, SubgroupClosure(modulus, (u,), groups[j])))
    return extensions


def _conjugacy_class(H: FpSubgroup) -> list[SubgroupClosure]:
    """The closures of the conjugates x H x^-1, x in SL(2, F_p), H's
    closure first: a breadth-first orbit under conjugation by the two
    generators s of SL(2, F_p) (``reduction_kernel_generators`` at n = 0).
    Each step is ``SubgroupClosure.conjugate`` by s, with the generators
    s g s^-1 of the member it came from; where s normalizes that member,
    the step shares its codes."""
    steps = [(s, mat_inverse(s)) for s in reduction_kernel_generators(H.closure.modulus, 0)]
    orbit = [H.closure]
    keys = {H.closure.codes.tobytes()}
    for K in orbit:  # the list grows while it is read: breadth first
        for s, s_inv in steps:
            conjugate = K.conjugate(s, tuple(s @ g @ s_inv for g in K.generators))
            key = conjugate.codes.tobytes()
            if key not in keys:
                keys.add(key)
                orbit.append(conjugate)
    return orbit


def enumerate_nilpotently_generated(p: int) -> list[LieLattice]:
    """All Lie subalgebras of sl(2, F_p) spanned by their nilpotent
    elements, as lattices at precision 1, from spans of nilpotent lines.

    Why the candidates are complete.  A subspace spanned by its nilpotent
    elements has a basis of them, so it is spanned by at most 3 nilpotent
    lines: it is {0}, one of the p + 1 lines, the plane of two lines, or
    F_p^3.  A plane span(u, v) is bracket-closed exactly when [u, v] lies
    in it, that is when det(u, v, [u, v]) = 0 mod p, which is tested on
    every pair of lines at once; F_p^3 is a candidate when the lines span
    it.  Each candidate is the lattice of its reduced echelon basis (the
    Howell form at N = 1), and it is kept when ``bracket_witness`` finds no
    pair leaving it and its nilpotent points span it.  The points of the
    candidates of one dimension are formed at once, and their nilpotency
    is read by code from one mask over F_p^3.  The result is in the order
    of the reduced echelon bases of all subspaces (``_subspace_order``).
    p is validated as in ``enumerate_unipotent_generated``.
    """
    _check_budgeted_prime(p)
    modulus = Modulus(p, 1)
    codes = np.arange(p**3)
    vectors = (codes // (p * p), codes // p % p, codes % p)  # in code order
    nilpotent_by_code = residually_nilpotent_columns(vec_to_mat_columns(vectors, p), p)
    x, y, z = vectors
    leading_one = (x == 1) | (x == 0) & ((y == 1) | (y == 0) & (z == 1))
    lines = np.stack(vectors, axis=1)[nilpotent_by_code & leading_one]  # one point per line
    u, v = (lines[i] for i in np.triu_indices(len(lines), 1))
    w = np.stack(bracket(tuple(u.T), tuple(v.T), p), axis=1)
    closed = (u * np.cross(v, w)).sum(axis=1) % p == 0
    candidates = {(), *((line,) for line in map(tuple, lines.tolist()))}
    pairs = zip(u[closed].tolist(), v[closed].tolist())
    candidates.update(howell_form(pair, modulus) for pair in pairs)
    span = howell_form(lines.tolist(), modulus)
    if len(span) == 3:
        candidates.add(span)
    out = []
    for k, group in groupby(sorted(candidates, key=_subspace_order), key=len):
        group = list(group)
        coeffs = np.array(list(product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)
        points = coeffs @ np.array(group, dtype=np.int64).reshape(len(group), k, 3) % p
        nilpotent = nilpotent_by_code[_vec_codes(np.moveaxis(points, -1, 0), p)]
        for basis, subspace, mask in zip(group, points, nilpotent):
            L = LieLattice.from_columns(basis, modulus)
            if bracket_witness(L, 1) is not None:
                continue
            if LieLattice.from_columns(subspace[mask].tolist(), modulus) == L:
                out.append(L)
    return out


def _subspace_order(basis: tuple[Vec, ...]) -> tuple:
    """The sort key of a reduced echelon basis of a subspace of F_p^3:
    dimension, pivot columns, then entries."""
    return len(basis), [row.index(1) for row in basis], basis


# ---------------------------------------------------------------------------
# Precision-N side
# ---------------------------------------------------------------------------


def _vec_codes(v, q: int) -> np.ndarray:
    """Codes (x q + y) q + z of coordinate columns, one per vector."""
    x, y, z = as_columns(v, q**3)
    return (x * q + y) * q + z


def liec_padic(
    generators: Sequence[MatP] | SubgroupClosure, *, cap: int = DEFAULT_CLOSURE_CAP
) -> LieLattice:
    """Span of the logarithms of all residually unipotent elements of the
    generated subgroup, as a lattice at precision N (p >= 5), at the
    modulus of the generators or of the given closure.

    The span grows greedily in code order: the first logarithm outside the
    lattice so far joins the spanning list, the lattice is rebuilt, and the
    rest are tested again.  Bracket closure at precision max(N - 1, 1) is
    asserted; a failure raises an anomaly carrying the witness bracket.
    """
    if isinstance(generators, SubgroupClosure):
        closure = generators
    else:
        closure = closure_of_generators(generators, cap=cap)
    _, logs = _resunip_logs(closure)
    return _log_span(logs, closure.modulus)


def _resunip_logs(closure: SubgroupClosure):
    """The residually unipotent elements of a closure as entry columns, in
    code order, and the coordinate columns of their logarithms (p >= 5, else
    ``UnsupportedPrime``).  The domain is checked once, by the mask: g is
    residually unipotent when g - 1 is nilpotent mod p.  Over F_p,
    (g - 1)^2 = 0 then ends the series at its first term, so log g = g - 1;
    above N = 1 the column series runs on the masked elements."""
    modulus = closure.modulus
    p = modulus.p
    _require_extended_prime(p)
    a, b, c, d = cols = closure.columns()
    y = (a - 1, b, c, d - 1)  # g - 1
    resunip = residually_nilpotent_columns(y, p)
    elements = tuple(x[resunip] for x in cols)
    if modulus.N > 1:
        return elements, mat_to_vec_columns(log_extended_columns(elements, modulus), modulus.pN)
    return elements, mat_to_vec_columns(tuple(x[resunip] % p for x in y), p)


def _exps(v, modulus: Modulus) -> tuple[np.ndarray, ...]:
    """The entry columns of the exponentials of the residually nilpotent
    points with coordinate columns v, residues mod p^N (p >= 5).  Over
    F_p, x^2 = 0 ends the series at its first term, so exp x = 1 + x;
    above N = 1 the column series runs.  Both branches refuse what the
    series refuse: ``UnsupportedPrime`` for p < 5 and ``DomainViolation``
    for a point that is not nilpotent mod p."""
    x = vec_to_mat_columns(v, modulus.pN)
    if modulus.N > 1:
        return exp_extended_columns(x, modulus)
    p = modulus.p
    _require_extended_prime(p)
    x = checked_columns(x)
    if not residually_nilpotent_columns(x, p).all():
        raise DomainViolation("x is not nilpotent mod p")
    a, b, c, d = x
    return (a + 1) % p, b, c, (d + 1) % p


def _log_span(v, modulus: Modulus) -> LieLattice:
    """``liec_padic``'s lattice from the logarithm coordinate columns v."""
    span_cols: list[Vec] = []
    lattice = LieLattice.scaled_ambient(modulus, modulus.N)  # the zero lattice
    rest = np.flatnonzero(~membership_mod_columns(lattice, v, modulus.N))
    while rest.size:
        span_cols.append(tuple(int(x[rest[0]]) for x in v))
        lattice = LieLattice.from_columns(span_cols, modulus)
        rest = rest[1:]
        rest = rest[~membership_mod_columns(lattice, tuple(x[rest] for x in v), modulus.N)]
    m = max(modulus.N - 1, 1)
    witness = bracket_witness(lattice, m)
    if witness is not None:
        raise BracketClosureAnomaly(
            f"logarithm span is not bracket-closed mod p^{m}",
            p=modulus.p,
            witness=witness,
        )
    return lattice


def resnilp_stratum(L: LieLattice, *, cap: int = DEFAULT_ENUM_CAP) -> tuple[np.ndarray, ...]:
    """One point of L in each residually nilpotent class of L mod p, as
    coordinate columns mod p^N.

    The points are the sums of t_i times the adapted generators of divisor
    0, each t_i in [0, p), in ``itertools.product`` order, kept when
    nilpotent mod p.  The adapted basis is unimodular, so these at most p^3
    points are distinct mod p and meet every class of L mod p.
    """
    p, N = L.modulus.p, L.modulus.N
    sizes = [p if d == 0 else 1 for d in L.divisors if d < N]
    total = prod(sizes)
    if total > cap:
        raise BudgetExceeded(f"stratum enumeration size {total} exceeds cap {cap}")
    v = combination_columns(L.generators, sizes, L.modulus.pN)
    nilpotent = residually_nilpotent_columns(vec_to_mat_columns(v, L.modulus.pN), p)
    return tuple(x[nilpotent] for x in v)


def grpc_padic(L: LieLattice, *, cap: int = DEFAULT_CLOSURE_CAP) -> SubgroupClosure:
    """The subgroup <exp L_resnilp> generated by the exponentials of the
    residually nilpotent elements of L (p >= 5), closed from a complete
    generator set: exp of ``resnilp_stratum(L)`` followed by exp of the
    adapted generators of L cap p sl2, in that order.

    Why the set is complete.  Every element of the set is exp of a
    residually nilpotent point of L, so it generates a subgroup of
    <exp L_resnilp>.  Conversely:

    * for p >= 5, exp(L cap p sl2) is a uniform pro-p group, generated by
      the exponentials of any basis of the lattice L cap p sl2 (Lazard,
      Publ. IHES 26, 1965; Dixon, du Sautoy, Mann and Segal, *Analytic
      Pro-p Groups*, ch. 4 and 9), so the closure contains it;
    * a residually nilpotent x in L agrees mod p with one stratum point
      x0, so x = x0 + y with y in L cap p sl2.  Since [x0, x0] = 0, every
      bracket term of the Baker-Campbell-Hausdorff series for
      log(exp(-x0) exp(x)) holds y, and [L, L cap p sl2] lies in
      L cap p sl2; so exp(-x0) exp(x) lies in exp(L cap p sl2), and exp(x)
      in the closure.

    The sketch leaves the p-adic convergence of that series to the
    references.  The tests compare the result with the closure of exp of
    every residually nilpotent point of L.  At N = 1 the lattice
    L cap p sl2 is zero and the set is exp of every nilpotent element of L.

    The round trips call this only as the fallback where
    ``_exp_generates`` cannot prove the group equal to the subgroup they
    started from; the tests keep it as the oracle for that proof.
    """
    pool = _exps(_generating_points(L), L.modulus)
    return SubgroupClosure.trivial(L.modulus).extend_by_pool(pool, cap=cap)


def _generating_points(L: LieLattice) -> tuple[np.ndarray, ...]:
    """``grpc_padic``'s generating points as coordinate columns:
    ``resnilp_stratum(L)`` followed by the adapted generators of
    L cap p sl2."""
    stratum = resnilp_stratum(L)
    inner = L.intersect_scaled_ambient(1).generators
    deep = np.array(inner, dtype=stratum[0].dtype).reshape(len(inner), 3)
    return tuple(np.concatenate(col) for col in zip(stratum, deep.T))


def _exp_generates(H: SubgroupClosure, h: LieLattice) -> bool:
    """Whether <exp h_resnilp> = H, proved without closing a group.  True
    when both of these hold:

    * every generator g of H (``H.generators``, which generate H) is
      residually unipotent, log g lies in h and exp(log g) = g, so g lies
      in exp(h_resnilp) and H in <exp h_resnilp>;
    * exp x lies in H for every x in ``_generating_points(h)``, so the
      group those exponentials generate lies in H, and that group is
      <exp h_resnilp> by the completeness argument in ``grpc_padic``.

    False otherwise, which is where the identity can fail: the caller then
    closes the group with ``grpc_padic`` (``grpc_bar`` at N = 1).  At
    N = 1 the points are every nilpotent of h, so the certificate is
    literal there.  The few generators take the scalar ``log_extended`` at
    every N, which costs less than one column series call.
    """
    modulus = H.modulus
    p, q, N = modulus.p, modulus.pN, modulus.N

    def columns(rows, width):
        return as_columns(np.array(rows, dtype=object).reshape(-1, width).T, q * q)

    gens = columns([g.as_tuple() for g in H.generators], 4)
    if not residually_unipotent_columns(gens, p).all():
        return False
    logs = columns([mat_to_vec(log_extended(g).matrix) for g in H.generators], 3)
    if not membership_mod_columns(h, logs, N).all():
        return False
    # one call: the generators' logarithms, then the points
    images = _exps(tuple(np.concatenate(x) for x in zip(logs, _generating_points(h))), modulus)
    n = len(gens[0])
    if not all(np.array_equal(x[:n], g) for x, g in zip(images, gens)):
        return False
    return bool(H.contains_columns(*(x[n:] for x in images)).all())


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------


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
    """Verify both round trips over F_p on the full enumerations.

    Each subgroup's lattice and each lattice's subgroup is formed once.
    The subgroup of L = liec_bar(H) is H itself when ``_exp_generates``
    proves it by membership, which it does for every subgroup at the
    budgeted primes; ``grpc_bar`` closes it otherwise.  Log and exp take
    their closed forms over F_p, so no column series runs.
    """
    report = RoundtripReport(p=p)
    try:
        subgroups = enumerate_unipotent_generated(p)
    except BracketClosureAnomaly as exc:
        report.anomalies.append(str(exc))
        return report
    report.subgroup_count = len(subgroups)
    closed: dict[LieLattice, FpSubgroup] = {}  # grpc_bar(L) by L
    # liec_bar(H) by the code bytes of H: liec_bar reads only the elements
    lattices: dict[bytes, LieLattice] = {}
    for H in subgroups:
        try:
            L = lattices[H.closure.codes.tobytes()] = liec_bar(H)
            back = closed[L] = H if _exp_generates(H.closure, L) else grpc_bar(L)
        except BracketClosureAnomaly as exc:
            report.anomalies.append(str(exc))
            continue
        report.checked += 1
        if not np.array_equal(back.closure.codes, H.closure.codes):
            report.failures.append(
                {
                    "direction": "group",
                    "order": H.order,
                    "witness": [g.to_json() for g in H.closure.generators],
                }
            )
    algebras = enumerate_nilpotently_generated(p)
    report.algebra_count = len(algebras)
    for L in algebras:
        try:
            back = closed[L] if L in closed else grpc_bar(L)
            key = back.closure.codes.tobytes()
            back_l = lattices[key] if key in lattices else liec_bar(back)
        except BracketClosureAnomaly as exc:
            report.anomalies.append(str(exc))
            continue
        report.checked += 1
        if back_l != L:
            report.failures.append({"direction": "algebra", "dim": L.rank, "basis": L.basis})
    return report


def smallest_passing_prime(
    candidates: Sequence[int] = (5, 7, 11, 13),
    *,
    known: dict[int, RoundtripReport] | None = None,
) -> tuple[int | None, list[RoundtripReport]]:
    """Run the F_p round trip on successive primes; report the first that
    passes with no failures and no anomalies.  A prime with a report in
    ``known`` is not run again."""
    known = known or {}
    reports = []
    for p in candidates:
        rep = known[p] if p in known else roundtrip_check_fp(p)
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

    The logarithms of H_resunip are taken once: h is their span, and those
    of H cap K(p), which lies in H_resunip, are the ones at its elements
    trivial mod p.  When ``_exp_generates`` proves <exp h_resnilp> = H,
    identity two's left side is H cap K(p), read from the same mask;
    otherwise ``grpc_padic`` closes the group.  Every generator must live
    at ``modulus``.
    """
    for g in (g for gens in samples for g in gens):
        if g.modulus != modulus:
            raise ModulusMismatch(f"generator lives mod {g.modulus.pN}, check runs mod {modulus.pN}")
    report = RoundtripReport(p=modulus.p)
    p, q = modulus.p, modulus.pN
    for gens in samples:
        closure = closure_of_generators(gens, cap=cap)
        resunip, resunip_logs = _resunip_logs(closure)
        h = _log_span(resunip_logs, modulus)
        report.subgroup_count += 1

        # identity one: span(log H_resunip) cap p sl2 = log(H cap K(p))
        inner = h.intersect_scaled_ambient(1)
        kernel = in_principal_congruence_columns(resunip, p)
        logs = tuple(x[kernel] for x in resunip_logs)
        ok_one = bool(membership_mod_columns(inner, logs, modulus.N).all())
        ok_one = ok_one and len(np.unique(_vec_codes(logs, q))) == inner.point_count()
        if not ok_one:
            report.failures.append(
                {"identity": "from-group", "generators": [g.to_json() for g in gens]}
            )
        report.checked += 1

        # identity two: <exp h_resnilp> cap K(p) = exp(h cap p sl2)
        if _exp_generates(closure, h):  # the group is H
            lhs = element_codes(tuple(x[kernel] for x in resunip), q)
        else:
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
