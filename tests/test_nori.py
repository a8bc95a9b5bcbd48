import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclie import (
    FpSubgroup,
    LieLattice,
    MatP,
    Modulus,
    closure_of_generators,
    enumerate_unipotent_generated,
    grpc_bar,
    grpc_padic,
    h_plus,
    liec_bar,
    liec_padic,
    roundtrip_check_fp,
    roundtrip_check_padic,
    unipotent_elements,
)
from padiclie import core, explog, nori
from padiclie.core import (
    SubgroupClosure,
    closure_of_pool,
    element_codes,
    in_principal_congruence,
    in_principal_congruence_columns,
    inverse_columns,
    mat_inverse,
    mul_columns,
    reduction_kernel_generators,
    residually_nilpotent,
    residually_nilpotent_columns,
    residually_unipotent,
)
from padiclie.enumeration import sl2_columns
from padiclie.errors import (
    BracketClosureAnomaly,
    BudgetExceeded,
    ClosureBudgetExceeded,
    DomainViolation,
    ModulusMismatch,
    PreconditionViolation,
    UnsupportedPrime,
)
from padiclie.explog import exp_extended, exp_trunc, log_extended, log_trunc
from padiclie.lattice import (
    bracket_witness,
    mat_to_vec,
    mat_to_vec_columns,
    membership_mod,
    vec_add,
    vec_scale,
    vec_to_mat,
    vec_to_mat_columns,
)
from padiclie.nori import (
    _resunip_logs,
    enumerate_nilpotently_generated,
    resnilp_stratum,
    smallest_passing_prime,
)
from padiclie.sampling import random_resunip_generator_sets


def _sl2_fp(p):
    return frozenset(zip(*(x.tolist() for x in sl2_columns(p))))


SL2_GENERATORS = [(1, 1, 0, 1), (1, 0, 1, 1)]


def _generated_by(p, tuples):
    m = Modulus(p, 1)
    return FpSubgroup.generated_by(p, [_mat(t, m) for t in tuples])


def _cyclic(p, t4):
    return _generated_by(p, [t4])


def test_unipotent_elements_examples():
    H = _cyclic(5, (1, 1, 0, 1))
    assert len(H.elements) == 5
    assert unipotent_elements(H) == H.elements

    torus = _generated_by(5, [(2, 0, 0, 3)])
    assert unipotent_elements(torus) == {(1, 0, 0, 1)}

    full = _generated_by(5, SL2_GENERATORS)
    assert full.order == 120
    assert full.elements == _sl2_fp(5)
    assert len(unipotent_elements(full)) == 25  # p^2 unipotents, identity included


def test_h_plus_examples():
    p = 5
    # Borel: upper triangular, order p (p - 1)
    borel_gens = [(1, 1, 0, 1), (2, 0, 0, 3)]
    borel = _generated_by(p, borel_gens)
    assert borel.order == p * (p - 1)
    plus = h_plus(borel)
    assert plus.order == p

    sylow = _cyclic(p, (1, 1, 0, 1))
    assert h_plus(sylow).elements == sylow.elements

    torus = _generated_by(p, [(2, 0, 0, 3)])
    assert h_plus(torus).order == 1


def test_liec_bar_examples():
    p = 5
    assert liec_bar(_cyclic(p, (1, 1, 0, 1))).basis == ((1, 0, 0),)
    full = _generated_by(p, SL2_GENERATORS)
    assert liec_bar(full).rank == 3
    torus = _generated_by(p, [(2, 0, 0, 3)])
    assert liec_bar(torus).rank == 0
    with pytest.raises(UnsupportedPrime):
        liec_bar(_cyclic(3, (1, 1, 0, 1)))


def test_liec_bar_anomaly_carries_the_bracket_pair(monkeypatch):
    # liec_bar checks bracket closure mod p where liec_padic does, and the
    # anomaly carries the pair whose bracket leaves the span
    pair = ((1, 0, 0), (0, 0, 1))
    precisions = []

    def witness(L, m):
        precisions.append(m)
        return pair

    monkeypatch.setattr(nori, "bracket_witness", witness)
    with pytest.raises(BracketClosureAnomaly) as err:
        liec_bar(_generated_by(5, SL2_GENERATORS))
    assert (err.value.p, err.value.witness, precisions) == (5, pair, [1])


def test_grpc_bar_examples():
    p = 5
    line = LieLattice.from_columns([(1, 0, 0)], Modulus(p, 1))
    assert grpc_bar(line).order == p
    full = LieLattice.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Modulus(p, 1))
    assert grpc_bar(full).order == 120
    cartan = LieLattice.from_columns([(0, 1, 0)], Modulus(p, 1))
    assert grpc_bar(cartan).order == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumerate_unipotent_generated(p):
    subs = enumerate_unipotent_generated(p)
    assert len(subs) == p + 3
    orders = sorted(H.order for H in subs)
    assert orders[0] == 1
    assert orders.count(p) == p + 1
    assert orders[-1] == p * (p * p - 1)
    for H in subs:
        assert h_plus(H).elements == H.elements
    # determinism across runs
    again = enumerate_unipotent_generated(p)
    assert [H.canonical() for H in subs] == [H.canonical() for H in again]


def _enumerate_unipotent_generated_oracle(p):
    # extend every subgroup found by every unipotent, in code order, with no
    # skipping; the first (H, u) pair to reach a subgroup records it
    m = Modulus(p, 1)
    unips = sorted(t for t in _sl2_fp(p) if residually_unipotent(_mat(t, m)))
    trivial = FpSubgroup.trivial(p)
    seen = {trivial.closure.codes.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for u in unips:
                closure = H.closure.extend(_mat(u, m))
                key = closure.codes.tobytes()
                if key not in seen:
                    seen[key] = FpSubgroup(closure)
                    nxt.append(seen[key])
        frontier = nxt
    return sorted(seen.values(), key=lambda H: (H.order, H.canonical()))


@pytest.mark.parametrize("p", [5, 7])
def test_enumerate_unipotent_generated_matches_oracle(p):
    fast, slow = enumerate_unipotent_generated(p), _enumerate_unipotent_generated_oracle(p)
    assert [H.canonical() for H in fast] == [H.canonical() for H in slow]
    assert [H.closure.generators for H in fast] == [H.closure.generators for H in slow]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumerate_unipotent_generated_stage_count(p, monkeypatch):
    # the Sylow p-subgroups come from one column pass over the unipotents,
    # so the one stage is from the first of them to the full group; the
    # other Sylow p-subgroups are its conjugates and reuse that stage
    stages = []
    extend = SubgroupClosure.extend

    def counting(self, g, **kw):
        stages.append(self.order)
        return extend(self, g, **kw)

    monkeypatch.setattr(SubgroupClosure, "extend", counting)
    enumerate_unipotent_generated(p)
    assert stages == [p]


def _unipotents_in_code_order(p):
    sl2 = sl2_columns(p)
    unip = tuple(x[core.residually_unipotent_columns(sl2, p)] for x in sl2)
    codes = element_codes(unip, p)
    order = np.argsort(codes)
    return tuple(x[order] for x in unip), codes[order]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cyclic_extensions_match_swept(p):
    # the trivial group's stage from one column pass equals the sweep of
    # one extend per double coset, extension by extension
    unip, unip_codes = _unipotents_in_code_order(p)
    trivial = FpSubgroup.trivial(p)
    fast = nori._cyclic_extensions(trivial, unip, unip_codes)
    slow = nori._swept(trivial, unip, unip_codes)
    assert len(fast) == p + 1
    assert [u for u, _ in fast] == [u for u, _ in slow]
    for (_, closure), (_, direct) in zip(fast, slow):
        assert np.array_equal(closure.codes, direct.codes)
        assert closure.codes.dtype == direct.codes.dtype
        assert closure.generators == direct.generators


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_roundtrip_fp_extends_and_sweeps_once(p, monkeypatch):
    # one extend and one double coset per prime, both from the first Sylow
    # p-subgroup: a return to one extension per unipotent fails here
    calls = []
    for name in ("extend", "double_coset"):
        def counting(self, *args, _name=name, _method=getattr(SubgroupClosure, name), **kw):
            calls.append((_name, self.order))
            return _method(self, *args, **kw)

        monkeypatch.setattr(SubgroupClosure, name, counting)
    assert roundtrip_check_fp(p).passed
    assert sorted(calls) == [("double_coset", p), ("extend", p)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumeration_sweeps_one_subgroup_per_class(p, monkeypatch):
    # one Sylow p-subgroup and the full group are swept; the orbits of the
    # p + 1 Sylow p-subgroups and of the full group conjugate each member by
    # both generators of SL(2, F_p); a sweep of every Sylow p-subgroup
    # fails here
    swept, conjugated = [], []
    sweep, conjugate = nori._swept, SubgroupClosure.conjugate

    def sweeping(H, *args):
        swept.append(H.order)
        return sweep(H, *args)

    def conjugating(self, *args):
        conjugated.append(self.order)
        return conjugate(self, *args)

    monkeypatch.setattr(nori, "_swept", sweeping)
    monkeypatch.setattr(SubgroupClosure, "conjugate", conjugating)
    enumerate_unipotent_generated(p)
    assert swept == [p, p**3 - p]
    assert len(conjugated) == 2 * p + 4
    assert sorted(conjugated) == [p] * (2 * p + 2) + [p**3 - p] * 2


def _class_by_element_sets(H, p):
    """The sorted code arrays of the distinct x H x^-1, x in SL(2, F_p),
    conjugating every element of H by every x at once."""
    sl2 = sl2_columns(p)
    xs = tuple(x[:, None] for x in sl2)
    conjugates = mul_columns(mul_columns(xs, H.closure.columns(), p), inverse_columns(xs, p), p)
    codes = element_codes(tuple(c.ravel() for c in conjugates), p).reshape(len(sl2[0]), -1)
    return np.unique(np.sort(codes, axis=1), axis=0)


def _inverting(y, sl2, p):
    """[the first x with x y x^-1 = y^-1], or [] when y is not conjugate to
    its inverse."""
    conjugates = mul_columns(mul_columns(sl2, y.as_tuple(), p), inverse_columns(sl2, p), p)
    target = mat_inverse(y).as_tuple()
    hits = np.flatnonzero(np.all([c == t for c, t in zip(conjugates, target)], axis=0))
    return [nori._column_mat(sl2, hits[0], y.modulus)] if hits.size else []


def _seeded_subgroups(p):
    """Seeded subgroups of SL(2, F_p) of order <= 200: cyclic groups <y>,
    dicyclic groups <y, x> with x y x^-1 = y^-1, groups of two upper
    triangular elements, and the centre {1, -1}."""
    rng, m = random.Random(f"classes-{p}"), Modulus(p, 1)
    sl2 = sl2_columns(p)
    upper = np.flatnonzero(sl2[2] == 0)
    groups = {}
    for _ in range(10):
        y = nori._column_mat(sl2, rng.randrange(len(sl2[0])), m)
        b0, b1 = (nori._column_mat(sl2, i, m) for i in rng.sample(upper.tolist(), 2))
        for gens in ([y], [y, *_inverting(y, sl2, p)], [b0, b1], [MatP.of([[-1, 0], [0, -1]], m)]):
            H = FpSubgroup.generated_by(p, gens)
            if H.order <= 200:
                groups[H.closure.codes.tobytes()] = H
    return list(groups.values())


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_conjugacy_class_matches_element_oracle(p):
    # the orbit under the two generators of SL(2, F_p) is the set of all
    # x H x^-1, H's closure first, each member closing from its generators
    sizes = set()
    for H in _seeded_subgroups(p):
        orbit = nori._conjugacy_class(H)
        assert orbit[0] is H.closure
        codes = np.stack([K.codes for K in orbit])
        assert np.array_equal(np.unique(codes, axis=0), _class_by_element_sets(H, p))
        assert len(orbit) == len(np.unique(codes, axis=0))
        for K in orbit:
            assert np.array_equal(closure_of_pool(K.generators, Modulus(p, 1)).codes, K.codes)
        sizes.add(len(orbit) == 1)
    assert sizes == {True, False}  # normal and non-normal subgroups


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumeration_is_closed_under_conjugation(p):
    subs = enumerate_unipotent_generated(p)
    keys = {H.closure.codes.tobytes() for H in subs}
    for s in reduction_kernel_generators(Modulus(p, 1), 0):
        s_inv = mat_inverse(s).as_tuple()
        for H in subs:
            conjugates = mul_columns(mul_columns(s.as_tuple(), H.closure.columns(), p), s_inv, p)
            codes = np.sort(element_codes(conjugates, p)).astype(H.closure.codes.dtype)
            assert codes.tobytes() in keys


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumeration_sort_key_is_canonical_order(p):
    # codes order like (a, b, c, d) tuples, as every entry lies in [0, p)
    subs = enumerate_unipotent_generated(p)
    shuffled = random.Random(p).sample(subs, len(subs))
    by_tuples = sorted(shuffled, key=lambda H: (H.order, H.canonical()))
    by_codes = sorted(shuffled, key=lambda H: (H.order, H.closure.codes.tolist()))
    assert by_tuples == by_codes == subs


def test_enumerate_unipotent_generated_rejects_bad_primes():
    for p in (4, -5, 9, 3):
        with pytest.raises(UnsupportedPrime):
            enumerate_unipotent_generated(p)
    with pytest.raises(BudgetExceeded):
        enumerate_unipotent_generated(17)


@pytest.mark.parametrize("p, error", [
    (2, UnsupportedPrime), (3, UnsupportedPrime), (4, UnsupportedPrime), (17, BudgetExceeded),
])
def test_enumerate_nilpotently_generated_rejects_bad_primes(p, error):
    # the same primes as enumerate_unipotent_generated
    with pytest.raises(error):
        enumerate_nilpotently_generated(p)
    with pytest.raises(error):
        enumerate_unipotent_generated(p)


@pytest.mark.parametrize("p", [5, 7])
def test_enumerate_unipotent_generated_budget_message_carries_the_count(p):
    with pytest.raises(BudgetExceeded, match=rf"cap {p + 2} \(at least {p + 3} subgroups\)"):
        enumerate_unipotent_generated(p, cap=p + 2)
    assert len(enumerate_unipotent_generated(p, cap=p + 3)) == p + 3


@pytest.mark.parametrize("p, rounds", [(5, 5), (7, 6), (11, 7), (13, 8)])
def test_enumeration_closes_sl2_in_few_dimino_rounds(p, rounds, monkeypatch):
    # the one Dimino stage, from the first Sylow p-subgroup to SL(2, F_p),
    # walks the coset graph with the generators and their inverses: 5, 6, 7
    # and 8 rounds (7, 10, 11 and 12 with the generators alone)
    stages = []
    dimino, product_codes = core._dimino_codes, core._product_codes

    def recording(h_codes, gens, q, cap):
        frontiers = []

        def products(x_codes, reps, q, out):
            if x_codes is not h_codes:  # a round's products, not a coset
                frontiers.append(len(x_codes))
            return product_codes(x_codes, reps, q, out)

        monkeypatch.setattr(core, "_product_codes", products)
        codes = dimino(h_codes, gens, q, cap)
        monkeypatch.setattr(core, "_product_codes", product_codes)
        stages.append((len(h_codes), len(codes), len(frontiers)))
        return codes

    monkeypatch.setattr(core, "_dimino_codes", recording)
    enumerate_unipotent_generated(p)
    assert stages == [(p, p * (p * p - 1), rounds)]


def test_nilpotently_generated_enumeration():
    for p in (5, 7, 11, 13):
        algebras = enumerate_nilpotently_generated(p)
        # zero, the p + 1 nilpotent lines, sl2, in the scan's order
        assert [L.rank for L in algebras] == [0] + [1] * (p + 1) + [3]
        # each lattice is built from the scan's echelon basis
        scan = _nilpotently_generated_by_scan(p)
        assert [(L.divisors, L.adapted_basis, L.adapted_inverse) for L in algebras] == [
            (L.divisors, L.adapted_basis, L.adapted_inverse) for L in scan
        ]


def _all_subspaces(p):
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


def _nilpotently_generated_by_scan(p):
    """Every subspace of F_p^3 that is bracket-closed and spanned by its
    nilpotent points, one subspace at a time and with no filter."""
    m = Modulus(p, 1)
    out = []
    for basis in _all_subspaces(p):
        L = LieLattice.from_columns(basis, m)
        nilpotent = [v for v in L.iter_points() if residually_nilpotent(vec_to_mat(v, m))]
        if bracket_witness(L, 1) is None and LieLattice.from_columns(nilpotent, m) == L:
            out.append(L)
    return out


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_nilpotently_generated_matches_unfiltered_scan(p):
    assert enumerate_nilpotently_generated(p) == _nilpotently_generated_by_scan(p)


def test_roundtrip_fp_and_smallest_prime():
    rep = roundtrip_check_fp(5)
    assert rep.passed and not rep.anomalies
    assert rep.subgroup_count == 8 and rep.algebra_count == 8
    smallest, reports = smallest_passing_prime((5, 7))
    assert smallest == 5


def test_roundtrip_fp_failure_records_are_json(monkeypatch):
    # a liec_bar that returns the zero lattice holds no logarithm of a
    # nontrivial generator, so the certificate declines and grpc_bar closes
    # the trivial group: every nontrivial H fails, and the group failure's
    # witness is its closure's generators as matrix literals
    monkeypatch.setattr(nori, "liec_bar", lambda H: LieLattice.from_columns([], H.closure.modulus))
    rep = roundtrip_check_fp(5)
    groups = [f["witness"] for f in rep.failures if f["direction"] == "group"]
    nontrivial = [H for H in enumerate_unipotent_generated(5) if H.order > 1]
    assert groups == [[g.to_json() for g in H.closure.generators] for H in nontrivial]
    json.dumps(rep.to_json())


def test_roundtrip_fp_reuses_group_lattices(monkeypatch):
    # the algebra loop reads liec_bar of each subgroup the group loop met
    calls = []

    def counting(H):
        calls.append(H.order)
        return liec_bar(H)

    monkeypatch.setattr(nori, "liec_bar", counting)
    rep = roundtrip_check_fp(7)
    assert len(calls) == 7 + 3
    assert rep.to_json() == {
        "p": 7,
        "subgroup_count": 10,
        "algebra_count": 10,
        "failures": [],
        "anomalies": [],
        "checked": 20,
    }


def _seeded_padic_sets():
    m = Modulus(5, 3)
    return random_resunip_generator_sets(random.Random(20260810), m, 50), m


def _counting(monkeypatch, name):
    """Patch nori's ``name`` to record each call in the returned list."""
    calls, closer = [], getattr(nori, name)

    def counting(L, **kwargs):
        calls.append(L)
        return closer(L, **kwargs)

    monkeypatch.setattr(nori, name, counting)
    return calls


def test_passing_roundtrips_close_no_group(monkeypatch):
    # a passing round trip proves <exp h_resnilp> = H by membership, so it
    # never closes the group a second time
    calls = _counting(monkeypatch, "grpc_bar")
    for p in (5, 7, 11, 13):
        rep = roundtrip_check_fp(p)
        assert rep.passed and rep.checked == 2 * (p + 3)
    assert calls == []
    calls = _counting(monkeypatch, "grpc_padic")
    samples, m = _seeded_padic_sets()
    assert roundtrip_check_padic(samples, m).passed
    assert calls == []


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_roundtrip_fp_runs_no_column_series(p, monkeypatch):
    # over F_p log and exp are the closed forms u - 1 and 1 + x
    calls = []
    for name in ("log_extended_columns", "exp_extended_columns"):
        def counting(cols, modulus, _name=name, _series=getattr(nori, name)):
            calls.append(_name)
            return _series(cols, modulus)

        monkeypatch.setattr(nori, name, counting)
    rep = roundtrip_check_fp(p)
    assert rep.passed and rep.checked == 2 * (p + 3)
    assert calls == []


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fp_closed_forms_match_column_series(p):
    # at N = 1 _logs and _exps take their closed forms; the column series
    # on every unipotent of SL(2, F_p) and every nilpotent of sl(2, F_p)
    # are the oracle
    m = Modulus(p, 1)
    unip, _ = _unipotents_in_code_order(p)
    elements, logs = _resunip_logs(_generated_by(p, SL2_GENERATORS).closure)
    assert [x.tolist() for x in elements] == [x.tolist() for x in unip]
    codes = np.arange(p**3)
    v = (codes // (p * p), codes // p % p, codes % p)
    nilp = tuple(x[residually_nilpotent_columns(vec_to_mat_columns(v, p), p)] for x in v)
    assert len(unip[0]) == len(nilp[0]) == p * p
    pairs = [
        (logs, mat_to_vec_columns(explog.log_extended_columns(unip, m), p)),
        (nori._exps(nilp, m), explog.exp_extended_columns(vec_to_mat_columns(nilp, p), m)),
    ]
    for closed, series in pairs:
        assert [x.tolist() for x in closed] == [x.tolist() for x in series]


def _series_exps(v, m):
    return explog.exp_extended_columns(vec_to_mat_columns(v, m.pN), m)


def _column(*entries):
    return tuple(np.array([x]) for x in entries)


def test_fp_closed_forms_refuse_what_the_series_refuse():
    m, m3 = Modulus(7, 1), Modulus(3, 1)
    nilpotent = (np.array([1, 0]), np.array([0, 0]), np.array([0, 1]))
    assert [tuple(map(int, e)) for e in zip(*nori._exps(nilpotent, m))] == [(1, 1, 0, 1), (1, 0, 1, 1)]
    # both reduce the residues they are given: (7, 0, 0) is the point 0
    for exps in (nori._exps, _series_exps):
        assert [x.tolist() for x in exps(_column(7, 0, 0), m)] == [[1], [0], [0], [1]]
        # not nilpotent mod 7; (0, -1, 0) is diag(-1, 1)
        for v in [(1, 0, 1), (0, 1, 0), (0, -1, 0)]:
            with pytest.raises(DomainViolation):
                exps(_column(*v), m)
        with pytest.raises(UnsupportedPrime):
            exps(nilpotent, m3)
    # the series refuse a torus element and p = 3; _resunip_logs masks the
    # residually unipotent elements of a closure, so it takes the log of
    # the torus element's group only at the identity, and refuses p = 3
    with pytest.raises(DomainViolation):
        explog.log_extended_columns(_column(2, 0, 0, 4), m)
    with pytest.raises(UnsupportedPrime):
        explog.log_extended_columns(_column(1, 1, 0, 1), m3)
    torus = _generated_by(7, [(2, 0, 0, 4)]).closure
    assert torus.order == 3
    assert [[x.tolist() for x in cols] for cols in _resunip_logs(torus)] == [
        [[1], [0], [0], [1]], [[0], [0], [0]]]
    with pytest.raises(UnsupportedPrime):
        _resunip_logs(_generated_by(3, [(1, 1, 0, 1)]).closure)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fp_round_trip_maps_match_truncated_series(p):
    # liec_bar and grpc_bar run the precision-N code at N = 1; the per-element
    # truncated log / exp over F_p is the oracle
    m = Modulus(p, 1)
    for H in enumerate_unipotent_generated(p):
        logs = [
            mat_to_vec(log_trunc(_mat(t, m)))
            for t in H.closure.iter_tuples()
            if residually_unipotent(_mat(t, m))
        ]
        assert liec_bar(H) == LieLattice.from_columns(logs, m)
    for L in enumerate_nilpotently_generated(p):
        pool = [
            exp_trunc(vec_to_mat(v, m))
            for v in L.iter_points()
            if residually_nilpotent(vec_to_mat(v, m))
        ]
        assert np.array_equal(grpc_bar(L).closure.codes, closure_of_pool(pool, m).codes)


def test_grpc_bar_needs_precision_one():
    with pytest.raises(PreconditionViolation):
        grpc_bar(LieLattice.from_columns([(1, 0, 0)], Modulus(5, 2)))


def test_fp_subgroup_needs_precision_one():
    # <[[1, 1], [0, 1]]> mod 25 has order 25: it is no subgroup of SL(2, F_5)
    closure = closure_of_generators([MatP.of([[1, 1], [0, 1]], Modulus(5, 2))])
    assert closure.order == 25
    with pytest.raises(PreconditionViolation):
        FpSubgroup(closure)
    assert FpSubgroup(closure_of_generators([MatP.of([[1, 1], [0, 1]], Modulus(5, 1))])).order == 5


def test_liec_bar_depends_only_on_h_plus():
    for H in enumerate_unipotent_generated(5):
        assert liec_bar(H).basis == liec_bar(h_plus(H)).basis
    # and on a mixed subgroup with a prime-to-p part
    borel = _generated_by(5, [(1, 1, 0, 1), (2, 0, 0, 3)])
    assert liec_bar(borel).basis == liec_bar(h_plus(borel)).basis


def test_liec_padic_examples():
    m = Modulus(5, 3)
    gens = list(reduction_kernel_generators(m, 1))
    assert liec_padic(gens).divisors == (1, 1, 1)

    u = MatP.of([[1, 1], [0, 1]], m)
    L = liec_padic([u])
    assert L.rank == 1 and L.adapted_basis[0] == (1, 0, 0)

    m2 = Modulus(5, 2)
    full_gens = [MatP.of([[1, 1], [0, 1]], m2), MatP.of([[1, 0], [1, 1]], m2)]
    assert liec_padic(full_gens).divisors == (0, 0, 0)

    # a closure carries its modulus
    m7 = Modulus(7, 2)
    u7 = MatP.of([[1, 1], [0, 1]], m7)
    assert liec_padic(closure_of_generators([u7])) == liec_padic([u7])
    assert liec_padic(closure_of_generators([u7])).modulus == m7


def test_liec_padic_agrees_with_log_image_on_pro_p():
    # for a pro-p input the span of logs is the log image itself
    from padiclie import exp_extended, log_extended, in_principal_congruence
    from padiclie.lattice import mat_to_vec, membership_mod

    m = Modulus(5, 3)
    gens = list(reduction_kernel_generators(m, 1))
    closure = closure_of_generators(gens)
    lat = liec_padic(closure)
    logs = set()
    for t in closure.iter_tuples():
        g = MatP.of([[t[0], t[1]], [t[2], t[3]]], m)
        logs.add(mat_to_vec(log_extended(g).matrix))
    assert len(logs) == lat.point_count()
    assert all(membership_mod(lat, v, m.N) for v in logs)


def test_grpc_padic_examples():
    m = Modulus(5, 3)
    assert grpc_padic(LieLattice.scaled_ambient(m, 1)).order == 5**6
    assert grpc_padic(LieLattice.from_columns([(1, 0, 0)], m)).order == 5**3
    # the diagonal line: only its p-multiples are residually nilpotent
    assert grpc_padic(LieLattice.from_columns([(0, 1, 0)], m)).order == 5**2


def test_grpc_padic_reduces_to_grpc_bar():
    m = Modulus(5, 2)
    for cols in ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        L = LieLattice.from_columns(cols, m)
        G = grpc_padic(L)
        reduced = {
            (a % 5, b % 5, c % 5, d % 5) for a, b, c, d in G.iter_tuples()
        }
        Lbar = LieLattice.from_columns([tuple(x % 5 for x in col) for col in cols], Modulus(5, 1))
        assert reduced == grpc_bar(Lbar).elements


def test_grpc_padic_stratum_stability_at_deeper_precision():
    m = Modulus(5, 4)
    G = grpc_padic(LieLattice.from_columns([(1, 0, 0)], m))
    assert G.order == 5**4  # full unitriangular mod 5^4


def test_roundtrip_padic_small_sample():
    m = Modulus(5, 3)
    rng = random.Random(99)
    samples = random_resunip_generator_sets(rng, m, 6)
    rep = roundtrip_check_padic(samples, m)
    assert rep.passed, rep.failures
    assert rep.checked >= 12


@pytest.mark.parametrize("gens_N, check_N", [(4, 3), (3, 4)])
def test_roundtrip_padic_refuses_generators_at_another_modulus(gens_N, check_N):
    gens = random_resunip_generator_sets(random.Random(99), Modulus(5, gens_N), 2)
    # the same sets pass at their own modulus
    assert roundtrip_check_padic(gens, Modulus(5, gens_N)).passed
    with pytest.raises(ModulusMismatch):
        roundtrip_check_padic(gens, Modulus(5, check_N))
    # a stray generator in a later sample is refused too
    fine = random_resunip_generator_sets(random.Random(98), Modulus(5, check_N), 1)
    with pytest.raises(ModulusMismatch):
        roundtrip_check_padic([*fine, [gens[0][0]]], Modulus(5, check_N))


def test_roundtrip_padic_borel_preimage():
    # the preimage of the unipotent radical under reduction is residually
    # unipotent generated; identities must hold on it
    m = Modulus(5, 3)
    u = MatP.of([[1, 1], [0, 1]], m)
    deep = list(reduction_kernel_generators(m, 1))
    rep = roundtrip_check_padic([[u, *deep]], m)
    assert rep.passed, rep.failures


# ---------------------------------------------------------------------------
# The membership certificate against the closure it replaces
# ---------------------------------------------------------------------------


def test_certificate_matches_grpc_padic():
    samples, _ = _seeded_padic_sets()
    closures = [closure_of_generators(gens) for gens in samples]
    for gens in random_resunip_generator_sets(random.Random(41), Modulus(5, 4), 8):
        try:  # the cap keeps the test quick
            closures.append(closure_of_generators(gens, cap=20_000))
        except ClosureBudgetExceeded:
            continue
    assert len(closures) >= 54
    for closure in closures:
        h = liec_padic(closure)
        assert nori._exp_generates(closure, h)
        assert np.array_equal(grpc_padic(h).codes, closure.codes)


def test_roundtrip_padic_report_equals_closing_path(monkeypatch):
    samples, m = _seeded_padic_sets()
    certified = roundtrip_check_padic(samples, m).to_json()
    monkeypatch.setattr(nori, "_exp_generates", lambda H, h: False)
    assert roundtrip_check_padic(samples, m).to_json() == certified


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_certificate_matches_grpc_bar(p):
    for H in enumerate_unipotent_generated(p):
        L = liec_bar(H)
        assert nori._exp_generates(H.closure, L)
        assert np.array_equal(grpc_bar(L).closure.codes, H.closure.codes)


def test_certificate_declines_a_point_whose_exponential_leaves_h():
    # the generator's logarithm lies in sl2 too, but exp of other points of
    # sl2 lies outside the cyclic group
    for m in (Modulus(5, 1), Modulus(5, 3)):
        H = closure_of_generators([MatP.of([[1, 1], [0, 1]], m)])
        assert nori._exp_generates(H, liec_padic(H))
        assert not nori._exp_generates(H, LieLattice.scaled_ambient(m, 0))


def test_certificate_declines_a_logarithm_that_exp_does_not_invert(monkeypatch):
    # log(g^2) = 2 log g lies in h as log g does, but its exp is g^2, not g
    m = Modulus(5, 3)
    H = closure_of_generators([MatP.of([[1, 1], [0, 1]], m)])
    h = liec_padic(H)
    monkeypatch.setattr(nori, "log_extended", lambda g: log_extended(g.power(2)))
    assert not nori._exp_generates(H, h)


def test_certificate_declines_a_generator_that_is_not_residually_unipotent(monkeypatch):
    m = Modulus(5, 3)
    gens = [MatP.of([[1, 1], [0, 1]], m), MatP.of([[2, 0], [0, pow(2, -1, m.pN)]], m)]
    closure = closure_of_generators(gens)
    assert closure.order == 12_500
    assert not nori._exp_generates(closure, liec_padic(closure))
    calls = _counting(monkeypatch, "grpc_padic")
    rep = roundtrip_check_padic([gens], m)
    assert len(calls) == 1
    assert rep.to_json() == {
        "p": 5,
        "subgroup_count": 1,
        "algebra_count": 0,
        "failures": [],
        "anomalies": [],
        "checked": 2,
    }


# ---------------------------------------------------------------------------
# grpc_padic against its definition at every precision
# ---------------------------------------------------------------------------


def _grpc_oracle(h, cap):
    """The closure of exp of every residually nilpotent point of h."""
    m = h.modulus
    mats = vec_to_mat_columns(h.point_columns(), m.pN)
    keep = residually_nilpotent_columns(mats, m.p)
    pool = explog.exp_extended_columns(tuple(x[keep] for x in mats), m)
    return SubgroupClosure.trivial(m).extend_by_pool(pool, cap=cap)


def test_grpc_padic_cyclic_example_at_precision_four():
    # the points of h mod 5^3 have lifts outside h mod 5^4, whose
    # exponentials generate a group of order 15,625
    m = Modulus(5, 4)
    g = MatP.of([[260, 503], [473, 367]], m)
    closure = closure_of_generators([g])
    assert closure.order == 625
    h = liec_padic(closure)
    assert h.divisors == (0, 4, 4)
    assert np.array_equal(grpc_padic(h).codes, closure.codes)
    rep = roundtrip_check_padic([[g]], m)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("N", [4, 5, 6])
def test_roundtrip_padic_beyond_precision_three(N):
    m = Modulus(5, N)
    checked = 0
    for gens in random_resunip_generator_sets(random.Random(400 + N), m, 8):
        try:  # the cap keeps the test quick
            closure_of_generators(gens, cap=100_000)
        except ClosureBudgetExceeded:
            continue
        rep = roundtrip_check_padic([gens], m)
        assert rep.passed, rep.failures
        checked += 1
    assert checked >= 4


@st.composite
def _small_liec_lattices(draw):
    m = Modulus(*draw(st.sampled_from([(5, 4), (7, 4), (5, 5), (5, 6), (7, 3)])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = random_resunip_generator_sets(rng, m, 1)[0]
    try:
        closure = closure_of_generators(gens, cap=100_000)
    except ClosureBudgetExceeded:
        assume(False)
    h = liec_padic(closure)
    assume(h.point_count() <= 20_000)
    return h


@settings(max_examples=25, deadline=None)
@given(_small_liec_lattices())
def test_grpc_padic_matches_definition(h):
    group = grpc_padic(h)
    assert np.array_equal(group.codes, _grpc_oracle(h, 10**6).codes)


# ---------------------------------------------------------------------------
# Column paths against per-element computations
# ---------------------------------------------------------------------------


def _mat(t, m):
    return MatP.of([[t[0], t[1]], [t[2], t[3]]], m)


def _scalar_liec(closure, m):
    """The greedy span of liec_padic, one element at a time."""
    span, lattice = [], LieLattice.from_columns([], m)
    for t in closure.iter_tuples():
        g = _mat(t, m)
        if residually_unipotent(g):
            v = mat_to_vec(log_extended(g).matrix)
            if not membership_mod(lattice, v, m.N):
                span.append(v)
                lattice = LieLattice.from_columns(span, m)
    return lattice


def _scalar_stratum(L):
    p, N = L.modulus.p, L.modulus.N
    q = L.modulus.pN
    ranges = [range(p if d == 0 else 1) for d in L.divisors if d < N]
    out = []
    for ts in product(*ranges):
        v = (0, 0, 0)
        for t, g in zip(ts, L.generators):
            v = vec_add(v, vec_scale(t, g, q), q)
        if (v[1] * v[1] + v[0] * v[2]) % p == 0:
            out.append(v)
    return out


def _scalar_grpc(L):
    m = L.modulus
    pool = [*_scalar_stratum(L), *L.intersect_scaled_ambient(1).generators]
    return closure_of_pool([exp_extended(vec_to_mat(v, m)).matrix for v in pool], m)


def _rows(cols):
    return list(zip(*(x.tolist() for x in cols)))


@pytest.mark.parametrize("pN", [(5, 3), (5, 4), (7, 3)])
def test_padic_column_paths_match_per_element(pN, monkeypatch):
    # small blocks, so every closure spans several
    monkeypatch.setattr(explog, "_BLOCK_ELEMENTS", 64)
    m = Modulus(*pN)
    sets = random_resunip_generator_sets(random.Random(31), m, 12)
    checked = 0
    for gens in sets:
        try:  # the cap keeps the per-element side quick
            closure = closure_of_generators(gens, cap=20_000)
        except ClosureBudgetExceeded:
            continue
        h = liec_padic(closure)
        oracle = _scalar_liec(closure, m)
        assert (h.divisors, h.adapted_basis, h.adapted_inverse) == (
            oracle.divisors, oracle.adapted_basis, oracle.adapted_inverse)

        assert _rows(resnilp_stratum(h)) == _scalar_stratum(h)
        try:
            group = grpc_padic(h)
        except ClosureBudgetExceeded:
            # the group of a deep lattice can pass the cap
            with pytest.raises(ClosureBudgetExceeded):
                _scalar_grpc(h)
        else:
            expected = _scalar_grpc(h)
            assert np.array_equal(group.codes, expected.codes)
            assert group.generators == expected.generators

        logs = [
            mat_to_vec(log_extended(_mat(t, m)).matrix)
            for t in closure.iter_tuples()
            if in_principal_congruence(_mat(t, m), 1)
        ]
        # the round trip's logs of H cap K(p): the shared pass over H_resunip, masked
        resunip, resunip_logs = _resunip_logs(closure)
        kernel = in_principal_congruence_columns(resunip, m.p)
        assert _rows(tuple(x[kernel] for x in resunip_logs)) == logs
        checked += 1
    assert checked >= 6


def test_roundtrip_padic_on_python_int_codes():
    # q^4 > 2^62 at (5, 7): closure codes are Python integers
    m = Modulus(5, 7)
    u = MatP.of([[1, 1], [0, 1]], m)
    closure = closure_of_generators([u])
    assert closure.codes.dtype == object and closure.order == 5**7
    h = liec_padic(closure)
    assert h.divisors == (0, 7, 7)
    group = grpc_padic(h)
    assert group.codes.dtype == object
    assert np.array_equal(group.codes, _scalar_grpc(h).codes)
    rep = roundtrip_check_padic([[u]], m)
    assert rep.passed, rep.failures
    assert rep.checked == 2
