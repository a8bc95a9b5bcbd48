import random

import pytest

from padiclie import (
    LieLattice,
    MatP,
    Modulus,
    annihilator_of_plane,
    approximate_sl2,
    closure_of_generators,
    exp_congruence,
    group_certificate,
    is_subalgebra_mod,
    lattice_level,
    lift_quadric,
    log_congruence,
    membership_mod,
    optimality_search,
    quadric_residual,
    select_r,
    trace_pairing_row,
    worst_case_subalgebra,
)
from padiclie.approx import _canonical_row, _projective_triples, _row_lattice
from padiclie.errors import (
    ClosureBudgetExceeded,
    DegenerateSpan,
    NotSurjective,
    PreconditionViolation,
)
from padiclie.lattice import BASIS, mat_to_vec, vec_scale, vec_to_mat
from padiclie.sampling import random_exact_subalgebra
from padiclie.core import random_congruence_element, random_sl2, reduction_kernel_generators


def test_select_r_examples():
    assert select_r((0, 0, 4)) == (2, 2)
    assert select_r((2, 2, 2)) == (0, 1)
    assert select_r((0, 1, 3)) == (1, 1)


def test_select_r_rejects_level_zero():
    with pytest.raises(PreconditionViolation):
        select_r((0, 0, 0))


@pytest.mark.parametrize("pN", [(3, 4), (5, 3), (7, 2)])
def test_trace_pairing_row_matches_paper_notation(pN):
    # the row (A, B, C) = (c3, 2 c1, c2) is x -> tr(c x) for the matrix
    # c = [[c1, c2], [c3, -c1]], and its residual is (2 c1)^2 + 4 c2 c3
    m = Modulus(*pN)
    q = m.pN
    rng = random.Random(40 + m.p)
    for _ in range(30):
        c1, c2, c3 = c = tuple(rng.randrange(q) for _ in range(3))
        x = tuple(rng.randrange(q) for _ in range(3))
        row = trace_pairing_row(c)
        cmat = MatP.of([[c1, c2], [c3, -c1]], m)
        assert sum(r * v for r, v in zip(row, x)) % q == (cmat @ vec_to_mat(x, m)).trace()
        assert quadric_residual(row, m) == ((2 * c1) ** 2 + 4 * c2 * c3) % q


def test_annihilator_of_plane_examples():
    m = Modulus(5, 4)
    e, h, f = BASIS
    # the Borel plane is killed by a pure C = c2 functional
    borel = annihilator_of_plane(e, h, m)
    assert borel == (0, 0, 1)
    assert quadric_residual(borel, m) == 0

    # the plane of e and f is killed by a pure B = 2 c1 functional
    assert annihilator_of_plane(e, f, m) == (0, 1, 0)

    with pytest.raises(DegenerateSpan):
        annihilator_of_plane(e, vec_scale(6, e, m.pN), m)
    assert annihilator_of_plane(e, h, Modulus(2, 4)) == (0, 0, 1)


def test_annihilator_random_pairs_kill_their_plane():
    rng = random.Random(10)
    for p in (3, 5, 7, 2):
        m = Modulus(p, 5)
        q = m.pN
        done = 0
        while done < 40:
            x1 = tuple(rng.randrange(q) for _ in range(3))
            x2 = tuple(rng.randrange(q) for _ in range(3))
            try:
                row = annihilator_of_plane(x1, x2, m)
            except DegenerateSpan:
                continue
            assert any(r % p for r in row)
            for x in (x1, x2):
                assert sum(r * v for r, v in zip(row, x)) % q == 0
            done += 1


def test_quadric_residual_examples():
    m = Modulus(3, 4)
    assert quadric_residual((-1, 2, 1), m) == 0
    assert quadric_residual((0, 2, 0), m) == 4
    assert quadric_residual((0, 0, 1), m) == 0


def test_lift_quadric_examples():
    m = Modulus(5, 4)
    row = trace_pairing_row((1, 1, 4))
    assert quadric_residual(row, m) % 5 == 0
    lifted = lift_quadric(row, 1, m)
    assert quadric_residual(lifted, m) == 0
    assert all((a - b) % 5 == 0 for a, b in zip(lifted, row))
    assert lifted == _canonical_row(trace_pairing_row((1, 1, -1)), m)

    exact = trace_pairing_row((0, 1, 0))
    assert lift_quadric(exact, 2, m) == exact


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lift_quadric_random(p):
    rng = random.Random(20 + p)
    m = Modulus(p, 6)
    q = m.pN
    done = 0
    while done < 70:
        mm = rng.choice((1, 2, 3))
        # fabricate an on-quadric-mod-p^mm point: pick c1, c2 unit, solve c3
        c1 = rng.randrange(q)
        c2 = 1 + p * rng.randrange(q // p)
        c3_exact = (-c1 * c1 * pow(c2, -1, q)) % q
        c3 = (c3_exact + p**mm * rng.randrange(q // p**mm)) % q
        row = _canonical_row(trace_pairing_row((c1, c2, c3)), m)
        lifted = lift_quadric(row, mm, m)
        assert quadric_residual(lifted, m) == 0
        assert all((a - b) % p**mm == 0 for a, b in zip(lifted, row))
        # one more lift is the identity (the step is its own fixed point)
        assert lift_quadric(lifted, mm, m) == lifted
        done += 1


def _borel_deep_f(modulus, n):
    return LieLattice.from_columns(
        [(0, 1, 0), (1, 0, 0), vec_scale(modulus.p**n, (0, 0, 1), modulus.pN)], modulus
    )


def test_approximate_borel_deep_f():
    m = Modulus(3, 7)
    M = _borel_deep_f(m, 4)
    res = approximate_sl2(M)
    assert res.branch == "rank2-lifted"
    assert res.m == 4
    assert res.m >= 2
    # the approximant is the Borel itself here
    assert membership_mod(res.subalgebra, (1, 0, 0), m.N)
    assert membership_mod(res.subalgebra, (0, 1, 0), m.N)


def test_approximate_scaled_ambient():
    m = Modulus(5, 6)
    for n in (1, 2, 3, 4):
        M = LieLattice.scaled_ambient(m, n)
        res = approximate_sl2(M)
        assert res.branch == "rank1"
        assert res.m == n


def test_approximate_rejects_non_subalgebras_and_shallow_precision():
    m = Modulus(3, 6)
    ef = LieLattice.from_columns(
        [(1, 0, 0), (0, 0, 1), vec_scale(27, (0, 1, 0), m.pN)], m
    )
    with pytest.raises(DegenerateSpan):
        approximate_sl2(ef)
    deep = LieLattice.scaled_ambient(Modulus(3, 4), 3)
    with pytest.raises(Exception):
        approximate_sl2(deep)  # N = 4 < n + 2 = 5


@pytest.mark.parametrize("p", [3, 5, 7])
def test_approximate_structured_and_random_families(p):
    rng = random.Random(30 + p)
    for n in range(1, 5):
        N = n + 2
        m = Modulus(p, N)
        for a in range(0, n + 1):
            cols = [
                (0, 1, 0),
                vec_scale(p**a, (1, 0, 0), m.pN),
                vec_scale(p**n, (0, 0, 1), m.pN),
            ]
            M = LieLattice.from_columns(cols, m)
            res = approximate_sl2(M)
            assert res.m >= -(n // -2)
        for _ in range(15):
            M = random_exact_subalgebra(rng, p, n, N)
            assert lattice_level(M) == n
            res = approximate_sl2(M)
            assert res.m >= -(n // -2)
            assert res.subalgebra.saturated() == res.subalgebra


def test_worst_case_examples():
    m = Modulus(3, 7)
    W = worst_case_subalgebra(m, 4, trace_pairing_row((1, 0, 0)))
    assert lattice_level(W) == 4
    assert W.divisors == (2, 2, 4)
    assert is_subalgebra_mod(W, m.N - 1)

    W2 = worst_case_subalgebra(m, 4, (1, 0, 0))
    assert lattice_level(W2) == 4
    # the kernel of the e-coordinate contains h and f at depth p^2
    assert membership_mod(W2, vec_scale(9, (0, 1, 0), m.pN), m.N)
    assert membership_mod(W2, vec_scale(9, (0, 0, 1), m.pN), m.N)

    m2 = Modulus(5, 4)
    W3 = worst_case_subalgebra(m2, 2, trace_pairing_row((1, 0, 0)))
    assert W3.divisors == (1, 1, 2)

    with pytest.raises(NotSurjective):
        worst_case_subalgebra(m, 4, (3, 9, 27))
    with pytest.raises(PreconditionViolation):
        worst_case_subalgebra(m, 3, (1, 0, 0))


def test_optimality_search_examples():
    m = Modulus(3, 7)
    borel = LieLattice.from_columns([(0, 1, 0), (1, 0, 0)], m)
    padded = LieLattice.from_columns(
        list(borel.generators) + [vec_scale(3**4, (0, 0, 1), m.pN)], m
    )
    for depth in (1, 2, 3):
        found, witness = optimality_search(padded, depth)
        assert found and witness["kind"] in ("rank1", "rank2")

    W = worst_case_subalgebra(m, 4, trace_pairing_row((1, 0, 0)))
    found3, _ = optimality_search(W, 3)
    assert not found3
    found2, witness2 = optimality_search(W, 2)
    assert found2


def test_projective_triples_cover_classes_once():
    from padiclie.approx import projective_point_count

    for p, mm in ((3, 1), (3, 2), (5, 1)):
        triples = list(_projective_triples(p, mm))
        assert len(triples) == projective_point_count(p, mm)
        q = p**mm
        seen = set()
        for t in triples:
            canon = []
            for u in range(1, q):
                if u % p:
                    canon.append(tuple((u * x) % q for x in t))
            key = min(canon)
            assert key not in seen
            seen.add(key)


def test_group_certificate_examples():
    m = Modulus(3, 6)
    borel = LieLattice.from_columns([(0, 1, 0), (1, 0, 0)], m)
    gens = [exp_congruence(vec_to_mat(vec_scale(3, v, m.pN), m)) for v in ((0, 1, 0), (1, 0, 0))]
    assert group_certificate(gens, borel, 4)

    # the reduction kernel at depth n passes against anything proper at m <= n
    deep_gens = reduction_kernel_generators(m, 3)
    anything = LieLattice.from_columns([(0, 0, 1)], m)
    assert group_certificate(deep_gens, anything, 3)
    assert not group_certificate(deep_gens, anything, 4)


def test_group_certificate_rejects_elements_not_trivial_mod_p():
    m = Modulus(5, 3)
    I = LieLattice.from_columns([(1, 0, 0)], m)
    gens = [MatP.of([[1, 1], [0, 1]], m)]
    with pytest.raises(PreconditionViolation):
        group_certificate(gens, I, 1)
    with pytest.raises(PreconditionViolation):
        group_certificate(closure_of_generators(gens), I, 1)
    # generators or a closure at another modulus than the lattice's
    deep = reduction_kernel_generators(Modulus(5, 4), 2)
    deep_closure = closure_of_generators(deep)
    for mm in range(3):
        with pytest.raises(PreconditionViolation):
            group_certificate(deep, I, mm)
        with pytest.raises(PreconditionViolation):
            group_certificate(deep_closure, I, mm)


def _group_certificate_oracle(closure, I, m):
    """The certificate one element at a time: log h in p I + p^m sl2."""
    modulus = I.modulus
    target = I.scaled(1).plus_scaled_ambient(m)
    for t in closure.iter_tuples():
        logm = log_congruence(MatP.of([t[:2], t[2:]], modulus))
        if not membership_mod(target, mat_to_vec(logm), modulus.N):
            return False
    return True


@pytest.mark.parametrize("pN", [(3, 4), (5, 3), (7, 3)])
def test_group_certificate_matches_per_element(pN):
    m = Modulus(*pN)
    rng = random.Random(73 + m.p)
    verdicts = []
    for _ in range(6):
        gens = [random_congruence_element(rng, m, 1), random_congruence_element(rng, m, 2)]
        try:  # the cap keeps the per-element side quick
            closure = closure_of_generators(gens, cap=3_000)
        except ClosureBudgetExceeded:
            continue
        v, w = (mat_to_vec(log_congruence(g)) for g in gens)
        candidates = [
            LieLattice.from_columns([v], m).saturated(),
            LieLattice.from_columns([v, w], m).saturated(),
            LieLattice.from_columns([tuple(rng.randrange(m.pN) for _ in range(3))], m).saturated(),
        ]
        for I in candidates:
            for depth in range(m.N):
                verdict = group_certificate(closure, I, depth)
                assert verdict == _group_certificate_oracle(closure, I, depth)
                assert group_certificate(gens, I, depth) == verdict
                verdicts.append(verdict)
    assert len(verdicts) >= 36
    assert True in verdicts and False in verdicts


def test_group_certificate_worst_case_all_candidates():
    # At p = 3, n = 4, H = closure of exp(p * W) (a uniform group, so its
    # logarithm set is exactly p * W): the certificate condition
    # log H inside p I + p^m sl2 unwinds to W inside I + p^{m-1} sl2, so the
    # lattice-level exponents (deep containment at 2, refutation at 3) show
    # up at certificate depths 3 and 4.
    m = Modulus(3, 6)
    W = worst_case_subalgebra(m, 4, trace_pairing_row((1, 0, 0)))
    res = approximate_sl2(W)
    assert res.m == 2
    gens = [exp_congruence(vec_to_mat(vec_scale(3, g, m.pN), m)) for g in W.generators]
    closure = closure_of_generators(gens)
    assert group_certificate(closure, res.subalgebra, res.m + 1)

    # no proper isolated candidate certifies one level deeper; candidates
    # mod p^3 are complete because the condition only reads I mod p^3
    depth = res.m + 2
    q_cand = 3 ** (depth - 1)
    for v in _projective_triples(3, depth - 1):
        candidate = LieLattice.from_columns([v], m).saturated()
        assert not group_certificate(closure, candidate, depth)
    for c in _projective_triples(3, depth - 1):
        row = trace_pairing_row(c)
        if quadric_residual(row, m) % q_cand != 0:
            continue
        candidate = _row_lattice(row, m)
        assert not group_certificate(closure, candidate, depth)


def test_approximate_p2_runs_without_a_flag():
    m = Modulus(2, 8)
    M = LieLattice.from_columns(
        [(0, 1, 0), (2, 0, 0), vec_scale(2**4, (0, 0, 1), m.pN)], m
    )
    res = approximate_sl2(M)
    assert res.m >= -(4 // -2) - 1
    for g in M.generators:
        assert membership_mod(res.subalgebra, g, res.m)
