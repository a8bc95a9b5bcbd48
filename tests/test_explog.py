import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclie import (
    MatP,
    Modulus,
    NilpotentResidue,
    closure_of_generators,
    exp_congruence,
    exp_congruence_classes,
    exp_extended,
    exp_trunc,
    log_congruence,
    log_extended,
    log_trunc,
)
from padiclie import explog
from padiclie.errors import DomainViolation, UnsupportedPrime
from padiclie.explog import (
    _congruence_cutoff,
    _exp_series,
    _exp_series_columns,
    _log_series,
    _log_series_columns,
    _resnilp_cutoff,
    borel_coset_witness,
    exp_extended_columns,
    log_extended_columns,
)
from padiclie.lattice import mat_to_vec, vec_to_mat
from padiclie.sampling import (
    random_congruence_domain_matrix,
    random_resnilp_matrix,
    random_resunip_element,
    random_resunip_generator_sets,
)
from padiclie.core import random_congruence_element, random_sl2


def test_exp_congruence_examples():
    m = Modulus(5, 4)
    e_scaled = MatP.of([[0, 5], [0, 0]], m)
    assert exp_congruence(e_scaled) == MatP.of([[1, 5], [0, 1]], m)
    assert exp_congruence(MatP.zero(m)) == MatP.identity(m)
    m2 = Modulus(3, 2)
    h_scaled = MatP.of([[3, 0], [0, -3]], m2)
    assert exp_congruence(h_scaled) == MatP.of([[4, 0], [0, 7]], m2)


def test_log_congruence_examples():
    m = Modulus(7, 5)
    assert log_congruence(MatP.of([[1, 7], [0, 1]], m)) == MatP.of([[0, 7], [0, 0]], m)
    assert log_congruence(MatP.identity(m)) == MatP.zero(m)


def test_domain_violations():
    m = Modulus(3, 4)
    with pytest.raises(DomainViolation):
        exp_congruence(MatP.of([[0, 1], [0, 0]], m))
    with pytest.raises(DomainViolation):
        log_congruence(MatP.of([[2, 0], [0, 2]], m))
    m2 = Modulus(2, 5)
    with pytest.raises(DomainViolation):
        exp_congruence(MatP.of([[0, 2], [0, 0]], m2))  # p = 2 needs valuation 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_congruence_round_trip(p):
    rng = random.Random(100 + p)
    m = Modulus(p, 6)
    for _ in range(60):
        x = random_congruence_domain_matrix(rng, m)
        assert log_congruence(exp_congruence(x)) == x
        g = exp_congruence(x)
        assert exp_congruence(log_congruence(g)) == g


def test_congruence_round_trip_p2():
    rng = random.Random(2)
    m = Modulus(2, 6)
    for _ in range(40):
        x = random_congruence_domain_matrix(rng, m)
        assert log_congruence(exp_congruence(x)) == x


def test_extended_examples_and_floor():
    m = Modulus(5, 4)
    e = MatP.of([[0, 1], [0, 0]], m)
    assert exp_extended(e).matrix == MatP.of([[1, 1], [0, 1]], m)
    with pytest.raises(UnsupportedPrime):
        exp_extended(MatP.of([[0, 1], [0, 0]], Modulus(3, 4)))
    with pytest.raises(DomainViolation):
        exp_extended(MatP.of([[1, 0], [0, 1]], m))
    with pytest.raises(DomainViolation):
        NilpotentResidue(MatP.of([[1, 0], [0, 1]], m))


@pytest.mark.parametrize("p", [5, 7])
def test_extended_round_trip(p):
    rng = random.Random(200 + p)
    m = Modulus(p, 4)
    for _ in range(100):
        x = random_resnilp_matrix(rng, m)
        assert log_extended(exp_extended(x).matrix).matrix == x


@pytest.mark.parametrize("p", [5, 7])
def test_reduction_commutes_with_truncated_maps(p):
    rng = random.Random(300 + p)
    m = Modulus(p, 4)
    for _ in range(100):
        x = random_resnilp_matrix(rng, m)
        lhs = exp_extended(x).matrix.reduce(1)
        rhs = exp_trunc(x.reduce(1))
        assert lhs == rhs
        g = exp_extended(x).matrix
        assert log_extended(g).matrix.reduce(1) == log_trunc(g.reduce(1))


def test_trunc_examples():
    m = Modulus(5, 1)
    e = MatP.of([[0, 1], [0, 0]], m)
    assert exp_trunc(e) == MatP.of([[1, 1], [0, 1]], m)
    for t in range(5):
        u = MatP.of([[1, t], [0, 1]], m)
        assert log_trunc(u) == MatP.of([[0, t], [0, 0]], m)


def test_trunc_round_trip_exhaustive_f7():
    m = Modulus(7, 1)
    nilpotents = []
    for a in range(7):
        for b in range(7):
            for c in range(7):
                if (b * b + a * c) % 7 == 0:  # (a, b, c) on (e, h, f)
                    nilpotents.append(vec_to_mat((a, b, c), m))
    assert len(nilpotents) == 49  # the nilpotent cone of sl(2, F_7), zero included
    for x in nilpotents:
        assert log_trunc(exp_trunc(x)) == x
        u = exp_trunc(x)
        assert exp_trunc(log_trunc(u)) == u


def test_congruence_classes_examples():
    m = Modulus(3, 5)
    e3 = MatP.of([[0, 3], [0, 0]], m)
    for n in (2, 3):
        f_deep = MatP.of([[0, 0], [3**n, 0]], m)
        assert exp_congruence_classes(e3 + f_deep, n) == exp_congruence_classes(e3, n)
    # exp(x) = 1 + x mod p^2 on the p-domain
    rng = random.Random(5)
    for _ in range(30):
        x = random_congruence_domain_matrix(rng, m)
        assert exp_congruence(x).reduce(2) == (MatP.identity(m) + x).reduce(2)


@pytest.mark.parametrize("p", [3, 5])
def test_congruence_classes_well_defined(p):
    rng = random.Random(400 + p)
    m = Modulus(p, 5)
    for _ in range(50):
        x = random_congruence_domain_matrix(rng, m)
        n = rng.choice((2, 3))
        pn = p**n
        y = MatP.of([[pn * rng.randrange(m.pN // pn) for _ in range(2)] for _ in range(2)], m)
        assert exp_congruence_classes(x + y, n) == exp_congruence_classes(x, n)


def _traceless_pairs(modulus, n, coords):
    """All exp images of the span of the given sl2 directions at depth n."""
    p, N = modulus.p, modulus.N
    span = p ** (N - n)
    out = set()
    from itertools import product

    for ts in product(range(span), repeat=len(coords)):
        v = [0, 0, 0]
        for t, i in zip(ts, coords):
            v[i] = (t * p**n) % modulus.pN
        g = exp_congruence(vec_to_mat(tuple(v), modulus))
        out.add(g.rows)
    return out


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_exp_maps_torus_and_borel_onto_their_congruence_parts(p, n):
    m = Modulus(p, 4)
    q = m.pN
    pn = p**n

    torus_image = _traceless_pairs(m, n, [1])  # the h direction
    torus_group = set()
    for a in range(q):
        if (a - 1) % pn == 0:
            torus_group.add(((a, 0), (0, pow(a, -1, q))))
    assert torus_image == torus_group

    borel_image = _traceless_pairs(m, n, [1, 0])  # h and e directions
    borel_group = set()
    for a in range(q):
        if (a - 1) % pn != 0:
            continue
        for b in range(0, q, pn):
            borel_group.add(((a, b), (0, pow(a, -1, q))))
    assert borel_image == borel_group


def test_homomorphy_on_commuting_elements():
    rng = random.Random(6)
    for p in (3, 5):
        m = Modulus(p, 5)
        for _ in range(40):
            x = random_congruence_domain_matrix(rng, m)
            t = rng.randrange(m.pN)
            y = x.scale(t)
            assert exp_congruence(x + y) == exp_congruence(x) @ exp_congruence(y)


def test_power_lifting_against_borel_product():
    # h^p inside (Borel cap K(p)) K(p^m) forces h inside (Borel cap K) K(p^{m-1})
    rng = random.Random(7)
    for p in (5, 7):
        m = Modulus(p, 4)
        hits = 0
        for trial in range(120):
            if trial % 3 == 0:
                # constructed positive: upper-triangular times a deep element
                a = 1 + p * rng.randrange(m.pN // p)
                b = rng.randrange(m.pN)
                btri = MatP.of([[a, b], [0, pow(a, -1, m.pN)]], m)
                depth = rng.randrange(2, m.N)
                h = btri @ random_congruence_element(rng, m, depth)
            else:
                h = random_sl2(rng, m)
            hp = h.power(p)
            for mm in range(2, m.N + 1):
                if borel_coset_witness(hp, mm, congruence_part=True) is not None:
                    hits += 1
                    assert borel_coset_witness(h, mm - 1, congruence_part=False) is not None
        assert hits > 40  # the sample must actually exercise the hypothesis


def test_roundtrip_precision_is_full():
    # no digits are lost: the round trip already holds at the top precision
    rng = random.Random(8)
    m = Modulus(7, 6)
    for _ in range(30):
        x = random_resnilp_matrix(rng, m)
        assert log_extended(exp_extended(x).matrix).matrix == x  # equality mod p^N exactly


# ---------------------------------------------------------------------------
# Column kernels against the scalar series
# ---------------------------------------------------------------------------

_COLUMN_MODULI = [(5, 2), (5, 3), (5, 4), (7, 3), (11, 2), (5, 14)]


def _columns(tuples):
    return tuple(np.array(col, dtype=object) for col in zip(*tuples))


def _tuples(cols):
    return list(zip(*(x.tolist() for x in cols)))


def _scalar(series, t, m, cutoff):
    """The scalar series on one (a, b, c, d), as a tuple."""
    return series(MatP.of([t[:2], t[2:]], m), cutoff).as_tuple()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_COLUMN_MODULI), st.integers(1, 70), st.integers(0, 2**32))
def test_exp_log_columns_match_scalar_series(pN, count, seed):
    p, N = pN
    m = Modulus(p, N)
    rng = random.Random(seed)
    cutoff = _resnilp_cutoff(p, N)
    xs = [random_resnilp_matrix(rng, m).as_tuple() for _ in range(count)]
    gs = [random_resunip_element(rng, m).as_tuple() for _ in range(count)]
    with mock.patch.object(explog, "_BLOCK_ELEMENTS", 16):  # several blocks
        exps = exp_extended_columns(_columns(xs), m)
        logs = log_extended_columns(_columns(gs), m)
    assert _tuples(exps) == [_scalar(_exp_series, x, m, cutoff) for x in xs]
    assert _tuples(logs) == [_scalar(_log_series, g, m, cutoff) for g in gs]
    # 2 p^(2W) >= 2^62 at (5, 14): the kernels must run on Python integers
    assert (exps[0].dtype == object) == ((p, N) == (5, 14))


@pytest.mark.parametrize("pN", [(5, 3), (7, 4), (5, 14)])
def test_column_kernels_reject_one_out_of_domain_column(pN, monkeypatch):
    monkeypatch.setattr(explog, "_BLOCK_ELEMENTS", 16)  # the bad column is in one of three
    p, N = pN
    m = Modulus(p, N)
    rng = random.Random(17)
    cutoff = _resnilp_cutoff(p, N)
    xs = [random_resnilp_matrix(rng, m).as_tuple() for _ in range(40)]
    gs = [random_resunip_element(rng, m).as_tuple() for _ in range(40)]
    # h = diag(1, -1) is not residually nilpotent, and its p-th power term
    # is not divisible by p; diag(2, 2^-1) is not residually unipotent
    bad_x = (1, 0, 0, m.pN - 1)
    bad_g = (2, 0, 0, pow(2, -1, m.pN))
    with pytest.raises(DomainViolation):
        _scalar(_exp_series, bad_x, m, cutoff)
    at = rng.randrange(41)
    with pytest.raises(DomainViolation):
        _exp_series_columns(_columns(xs[:at] + [bad_x] + xs[at:]), p, N, cutoff)
    with pytest.raises(DomainViolation):
        exp_extended_columns(_columns(xs[:at] + [bad_x] + xs[at:]), m)
    with pytest.raises(DomainViolation):
        log_extended_columns(_columns(gs[:at] + [bad_g] + gs[at:]), m)
    # the same blocks without the bad column pass
    assert _tuples(_exp_series_columns(_columns(xs), p, N, cutoff)) == [
        _scalar(_exp_series, x, m, cutoff) for x in xs
    ]


@pytest.mark.parametrize("pN", [(3, 4), (5, 3), (7, 3), (3, 20)])
def test_log_columns_at_the_congruence_cutoff_match_scalar_series(pN, monkeypatch):
    # the path group_certificate runs: K(p) elements at the congruence cutoff
    monkeypatch.setattr(explog, "_BLOCK_ELEMENTS", 16)
    p, N = pN
    m = Modulus(p, N)
    rng = random.Random(23)
    cutoff = _congruence_cutoff(p, N, m.eps_p)
    gs = [random_congruence_element(rng, m, rng.randrange(1, N + 1)).as_tuple() for _ in range(60)]
    gs.append((1, 0, 0, 1))
    logs = _log_series_columns(_columns(gs), p, N, cutoff)
    assert _tuples(logs) == [_scalar(_log_series, g, m, cutoff) for g in gs]
    # 2 p^(2W) >= 2^62 at (3, 20): the kernel must run on Python integers
    assert (logs[0].dtype == object) == ((p, N) == (3, 20))


def _pair_count(cols, pW):
    a, b, c, d = (np.asarray(x, dtype=object) for x in cols)
    return len({(t % pW, s % pW) for t, s in zip(a + d, a * d - b * c)})


def test_columns_on_a_closure_with_repeated_pairs_match_scalar_series():
    # a 5^5 criterion-5 closure: 3,125 elements, 49 distinct (trace, det) of g - 1
    m = Modulus(5, 3)
    sets = random_resunip_generator_sets(random.Random(20260810), m, 50)
    closure = next(c for c in map(closure_of_generators, sets) if c.order == 5**5)
    gs = list(closure.iter_tuples())
    cutoff = _resnilp_cutoff(5, 3)
    a, b, c, d = _columns(gs)
    assert _pair_count((a - 1, b, c, d - 1), 5**4) == 49
    logs = log_extended_columns(closure.columns(), m)
    assert _tuples(logs) == [_scalar(_log_series, g, m, cutoff) for g in gs]
    xs = _tuples(logs)
    assert _tuples(exp_extended_columns(logs, m)) == [_scalar(_exp_series, x, m, cutoff) for x in xs]


# log at (5, 11) and both series at (13, 7) run on int64 near its bound,
# 2 p^(2W) = 0.65 and 0.29 times 2^62
@pytest.mark.parametrize("pN", [(5, 3), (7, 2), (5, 11), (13, 7), (5, 14)])
def test_columns_on_a_block_of_distinct_pairs_match_scalar_series(pN, monkeypatch):
    monkeypatch.setattr(explog, "_BLOCK_ELEMENTS", 16)
    p, N = pN
    m = Modulus(p, N)
    q = m.pN
    cutoff = _resnilp_cutoff(p, N)
    rng = random.Random(5)
    # companion matrices [[0, 1], [-det, tau]]: 16 distinct (tau, det), both 0 mod p
    pairs = set()
    while len(pairs) < 16:
        pairs.add((p * rng.randrange(q // p), p * rng.randrange(q // p)))
    xs = [(0, 1, -s % q, t) for t, s in pairs]
    gs = [(1, 1, -s % q, (t + 1) % q) for t, s in pairs]
    assert _pair_count(_columns(xs), q) == 16
    assert _tuples(exp_extended_columns(_columns(xs), m)) == [
        _scalar(_exp_series, x, m, cutoff) for x in xs]
    logs = log_extended_columns(_columns(gs), m)
    assert _tuples(logs) == [_scalar(_log_series, g, m, cutoff) for g in gs]
    assert (logs[0].dtype == object) == ((p, N) == (5, 14))


@pytest.mark.parametrize("pN", [(11, 2), (13, 2)])
def test_column_kernels_check_the_domain_below_p_terms(pN):
    # the series stops before k = p, so no division can catch these inputs
    p, N = pN
    m = Modulus(p, N)
    assert _resnilp_cutoff(p, N) <= p
    with pytest.raises(DomainViolation):
        exp_extended_columns(_columns([(0, 0, 0, 0), (1, 0, 0, m.pN - 1)]), m)
    with pytest.raises(DomainViolation):
        log_extended_columns(_columns([(1, 0, 0, 1), (2, 0, 0, pow(2, -1, m.pN))]), m)


def test_column_divisibility_check_acts_on_the_coefficients():
    # at p = 2, x = [[0, 1], [2, 0]] is nilpotent mod 2 but x^4 / 4! = 1/6
    # is not 2-integral; on the domain at p >= 3 this check never fires
    m = Modulus(2, 2)
    x = (0, 1, 2, 0)
    with pytest.raises(DomainViolation):
        _scalar(_exp_series, x, m, 6)
    with pytest.raises(DomainViolation):
        _exp_series_columns(_columns([(0, 0, 0, 0), x]), 2, 2, 6)
    assert _tuples(_exp_series_columns(_columns([(0, 1, 0, 0)]), 2, 2, 6)) == [(1, 1, 0, 1)]


def _bad_columns(kind, diag):
    """One matrix [[diag, 5], [0, diag]] as columns that are not 1-D integer
    columns of one length."""
    return {
        "float": ([diag], [5.7], [0], [diag]),  # 5.7 would truncate to 5
        "ragged": ([diag, diag], [5], [0, 0], [diag, diag]),  # [5] would broadcast
        "2-D": ([[diag]], [[5]], [[0]], [[diag]]),
        "bool": ([bool(diag)], [True], [False], [bool(diag)]),
    }[kind]


@pytest.mark.parametrize("kind", ["float", "ragged", "2-D", "bool"])
def test_column_entry_points_refuse_non_integer_or_ragged_columns(kind):
    m = Modulus(5, 2)
    with pytest.raises(ValueError):
        exp_extended_columns(_bad_columns(kind, 0), m)
    with pytest.raises(ValueError):
        log_extended_columns(_bad_columns(kind, 1), m)
    # object columns of Python integers stay accepted
    assert _tuples(log_extended_columns(_columns([(1, 5, 0, 1)]), m)) == [(0, 5, 0, 0)]
