import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclie import (
    LieLattice,
    Modulus,
    bracket,
    is_subalgebra_mod,
    lattice_level,
    membership_mod,
    smith_form,
)
from padiclie.errors import PrecisionExceeded
from padiclie.lattice import (
    BASIS,
    bracket_witness,
    lie_closure,
    mat_to_vec,
    membership_mod_columns,
    vec_add,
    vec_scale,
    vec_to_mat,
)
from padiclie.sampling import random_exact_subalgebra


def test_bracket_table():
    q = 3**6
    e, h, f = BASIS
    assert bracket(e, f, q) == h
    assert bracket(h, e, q) == vec_scale(2, e, q)
    assert bracket(h, f, q) == vec_scale(-2, f, q)
    assert bracket(e, e, q) == (0, 0, 0)


def test_bracket_matches_matrix_commutator():
    rng = random.Random(1)
    m = Modulus(5, 4)
    q = m.pN
    for _ in range(50):
        x = tuple(rng.randrange(q) for _ in range(3))
        y = tuple(rng.randrange(q) for _ in range(3))
        lhs = vec_to_mat(bracket(x, y, q), m)
        a, b = vec_to_mat(x, m), vec_to_mat(y, m)
        assert lhs == a @ b - b @ a


def test_jacobi_on_random_triples():
    rng = random.Random(2)
    q = 7**5
    for _ in range(200):
        x, y, z = (tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        s = vec_add(
            bracket(x, bracket(y, z, q), q),
            vec_add(bracket(y, bracket(z, x, q), q), bracket(z, bracket(x, y, q), q), q),
            q,
        )
        assert s == (0, 0, 0)


def test_smith_examples():
    m = Modulus(3, 6)
    assert smith_form([(1, 0, 0), (0, 1, 0), (0, 0, 1)], m).divisors == (0, 0, 0)
    assert smith_form([(1, 0, 0), (0, 3, 0), (0, 0, 9)], m).divisors == (0, 1, 2)
    sf = smith_form([(0, 1, 0), (3, 0, 0), (0, 0, 27)], m)
    assert sf.divisors == (0, 1, 3)


def test_smith_idempotent_and_spans_match():
    rng = random.Random(3)
    m = Modulus(5, 5)
    q = m.pN
    for _ in range(40):
        cols = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)]
        lat = LieLattice.from_columns(cols, m)
        again = LieLattice.from_columns(lat.generators, m)
        assert again.divisors == lat.divisors
        assert again == lat
        for col in cols:
            assert membership_mod(lat, col, m.N)


@st.composite
def _column_lists(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 4))
    q = p**N
    entry = st.builds(lambda u, e: u * p**e % q, st.integers(0, q - 1), st.integers(0, N))
    cols = draw(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=4))
    return Modulus(p, N), cols


@settings(max_examples=60, deadline=None)
@given(_column_lists())
def test_smith_divisors_match_sympy(case):
    # the span mod p^N of integer columns has the elementary divisors
    # gcd(d_i, p^N) of the integer Smith normal form d_1 | d_2 | d_3
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    m, cols = case
    snf = smith_normal_form(sympy.Matrix(3, len(cols), lambda i, j: cols[j][i]), domain=sympy.ZZ)
    expected = [m.N] * 3
    for i in range(min(3, len(cols))):
        d, expected[i] = int(snf[i, i]), 0
        while expected[i] < m.N and d % m.p == 0:
            d //= m.p
            expected[i] += 1
    assert smith_form(cols, m).divisors == tuple(expected)


def test_lattice_level_examples():
    m = Modulus(3, 6)
    assert lattice_level(LieLattice.ambient(m)) == 0
    assert lattice_level(LieLattice.scaled_ambient(m, 2)) == 2
    L = LieLattice.from_columns([(0, 1, 0), (3, 0, 0), (0, 0, 27)], m)
    assert lattice_level(L) == 3


def test_level_is_least_containment_exponent():
    rng = random.Random(4)
    m = Modulus(5, 5)
    for _ in range(25):
        L = random_exact_subalgebra(rng, 5, rng.randrange(1, 4), 5)
        n = lattice_level(L)
        e, h, f = BASIS
        def contains_scaled_ambient(k):
            return all(
                membership_mod(L, vec_scale(5**k, v, m.pN), m.N) for v in BASIS
            )
        assert contains_scaled_ambient(n)
        if n > 0:
            assert not contains_scaled_ambient(n - 1)


@pytest.mark.parametrize("p, N", [(5, 1), (5, 3), (7, 2), (3, 4)])
def test_zero_lattice_is_the_scaled_ambient_at_precision(p, N):
    # the span of no columns needs no Smith form: p^N sl2 is zero mod p^N
    m = Modulus(p, N)
    empty, scaled = LieLattice.from_columns([], m), LieLattice.scaled_ambient(m, N)
    assert empty == scaled
    assert (empty.divisors, empty.adapted_basis, empty.adapted_inverse) == (
        scaled.divisors, scaled.adapted_basis, scaled.adapted_inverse)
    assert scaled.rank == 0 and scaled.point_count() == 1


def test_saturate_examples():
    m = Modulus(3, 6)
    assert LieLattice.scaled_ambient(m, 2).saturated() == LieLattice.ambient(m)
    s1 = LieLattice.from_columns([(3, 0, 0)], m).saturated()
    assert s1.rank == 1 and membership_mod(s1, (1, 0, 0), m.N)
    s2 = LieLattice.from_columns([(3, 9, 0)], m).saturated()
    assert s2.rank == 1 and membership_mod(s2, (1, 3, 0), m.N)
    assert not membership_mod(s2, (1, 0, 0), m.N)


def test_saturate_is_idempotent_and_grows():
    rng = random.Random(5)
    m = Modulus(3, 5)
    q = m.pN
    for _ in range(40):
        cols = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(rng.randrange(1, 4))]
        L = LieLattice.from_columns(cols, m)
        S = L.saturated()
        assert S.saturated() == S
        assert all(S.contains(g) for g in L.generators)
        # the index of L in its saturation is p^(sum of finite divisors)
        finite = [d for d in L.divisors if d < m.N]
        assert S.point_count() == L.point_count() * 3 ** sum(finite)


def test_subalgebra_mod_examples():
    m = Modulus(3, 5)
    borel = LieLattice.from_columns([(0, 1, 0), (1, 0, 0)], m)
    for nu in range(m.N):
        assert is_subalgebra_mod(borel, nu)
    ef = LieLattice.from_columns([(1, 0, 0), (0, 0, 1)], m)
    assert not is_subalgebra_mod(ef, 1)
    family = LieLattice.from_columns([(0, 1, 0), (9, 0, 0), (0, 0, 27)], m)
    for nu in range(m.N):
        assert is_subalgebra_mod(family, nu)


def test_bracket_witness_names_a_failing_pair():
    m = Modulus(3, 5)
    borel = LieLattice.from_columns([(0, 1, 0), (1, 0, 0)], m)
    assert bracket_witness(borel, m.N - 1) is None
    ef = LieLattice.from_columns([(1, 0, 0), (0, 0, 1)], m)
    x, y = bracket_witness(ef, 1)
    assert not membership_mod(ef, bracket(x, y, m.pN), 1)


def _naive_lie_closure(columns, m):
    """The fixed point of adding every pairwise bracket of the generators."""
    L = LieLattice.from_columns(columns, m)
    while True:
        gens = L.generators
        grown = LieLattice.from_columns(
            [*gens, *(bracket(x, y, m.pN) for x in gens for y in gens)], m
        )
        if grown == L:
            return L
        L = grown


@pytest.mark.parametrize("p, N", [(3, 3), (5, 2), (5, 4), (7, 3), (13, 2)])
def test_lie_closure_matches_naive_fixed_point(p, N):
    m = Modulus(p, N)
    rng = random.Random(f"lie-closure-{p}-{N}")
    for _ in range(30):
        cols = [
            vec_scale(p ** rng.randrange(N), tuple(rng.randrange(m.pN) for _ in range(3)), m.pN)
            for _ in range(rng.randrange(1, 4))
        ]
        L = lie_closure(cols, m)
        assert L == _naive_lie_closure(cols, m)
        assert all(L.contains(v) for v in cols) and bracket_witness(L, N) is None
    assert lie_closure([(0, 0, 0)], m) == LieLattice.from_columns([], m)


def test_subalgebra_mod_monotone_in_nu():
    rng = random.Random(6)
    m = Modulus(3, 5)
    q = m.pN
    for _ in range(40):
        cols = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)]
        L = LieLattice.from_columns(cols, m)
        values = [is_subalgebra_mod(L, nu) for nu in range(m.N)]
        for lo, hi in zip(values, values[1:]):
            assert lo or not hi  # failing at nu means failing at all larger nu


def test_membership_examples():
    m = Modulus(3, 5)
    L = LieLattice.from_columns([(0, 1, 0)], m)  # span of h
    assert membership_mod(L, (0, 2, 0), m.N)
    assert membership_mod(L, (27, 0, 0), 3)
    assert not membership_mod(L, (1, 0, 0), 1)
    with pytest.raises(PrecisionExceeded):
        membership_mod(L, (0, 0, 0), m.N + 1)


def test_lattice_json_roundtrip():
    m = Modulus(3, 4)
    L = LieLattice.from_columns([(0, 1, 0), (3, 0, 0), (0, 0, 27)], m)
    again = LieLattice.from_json(L.to_json())
    assert again == L
    for bad in ([9, 0, 0], [1.7, 0, 0], ["2", 0, 0], [True, 0, 0], [0, 1]):
        with pytest.raises(ValueError):
            LieLattice.from_json({"p": 3, "N": 2, "columns": [bad]})
    for bad in (5.9, "5", True):
        for key in ("p", "N"):
            with pytest.raises(ValueError):
                LieLattice.from_json({"p": 5, "N": 2, "columns": [[0, 1, 0]], key: bad})
    for columns in ([5, [0, 1, 0]], [[0, 1, 0], "010"], 5, None):
        with pytest.raises(ValueError):
            LieLattice.from_json({"p": 3, "N": 2, "columns": columns})
    with pytest.raises(ValueError):
        LieLattice.from_json([3, 2, [[0, 1, 0]]])


def test_point_enumeration_matches_count():
    m = Modulus(3, 3)
    L = LieLattice.from_columns([(0, 1, 0), (3, 0, 0), (0, 0, 9)], m)
    points = list(L.iter_points())
    assert len(points) == len(set(points)) == L.point_count()
    for v in points:
        assert membership_mod(L, v, m.N)


def test_equal_lattices_hash_equal():
    m = Modulus(5, 2)
    a = LieLattice.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)], m)
    b = LieLattice.from_columns([(1, 1, 0), (0, 1, 0), (0, 0, 1)], m)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    c = LieLattice.from_columns([(5, 0, 0), (0, 1, 0), (0, 0, 1)], m)
    assert c != a and len({a, b, c}) == 2


@st.composite
def _lattices_and_vectors(draw):
    """A random lattice (zero to four random columns), vectors half of which
    are drawn from it, and an exponent m."""
    p, N = draw(st.sampled_from([(3, 2), (5, 3), (7, 2), (5, 14)]))
    m = Modulus(p, N)
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = m.pN
    cols = [
        tuple(rng.randrange(q) * p ** rng.randrange(N + 1) % q for _ in range(3))
        for _ in range(draw(st.integers(0, 4)))
    ]
    lat = LieLattice.from_columns(cols, m)
    vecs = []
    for _ in range(draw(st.integers(1, 30))):
        if lat.generators and rng.random() < 0.5:
            v = (0, 0, 0)
            for g in lat.generators:
                v = vec_add(v, vec_scale(rng.randrange(q), g, q), q)
            v = vec_add(v, vec_scale(p ** rng.randrange(N + 1), BASIS[rng.randrange(3)], q), q)
        else:
            v = tuple(rng.randrange(q) for _ in range(3))
        vecs.append(v)
    return lat, vecs, draw(st.integers(0, N))


@settings(max_examples=80, deadline=None)
@given(_lattices_and_vectors())
def test_membership_mod_columns_matches_scalar(case):
    lat, vecs, mexp = case
    cols = tuple(np.array(c, dtype=object) for c in zip(*vecs))
    mask = membership_mod_columns(lat, cols, mexp)
    assert mask.tolist() == [membership_mod(lat, v, mexp) for v in vecs]


@settings(max_examples=40, deadline=None)
@given(_lattices_and_vectors())
def test_point_columns_match_iter_points(case):
    lat, _, _ = case
    if lat.point_count() > 5000:
        lat = lat.scaled(lat.modulus.N - 1)
    cols = lat.point_columns()
    assert list(zip(*(x.tolist() for x in cols))) == list(lat.iter_points())


# ---------------------------------------------------------------------------
# The canonical (Howell) basis
# ---------------------------------------------------------------------------


def _points(lat):
    # point_columns lists what iter_points yields (test above)
    return set(zip(*(x.tolist() for x in lat.point_columns())))


def test_canonical_basis_examples():
    # at N = 1, the reduced row echelon basis
    L = LieLattice.from_columns([(2, 4, 1), (0, 3, 3)], Modulus(5, 1))
    assert L.basis == ((1, 0, 1), (0, 1, 1))
    # 3 * (3, 1, 0) = (0, 3, 0) mod 9 joins as a row of its own
    L = LieLattice.from_columns([(3, 1, 0)], Modulus(3, 2))
    assert L.basis == ((3, 1, 0), (0, 3, 0))
    assert LieLattice.from_columns([], Modulus(3, 2)).basis == ()
    assert LieLattice.ambient(Modulus(2, 3)).basis == BASIS


def test_equal_divisors_different_spans_are_unequal():
    m = Modulus(5, 2)
    e = LieLattice.from_columns([(1, 0, 0)], m)
    f = LieLattice.from_columns([(0, 0, 1)], m)
    assert e.divisors == f.divisors and e != f and len({e, f}) == 2
    m = Modulus(3, 2)
    a = LieLattice.from_columns([(3, 0, 0), (0, 1, 0)], m)
    b = LieLattice.from_columns([(0, 3, 0), (1, 0, 0)], m)
    assert a.divisors == b.divisors == (0, 1, 2)
    assert a != b and len({a, b}) == 2


@st.composite
def _lattice_pairs(draw):
    """Two lattices at one modulus p^N <= 49, from zero to four columns,
    often rank-deficient.  The second list is random, or random
    combinations of the first list's columns joined by all of them (the
    same lattice) or by some of them."""
    p, N = draw(st.sampled_from(
        [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]
    ))
    m = Modulus(p, N)
    q = m.pN
    rng = random.Random(draw(st.integers(0, 2**32)))

    def column():
        return tuple(rng.randrange(q) * p ** rng.randrange(N + 1) % q for _ in range(3))

    first = [column() for _ in range(rng.randrange(5))]
    mode = rng.choice(["random", "same", "some"])
    if mode == "random" or not first:
        second = [column() for _ in range(rng.randrange(5))]
    else:
        second = []
        for _ in range(rng.randrange(4)):
            v = (0, 0, 0)
            for c in first:
                v = vec_add(v, vec_scale(rng.randrange(q), c, q), q)
            second.append(v)
        keep = len(first) if mode == "same" else rng.randrange(len(first) + 1)
        second += rng.sample(first, keep)
        rng.shuffle(second)
    return LieLattice.from_columns(first, m), LieLattice.from_columns(second, m)


@settings(max_examples=150, deadline=None)
@given(_lattice_pairs())
def test_canonical_basis_decides_equality(pair):
    a, b = pair
    same = _points(a) == _points(b)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b) and a.basis == b.basis
    for lat in pair:
        assert _points(LieLattice.from_columns(lat.basis, lat.modulus)) == _points(lat)
