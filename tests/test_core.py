import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclie import core, lattice
from padiclie import (
    MatP,
    Modulus,
    SubgroupClosure,
    closure_of_generators,
    closure_of_pool,
    exp_congruence,
    group_level,
    in_principal_congruence,
    mat_inverse,
    residually_unipotent,
)
from padiclie.core import (
    _closure_python,
    _enumerate_reduction_kernel,
    int_valuation,
    in_principal_congruence_columns,
    inverse_columns,
    mul_columns,
    random_congruence_element,
    random_sl2,
    reduction_kernel_generators,
    residually_nilpotent,
    residually_nilpotent_columns,
    residually_unipotent_by_power,
    residually_unipotent_columns,
)
from padiclie.enumeration import sl2_point_count
from padiclie.errors import (
    ClosureBudgetExceeded,
    InvariantViolation,
    ModulusMismatch,
    NonUnit,
    PrecisionExceeded,
)


def test_modulus_rejects_composites_and_bad_precision():
    with pytest.raises(ValueError):
        Modulus(4, 2)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    # a float p would give float residues, which break exactness
    for p, N in ((5.0, 3), (5, 3.0), (True, 3), (5, True), ("5", 3), (5, "3")):
        with pytest.raises(ValueError):
            Modulus(p, N)
    assert Modulus(2, 3).p_prime == 4
    assert Modulus(7, 1).p_prime == 7


def test_valuation_examples():
    assert int_valuation(9, 3, 6) == 2
    assert int_valuation(0, 3, 6) == 6  # capped: indistinguishable from 0
    assert int_valuation(35, 5, 4) == 1


def test_mixed_modulus_is_an_error():
    with pytest.raises(ModulusMismatch):
        MatP.identity(Modulus(3, 2)) @ MatP.identity(Modulus(5, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5**5 - 1), st.integers(0, 5**5 - 1))
def test_valuation_multiplicative_below_cap(a, b):
    N = 5
    va = int_valuation(a, 5, N)
    vb = int_valuation(b, 5, N)
    vprod = int_valuation(a * b % 5**N, 5, N)
    if va + vb < N:
        assert vprod == va + vb


def test_mat_inverse_examples():
    m = Modulus(3, 4)
    ident = MatP.identity(m)
    assert mat_inverse(ident) == ident
    u = MatP.of([[1, 3], [0, 1]], m)
    assert mat_inverse(u) == MatP.of([[1, -3], [0, 1]], m)
    m2 = Modulus(3, 2)
    d = MatP.of([[2, 0], [0, 5]], m2)
    assert mat_inverse(d) == MatP.of([[5, 0], [0, 2]], m2)
    with pytest.raises(NonUnit):
        mat_inverse(MatP.of([[3, 0], [0, 1]], m))


def test_mat_inverse_two_sided_on_samples():
    rng = random.Random(1)
    for p, N in ((3, 4), (5, 3), (7, 2)):
        m = Modulus(p, N)
        for _ in range(25):
            g = random_sl2(rng, m)
            assert g @ mat_inverse(g) == MatP.identity(m)
            assert mat_inverse(g) @ g == MatP.identity(m)


def test_in_principal_congruence_examples():
    m = Modulus(3, 4)
    ident = MatP.identity(m)
    for k in range(5):
        assert in_principal_congruence(ident, k)
    u = MatP.of([[1, 3], [0, 1]], m)
    assert in_principal_congruence(u, 1)
    assert not in_principal_congruence(u, 2)
    g = exp_congruence(MatP.of([[9, 0], [0, -9]], m))
    assert in_principal_congruence(g, 2)
    with pytest.raises(PrecisionExceeded):
        in_principal_congruence(u, 5)


def test_in_principal_congruence_monotone():
    rng = random.Random(2)
    m = Modulus(5, 4)
    for _ in range(40):
        g = random_congruence_element(rng, m, rng.randrange(1, 4))
        values = [in_principal_congruence(g, k) for k in range(m.N + 1)]
        for lo, hi in zip(values, values[1:]):
            assert lo or not hi  # true at m implies true at all smaller m


def test_residually_unipotent_examples_and_oracle():
    m5 = Modulus(5, 3)
    assert residually_unipotent(MatP.of([[1, 1], [0, 1]], m5))
    d = MatP.of([[2, 0], [0, pow(2, -1, 125)]], m5)
    assert not residually_unipotent(d)
    rng = random.Random(3)
    assert residually_unipotent(random_congruence_element(rng, m5, 1))
    # equivalence with the literal power definition, exhaustively over F_5
    from padiclie.enumeration import sl2_columns

    m1 = Modulus(5, 1)
    for t in zip(*(x.tolist() for x in sl2_columns(5))):
        g = MatP.of([[t[0], t[1]], [t[2], t[3]]], m1)
        assert residually_unipotent(g) == residually_unipotent_by_power(g)


def _square_is_zero_mod_p(x):
    """The literal x x = 0 mod p."""
    y = x.reduce(1) if x.modulus.N > 1 else x
    return y @ y == MatP.zero(y.modulus)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residue_predicates_match_literal_definitions(p):
    # the trace-determinant forms against x x = 0, (g - 1)^2 = 0 and g^p = 1,
    # on every matrix over F_p and on seeded lifts of each one mod p^3
    rng = random.Random(f"residue-{p}")
    m1, m3 = Modulus(p, 1), Modulus(p, 3)
    gl2 = [MatP.of([t[:2], t[2:]], m1) for t in itertools.product(range(p), repeat=4)]
    lifts = [MatP.of([[a + p * rng.randrange(p * p) for a in row] for row in g.rows], m3) for g in gl2]
    for g in gl2 + lifts:
        one = MatP.identity(g.modulus)
        assert residually_nilpotent(g) == _square_is_zero_mod_p(g)
        assert residually_unipotent(g) == _square_is_zero_mod_p(g - one) == residually_unipotent_by_power(g)
    # p^2 nilpotent matrices, and p^2 unipotent elements of SL(2, F_p)
    assert sum(map(residually_nilpotent, gl2)) == p * p
    assert sum(residually_unipotent(g) for g in gl2 if g.det() == 1) == p * p


def test_column_masks_match_scalar_predicates():
    rng = random.Random(8)
    for m in (Modulus(5, 1), Modulus(5, 3), Modulus(7, 2)):
        q = m.pN
        mats = [random_sl2(rng, m) for _ in range(150)]
        mats += [random_congruence_element(rng, m, rng.randrange(1, m.N + 1)) for _ in range(50)]
        mats += [MatP.of([[rng.randrange(q) for _ in range(2)] for _ in range(2)], m) for _ in range(150)]
        mats += [MatP.of([[rng.randrange(q) * m.p for _ in range(2)] for _ in range(2)], m) for _ in range(50)]
        cols = tuple(np.array(col) for col in zip(*_tuples(mats)))
        assert residually_unipotent_columns(cols, m.p).tolist() == [residually_unipotent(g) for g in mats]
        assert residually_nilpotent_columns(cols, m.p).tolist() == [residually_nilpotent(g) for g in mats]
        for k in range(1, m.N + 1):
            mask = in_principal_congruence_columns(cols, m.p**k)
            assert mask.tolist() == [in_principal_congruence(g, k) for g in mats]
    # every 2x2 matrix over F_3 and F_5, at the lifts x and x + p
    for p in (3, 5):
        m = Modulus(p, 2)
        mats = [MatP.of([[a, b], [c, d]], m) for a in range(2 * p) for b in range(p)
                for c in range(p) for d in range(2 * p)]
        cols = tuple(np.array(col) for col in zip(*_tuples(mats)))
        assert residually_unipotent_columns(cols, p).tolist() == [residually_unipotent(g) for g in mats]
        assert residually_nilpotent_columns(cols, p).tolist() == [residually_nilpotent(g) for g in mats]


def _generator_sets(moduli):
    """(modulus, generators) pairs: one to three seeded elements of
    SL(2, Z/p^N), each drawn from the whole group or from K(p)."""

    @st.composite
    def build(draw):
        p, N = draw(st.sampled_from(moduli))
        m = Modulus(p, N)
        rng = random.Random(draw(st.integers(0, 2**32)))
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                gens.append(random_sl2(rng, m))
            else:
                gens.append(random_congruence_element(rng, m, 1))
        return m, gens

    return build()


def _tuples(gens):
    return [g.as_tuple() for g in gens]


@settings(max_examples=80, deadline=None)
@given(_generator_sets([(3, 2), (3, 3), (5, 2), (7, 2)]), st.sampled_from([core._BLOCK_CODES, 8]))
def test_closure_backends_agree(case, block):
    # blocks of 8 codes split each Dimino round into many pieces, so a later
    # piece may hold only cosets found earlier in its round
    m, gens = case
    with mock.patch.object(core, "_BLOCK_CODES", block):
        closure = closure_of_generators(gens)
    oracle = _closure_python(m.pN, _tuples(gens), 10**6)
    assert list(closure.iter_tuples()) == sorted(oracle)
    codes = closure.codes
    assert codes.dtype == np.int64 and np.all(codes[1:] > codes[:-1])


@settings(max_examples=25, deadline=None)
@given(_generator_sets([(3, 2), (3, 3), (5, 2)]), st.randoms(use_true_random=False))
def test_closure_extension_order_is_irrelevant(case, rnd):
    m, gens = case
    gens = gens + [MatP.identity(m), gens[0]]
    whole = closure_of_generators(gens)
    rnd.shuffle(gens)
    closure = SubgroupClosure.trivial(m)
    for g in gens:
        bigger = closure.extend(g)
        assert (bigger is closure) == closure.contains(g)
        closure = bigger
    assert np.array_equal(closure.codes, whole.codes)
    assert len(closure.generators) <= len(gens)


@settings(max_examples=30, deadline=None)
@given(_generator_sets([(3, 2), (5, 2), (7, 2)]), st.randoms(use_true_random=False))
def test_extend_by_pool_matches_one_at_a_time(case, rnd):
    m, gens = case
    # a pool with repeats and members, the way a stratum pool looks
    pool = gens + [MatP.identity(m), gens[0]] + [g @ g for g in gens]
    rnd.shuffle(pool)
    whole = closure_of_pool(pool, m)
    cols = tuple(np.array(col) for col in zip(*_tuples(pool)))
    closure = SubgroupClosure.trivial(m).extend_by_pool(cols)
    assert np.array_equal(closure.codes, whole.codes)
    assert closure.generators == whole.generators
    empty = tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    assert SubgroupClosure.trivial(m).extend_by_pool(empty).order == 1


def test_extend_by_pool_rejects_bad_entries():
    m = Modulus(5, 2)
    trivial = SubgroupClosure.trivial(m)
    with pytest.raises(ValueError):
        trivial.extend_by_pool(([1, 2], [1, 0], [0, 0], [1, 1]))  # det 2
    with pytest.raises(ValueError):
        trivial.extend_by_pool(([1], [25], [0], [1]))  # 25 is no residue mod 25
    with pytest.raises(ClosureBudgetExceeded):
        trivial.extend_by_pool(([1, 1], [1, 0], [0, 1], [1, 1]), cap=100)


@pytest.mark.parametrize("cols", [
    ([1], [1.5], [0], [1]),  # float: 1.5 would truncate to 1
    ([1, 1], [1], [0, 0], [1, 1]),  # ragged: [1] would broadcast
    ([[1]], [[1]], [[0]], [[1]]),  # 2-D
    ([True], [False], [False], [True]),  # bool
])
def test_column_membership_and_pools_refuse_non_integer_or_ragged_columns(cols):
    closure = SubgroupClosure.trivial(Modulus(5, 2))
    with pytest.raises(ValueError):
        closure.contains_columns(*cols)
    with pytest.raises(ValueError):
        closure.extend_by_pool(cols)
    # object columns of Python integers stay accepted
    unip = tuple(np.array([x], dtype=object) for x in (1, 1, 0, 1))
    assert closure.contains_columns(*unip).tolist() == [False]
    assert closure.extend_by_pool(unip).order == 25


def test_column_membership_refuses_entries_outside_the_residues():
    # mod 5, [[0, 5], [0, 1]] (det 0) has the identity's code 126, and
    # [[6, 0], [0, 1]] is the identity only after reduction
    trivial = SubgroupClosure.trivial(Modulus(5, 1))
    for rows in ([[0, 5], [0, 1]], [[6, 0], [0, 1]], [[1, -1], [0, 1]]):
        cols = tuple(np.array([x]) for x in (*rows[0], *rows[1]))
        with pytest.raises(ValueError):
            trivial.contains_columns(*cols)
        with pytest.raises(ValueError):
            trivial.extend_by_pool(cols)
    assert trivial.contains_columns([1, 1], [0, 4], [0, 0], [1, 1]).tolist() == [True, False]


def test_double_coset_matches_products():
    rng = random.Random(4)
    m = Modulus(5, 1)
    for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 3]], [[0, 1], [4, 0]]) * 3:
        H = closure_of_generators([MatP.of(rows, m)])
        g = random_sl2(rng, m)
        elems = [MatP.of([[a, b], [c, d]], m) for a, b, c, d in H.iter_tuples()]
        expected = {(x @ g @ y).as_tuple() for x in elems for y in elems}
        codes = sorted(((a * 5 + b) * 5 + c) * 5 + d for a, b, c, d in expected)
        assert H.double_coset(g).tolist() == codes


def test_double_coset_of_a_set_is_the_union():
    rng = random.Random(5)
    m = Modulus(7, 1)
    for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 4]], [[0, 1], [6, 0]]):
        H = closure_of_generators([MatP.of(rows, m)])
        S = [random_sl2(rng, m) for _ in range(3)]
        cols = tuple(np.array(col) for col in zip(*(g.as_tuple() for g in S)))
        union = np.unique(np.concatenate([H.double_coset(g) for g in S]))
        assert np.array_equal(H.double_coset(cols), union)


def test_double_coset_of_a_cyclic_group_of_prime_order():
    # <H, x> = <H, u> for every x in H <u> H outside H, u of order p
    m = Modulus(7, 1)
    u = MatP.of([[1, 3], [0, 1]], m)
    H = closure_of_generators([MatP.of([[1, 0], [1, 1]], m)])
    hs = [MatP.of([[a, b], [c, d]], m) for a, b, c, d in H.iter_tuples()]
    xs = {(x @ u.power(k) @ y).as_tuple() for x in hs for k in range(7) for y in hs}
    codes = sorted(((a * 7 + b) * 7 + c) * 7 + d for a, b, c, d in xs)
    assert H.double_coset(closure_of_generators([u]).columns()).tolist() == codes
    target = H.extend(u).codes
    outside = [x for x in xs if not H.contains(MatP.of([x[:2], x[2:]], m))]
    assert len(outside) == len(xs) - H.order
    for a, b, c, d in outside:
        assert np.array_equal(H.extend(MatP.of([[a, b], [c, d]], m)).codes, target)


def test_conjugate_matches_closing_the_conjugated_generators():
    rng = random.Random(6)
    for m in (Modulus(7, 1), Modulus(3, 2), Modulus(46349, 1)):
        H = closure_of_generators([MatP.of([[1, 1], [0, 1]], m), MatP.of([[-1, 0], [0, -1]], m)])
        x = random_sl2(rng, m)
        gens = tuple(x @ g @ mat_inverse(x) for g in H.generators)
        conjugated = H.conjugate(x, gens)
        assert conjugated.generators == gens
        assert np.array_equal(conjugated.codes, closure_of_generators(gens).codes)
    with pytest.raises(ModulusMismatch):
        H.conjugate(MatP.identity(Modulus(7, 1)), ())


def test_conjugate_by_a_normalizer_shares_the_codes(monkeypatch):
    # x H x^-1 = H when x normalizes H: the closure keeps H's codes under the
    # new generator record, forms no product code, and equals the product path
    cases = []
    for m in (Modulus(7, 1), Modulus(3, 2), Modulus(46349, 1)):
        u, minus = MatP.of([[1, 1], [0, 1]], m), MatP.of([[-1, 0], [0, -1]], m)
        borel_unipotent = closure_of_generators([u, minus])
        cases += [(borel_unipotent, MatP.of([[2, 5], [0, pow(2, -1, m.pN)]], m)), (borel_unipotent, u)]
    m = Modulus(5, 1)
    full = closure_of_generators([MatP.of([[1, 1], [0, 1]], m), MatP.of([[1, 0], [1, 1]], m)])
    cases.append((full, random_sl2(random.Random(7), m)))
    cases.append((SubgroupClosure.trivial(m), random_sl2(random.Random(8), m)))
    expected = []
    for H, x in cases:
        gens = tuple(x @ g @ mat_inverse(x) for g in H.generators)
        with mock.patch.object(SubgroupClosure, "_normalizes", lambda self, g: False):
            expected.append(H.conjugate(x, gens))

    def refuse(*args):
        raise AssertionError("product codes formed")

    monkeypatch.setattr(core, "_product_codes", refuse)
    for (H, x), product_path in zip(cases, expected):
        gens = tuple(x @ g @ mat_inverse(x) for g in H.generators)
        conjugated = H.conjugate(x, gens)
        assert conjugated.generators == gens
        assert np.shares_memory(conjugated.codes, H.codes)
        assert np.array_equal(conjugated.codes, product_path.codes)
        assert product_path.generators == gens


def _extension_cases():
    """(H, g) with g outside H: K(p) pairs (nilpotent); Sylow subgroups of
    SL(2, F_p) extended by unipotents outside their Borel subgroup, and
    SL(2, Z/9) (not nilpotent)."""
    cases = []
    for p, N in ((7, 3), (5, 3), (3, 4)):
        rng = random.Random(f"extend-{p}-{N}")
        m = Modulus(p, N)
        for _ in range(3):
            g1, g2 = (random_congruence_element(rng, m, 1) for _ in range(2))
            cases.append((closure_of_generators([g1]), g2))
    rng = random.Random(14)
    for p in (5, 7):
        m = Modulus(p, 1)
        u = MatP.of([[1, 1], [0, 1]], m)
        outside = [MatP.of([[1, 0], [1, 1]], m)]
        while len(outside) < 3:
            x = random_sl2(rng, m)
            if x.rows[1][0]:  # x u x^-1 is not upper triangular
                outside.append(x @ u @ mat_inverse(x))
        sylow = closure_of_generators([u])
        cases += [(sylow, g) for g in outside]
    m = Modulus(3, 2)
    cases.append((closure_of_generators([MatP.of([[1, 1], [0, 1]], m)]), MatP.of([[1, 0], [1, 1]], m)))
    return cases


@pytest.mark.parametrize("H, g", _extension_cases())
def test_extend_matches_one_dimino_stage(H, g):
    # the normal-closure stages give the group of the single Dimino stage
    # they replace, with the same generator record
    gens = (*H.generators, g)
    bigger = H.extend(g)
    assert bigger.generators == gens
    assert np.array_equal(bigger.codes, core._dimino_codes(H.codes, gens, H.q, 10**6))
    if bigger.order <= 20_000:
        assert list(bigger.iter_tuples()) == sorted(_closure_python(H.q, _tuples(gens), 10**6))


def test_nilpotent_pair_closes_without_dimino_rounds(monkeypatch):
    # in K(7) mod 7^3, of class 2, each stage of a pair is a doubling
    rng = random.Random("pairs-7-3-1")
    gens = [random_congruence_element(rng, Modulus(7, 3), 1) for _ in range(2)]

    def refuse(*args):
        raise AssertionError("Dimino stage")

    monkeypatch.setattr(core, "_dimino_codes", refuse)
    assert closure_of_generators(gens).order == 7**5


def _dimino_cases():
    """Seeded generator sets of one to three elements, with the subgroup H
    that all but the last generate, at int64 and F_p moduli."""
    cases = []
    for p, N in ((5, 1), (7, 1), (13, 1), (3, 3)):
        m = Modulus(p, N)
        rng = random.Random(f"dimino-{p}-{N}")
        for size in (1, 2, 3, 3):
            gens = [random_sl2(rng, m) for _ in range(size)]
            cases.append(pytest.param(m, gens, id=f"{p}-{N}-{len(cases) % 4}"))
    return cases


@pytest.mark.parametrize("m, gens", _dimino_cases())
def test_dimino_stage_matches_oracle(m, gens):
    # one stage from the trivial group, and one from the closure of all but
    # the last generator, give the breadth-first closure
    q = m.pN
    oracle = sorted(_closure_python(q, _tuples(gens), 10**6))
    trivial = SubgroupClosure.trivial(m).codes
    H = closure_of_pool(gens[:-1], m)
    for h_codes in (trivial, H.codes):
        codes = core._dimino_codes(h_codes, (*H.generators, *gens), q, 10**6)
        assert list(core._iter_tuples(codes, q)) == oracle
    order = len(oracle)
    assert len(core._dimino_codes(trivial, gens, q, order)) == order
    with pytest.raises(ClosureBudgetExceeded):
        core._dimino_codes(trivial, gens, q, order - 1)


def _random_code_set(rng, q, size):
    """Sorted distinct codes of random 2x2 matrices mod q, at the code dtype."""
    tuples = {tuple(rng.randrange(q) for _ in range(4)) for _ in range(size)}
    return core.element_codes(tuple(np.array(col, dtype=object) for col in zip(*tuples)), q).copy()


@pytest.mark.parametrize("m", [Modulus(3, 5), Modulus(5, 7)], ids=["int64", "object"])
@pytest.mark.parametrize("block", [8, core._BLOCK_CODES], ids=["block8", "shipped"])
@pytest.mark.parametrize("wide", [False, True], ids=["k1", "wide"])
def test_product_codes_match_encoded_products(m, block, wide):
    # blocks of 8 codes tile both the code set and the representatives; at
    # the shipped size, ``wide`` asks for more than one block of them
    q = m.pN
    rng = random.Random(f"kernel-{q}-{block}-{wide}")
    x_codes = _random_code_set(rng, q, 40)
    k = core._BLOCK_CODES // len(x_codes) + 3 if wide else 1
    reps = tuple(np.array([rng.randrange(q) for _ in range(k)], dtype=x_codes.dtype) for _ in range(4))
    x = tuple(np.array(col, dtype=x_codes.dtype) for col in zip(*core._iter_tuples(x_codes, q)))
    expected = core._encode(*mul_columns(x, tuple(r[:, None] for r in reps), q), q).ravel()
    buffer = np.full(len(expected) + 6, -1, dtype=x_codes.dtype)
    with mock.patch.object(core, "_BLOCK_CODES", block):
        core._product_codes(x_codes, reps, q, buffer[3:-3])
    assert buffer[3:-3].tolist() == expected.tolist()
    assert buffer[:3].tolist() == buffer[-3:].tolist() == [-1] * 3  # nothing beside ``out``


def test_doubling_stage_forms_only_the_new_cosets(monkeypatch):
    # K(9) is normal in SL(2, Z/3^5), and [[1, 3], [0, 1]] has order 3 over
    # it: the stage forms 2 |K(9)| product codes, none for the coset K(9).1
    m = Modulus(3, 5)
    H = closure_of_generators(reduction_kernel_generators(m, 2))
    g = MatP.of([[1, 3], [0, 1]], m)
    asked = []
    kernel = core._product_codes

    def recording(x_codes, reps, q, out):
        asked.append((len(x_codes), len(reps[0])))
        return kernel(x_codes, reps, q, out)

    monkeypatch.setattr(core, "_product_codes", recording)
    bigger = H.extend(g)
    j = bigger.order // H.order
    assert j == 3 and bigger.order == 3**9 * 3
    assert [n * k for n, k in asked if n == H.order] == [(j - 1) * H.order]
    assert all(n < j for n, _ in asked if n != H.order)  # the powers of g


def test_closure_scratch_memory_is_bounded():
    # K(3) mod 3^5 (531,441 elements) peaks below twice its code array: its
    # last stage holds H, the result, and a bounded block of scratch
    gens = reduction_kernel_generators(Modulus(3, 5), 1)
    group_level(reduction_kernel_generators(Modulus(3, 3), 1))  # lazy imports
    tracemalloc.start()
    try:
        lvl = group_level(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lvl.level == 1 and lvl.closure_order == 3**12
    assert peak <= 2 * 8 * 3**12


def test_closure_examples():
    m = Modulus(3, 2)
    gens = [MatP.of([[1, 1], [0, 1]], m), MatP.of([[1, 0], [1, 1]], m)]
    assert closure_of_generators(gens).order == sl2_point_count(9)
    assert closure_of_pool([], m).order == 1
    assert closure_of_pool(gens, m).order == sl2_point_count(9)
    with pytest.raises(ModulusMismatch):
        closure_of_pool([MatP.identity(Modulus(3, 3))], m)


def test_closure_python_int_codes():
    # q^4 > 2^62: codes are Python integers; <u, -1> has order 2q
    q = 46349
    m = Modulus(q, 1)
    u, minus = MatP.of([[1, 1], [0, 1]], m), MatP.of([[-1, 0], [0, -1]], m)
    for gens in ([u, minus], [minus, u]):
        closure = closure_of_generators(gens)
        assert closure.codes.dtype == object and closure.order == 2 * q
        assert closure.contains(MatP.of([[-1, -5], [0, -1]], m))
        assert not closure.contains(MatP.of([[1, 0], [1, 1]], m))
    assert list(closure.iter_tuples()) == sorted(_closure_python(q, _tuples(gens), 10**6))


@pytest.mark.parametrize(
    "p, N, rows",
    [
        (3, 4, [[[1, 1], [0, 1]]]),  # one cyclic stage
        (3, 3, [[[1, 3], [0, 1]], [[1, 0], [3, 1]], [[4, 0], [0, 7]]]),  # K(3) mod 27
        (5, 2, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),  # Dimino rounds
        (46349, 1, [[[1, 1], [0, 1]], [[-1, 0], [0, -1]]]),  # Python-int codes
    ],
)
def test_closure_budget_boundary(p, N, rows):
    m = Modulus(p, N)
    gens = [MatP.of(r, m) for r in rows]
    order = closure_of_generators(gens).order
    assert closure_of_generators(gens, cap=order).order == order
    with pytest.raises(ClosureBudgetExceeded):
        closure_of_generators(gens, cap=order - 1)
    with pytest.raises(ClosureBudgetExceeded):
        _closure_python(m.pN, _tuples(gens), order - 1)


def test_group_level_examples():
    # the full kernel of reduction mod p^2 inside SL(2, Z/p^3) has level 2
    m = Modulus(3, 3)
    kernel = _enumerate_reduction_kernel(m, 2)
    lvl = group_level(kernel)
    assert lvl.level == 2

    # the trivial group contains no reduction kernel below N
    trivial = group_level([MatP.identity(m)])
    assert not trivial.attained and trivial.level is None

    # exp(3e), exp(3h), exp(3f) generate the image of the level-3 kernel
    gens = [
        exp_congruence(MatP.of(rows, m))
        for rows in ([[0, 3], [0, 0]], [[3, 0], [0, -3]], [[0, 0], [3, 0]])
    ]
    lvl3 = group_level(gens)
    assert lvl3.level == 1
    assert lvl3.closure_order == 3**6


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_group_level_matches_defining_exponent(p, N):
    m = Modulus(p, N)
    for n in range(1, N):
        gens = reduction_kernel_generators(m, n)
        lvl = group_level(gens, cap=3_000_000)
        assert lvl.level == n, (p, N, n)
        assert lvl.closure_order == p ** (3 * (N - n))


def test_group_level_full_group():
    m = Modulus(3, 2)
    gens = [MatP.of([[1, 1], [0, 1]], m), MatP.of([[1, 0], [1, 1]], m)]
    assert group_level(gens).level == 0
    assert group_level(closure_of_generators(gens)) == group_level(gens)


def _lie_path_cases():
    """Seeded generator sets in K(p), p >= 5: every reduction kernel K(p^n)
    (with its level and order), one to three random congruence elements,
    two pairs from K(p), whose lattice needs their bracket from N = 3, and
    the identity alone."""
    cases = []
    for p in (5, 7, 11, 13):
        for N in (2, 3, 4):
            m = Modulus(p, N)
            rng = random.Random(f"lie-level-{p}-{N}")
            sets = [(list(reduction_kernel_generators(m, n)), (n if n < N else None, p ** (3 * (N - n))))
                    for n in range(1, N + 1)]
            sets += [([random_congruence_element(rng, m, rng.randrange(1, N + 1))
                       for _ in range(rng.randrange(1, 4))], None) for _ in range(4)]
            sets += [([random_congruence_element(rng, m, 1) for _ in range(2)], None) for _ in range(2)]
            sets.append(([MatP.identity(m)], (None, 1)))
            cases += [pytest.param(gens, known, id=f"{p}-{N}-{i}") for i, (gens, known) in enumerate(sets)]
    return cases


def _refuse_extend(self, g, cap):
    raise AssertionError("closure engine")


_ORACLE_CAP = 10**6


@pytest.mark.parametrize("gens, known", _lie_path_cases())
def test_group_level_lie_path_matches_closure(gens, known, monkeypatch):
    # generators in K(p), p >= 5, are sifted and close nothing; the
    # enumerated closure is the oracle up to its cap, and a kernel's level
    # and order are known at any size
    with monkeypatch.context() as patch:
        patch.setattr(SubgroupClosure, "_extend", _refuse_extend)
        fast = group_level(gens, cap=10**15)
    if known is not None:
        assert (fast.level, fast.closure_order) == known
    if fast.closure_order <= _ORACLE_CAP:  # 103 of the 120 sets
        assert fast == group_level(closure_of_generators(gens, cap=_ORACLE_CAP))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_sift_matches_closure_at_small_primes(p, N):
    # group_level closes the group at p = 2 and 3, but the sift is proved
    # there too (at p = 2 a full level ends it only from depth 2 on)
    m = Modulus(p, N)
    rng = random.Random(f"sift-{p}-{N}")
    compared = 0
    for i in range(16):
        gens = [random_congruence_element(rng, m, rng.randrange(1, N + 1)) for _ in range(rng.randrange(1, 4))]
        if i % 2:  # a kernel K(p^n) mixed in
            j = rng.randrange(len(gens) + 1)
            gens[j:j] = reduction_kernel_generators(m, rng.randrange(1, N))
        sifted = core._sift_group_level(gens, 10**15)
        if sifted.closure_order <= _ORACLE_CAP:
            assert sifted == group_level(closure_of_generators(gens, cap=_ORACLE_CAP)), i
            compared += 1
    assert compared >= 8


def _lattice_level(gens) -> tuple[int | None, int]:
    """(level, order) of <gens> in K(p), p >= 5, read from the Lie lattice
    of their logarithms (Lazard; saturable since dim sl2 = 3 < p)."""
    from padiclie.explog import log_extended

    lat = lattice.lie_closure([lattice.mat_to_vec(log_extended(g).matrix) for g in gens], gens[0].modulus)
    return (lattice.lattice_level(lat) if lat.is_full_rank else None), lat.point_count()


def _borel_element(rng, m, n):
    """A seeded upper-triangular element of K(p^n)."""
    u = 1 + m.p**n * rng.randrange(m.p ** (m.N - n))
    return MatP.of([[u, m.p**n * rng.randrange(m.pN)], [0, pow(u, -1, m.pN)]], m)


def _large_order_cases():
    """Seeded sets at (31, 10) and (5, 22), far above the closure's cap:
    open pairs and triples, a kernel with an element added, and the
    rank-deficient cyclic and Borel-type groups."""
    cases = []
    for p, N in ((31, 10), (5, 22)):
        m = Modulus(p, N)
        rng = random.Random(f"sift-large-{p}-{N}")
        sets = [[random_congruence_element(rng, m, n) for _ in range(2)] for n in (1, 1, 2, 3)]
        sets.append([random_congruence_element(rng, m, 2) for _ in range(3)])
        sets.append([*reduction_kernel_generators(m, 5), random_congruence_element(rng, m, 2)])
        sets.append([random_congruence_element(rng, m, 1)])
        sets.append([_borel_element(rng, m, 1) for _ in range(2)])
        cases += [pytest.param(gens, None, id=f"{p}-{N}-{i}") for i, gens in enumerate(sets)]
    return cases


@pytest.mark.parametrize("gens, known", _lie_path_cases() + _large_order_cases())
def test_sift_matches_lie_lattice(gens, known):
    # the Lie lattice is the oracle at any order, including the 17 path
    # cases above the closure's cap
    sifted = core._sift_group_level(gens, 10**300)
    assert (sifted.level, sifted.closure_order) == _lattice_level(gens)
    assert known is None or (sifted.level, sifted.closure_order) == known


def test_sift_refuses_falling_level_dimensions(monkeypatch):
    # <g> has d_k = 1 at every depth; the leading term of g^2 misread at
    # depth 1 as independent of g's makes d_1 = 2 > d_2 = 1
    m = Modulus(5, 4)
    g = MatP.of([[1, 5], [0, 1]], m)
    assert core._sift_group_level([g, g @ g], 10**15).closure_order == 5**3
    square, lead = (g @ g).as_tuple(), core._lead

    def corrupted(x, k, p):
        return (1, 0, 0) if (x, k) == (square, 1) else lead(x, k, p)

    monkeypatch.setattr(core, "_lead", corrupted)
    with pytest.raises(InvariantViolation, match="fall"):
        core._sift_group_level([g, g @ g], 10**15)


@pytest.mark.parametrize(
    "gens",
    [
        reduction_kernel_generators(Modulus(3, 3), 1),  # p = 3
        [*reduction_kernel_generators(Modulus(5, 2), 1), MatP.of([[1, 1], [0, 1]], Modulus(5, 2))],
    ],
    ids=["p3", "outside-K(p)"],
)
def test_group_level_other_inputs_close_the_group(gens, monkeypatch):
    monkeypatch.setattr(SubgroupClosure, "_extend", _refuse_extend)
    with pytest.raises(AssertionError, match="closure engine"):
        group_level(list(gens))


def test_group_level_of_a_closure_reads_the_closure(monkeypatch):
    closure = closure_of_generators(reduction_kernel_generators(Modulus(5, 3), 1))

    def refuse(*args):
        raise AssertionError("sift")

    monkeypatch.setattr(core, "_sift_group_level", refuse)
    lvl = group_level(closure)
    assert lvl.level == 1 and lvl.closure_order == 5**6


def test_group_level_lie_path_refusals(monkeypatch):
    # the same exception types as closing the group, without closing it
    monkeypatch.setattr(SubgroupClosure, "_extend", _refuse_extend)
    m = Modulus(5, 3)
    kernel = list(reduction_kernel_generators(m, 1))
    with pytest.raises(ValueError):
        group_level([])
    with pytest.raises(ValueError, match="det"):
        group_level([*kernel, MatP.of([[6, 0], [0, 1]], m)])
    with pytest.raises(ModulusMismatch):
        group_level([*kernel, *reduction_kernel_generators(Modulus(5, 4), 1)])
    order = 5**6
    assert group_level(kernel, cap=order).closure_order == order
    with pytest.raises(ClosureBudgetExceeded):
        group_level(kernel, cap=order - 1)


def test_matrix_json_literals():
    obj = {"p": 3, "N": 4, "mat": [[1, 3], [0, 1]]}
    g = MatP.from_json(obj)
    assert g.rows == ((1, 3), (0, 1))
    assert g.to_json() == obj
    with pytest.raises(ValueError):
        MatP.from_json({"p": 3, "N": 2, "mat": [[9, 0], [0, 1]]})
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError):
            MatP.from_json({"p": 3, "N": 2, "mat": [[bad, 0], [0, 1]]})
    for bad in (5.9, "5", True):
        for key in ("p", "N"):
            with pytest.raises(ValueError):
                MatP.from_json({"p": 5, "N": 2, "mat": [[1, 0], [0, 1]], key: bad})
    for mat in ([5, [0, 1]], [[1, 0], "01"], 5, None):
        with pytest.raises(ValueError):
            MatP.from_json({"p": 3, "N": 2, "mat": mat})
    for obj in ([3, 2], {"N": 2, "mat": [[1, 0], [0, 1]]}):
        with pytest.raises(ValueError):
            MatP.from_json(obj)


def test_matp_is_2x2_only():
    m = Modulus(3, 2)
    bad = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1]])
    for rows in bad:
        with pytest.raises(ValueError):
            MatP.of(rows, m)
        with pytest.raises(ValueError):
            MatP.from_json({"p": 3, "N": 2, "mat": rows})
    assert MatP.identity(m).rows == ((1, 0), (0, 1))
    assert MatP.zero(m).rows == ((0, 0), (0, 0))


def test_matp_entries_are_integers():
    m = Modulus(3, 2)
    bad = (1.5, True, np.bool_(True), np.float64(1.0), "1", None)
    for a in bad:
        with pytest.raises(ValueError):
            MatP.of([[a, 1], [0, 1]], m)
        with pytest.raises(ValueError):
            MatP(((a, 1), (0, 1)), m)
    x = MatP.of([[np.int64(10), -1], [0, np.int32(1)]], m)
    assert x.rows == ((1, 8), (0, 1)) and all(type(a) is int for row in x.rows for a in row)
    # a numpy entry is stored as a Python int, so products do not wrap at int64
    big = Modulus(3, 39)
    u = 3**30 + 1
    rows = ((np.int64(u), 0), (0, pow(u, -1, big.pN)))
    y = MatP(rows, big)
    assert all(type(a) is int for row in y.rows for a in row)
    assert (y @ y).rows[0][0] == u * u % big.pN


def test_inverse_columns_inverts_every_element():
    from padiclie.enumeration import sl2_columns

    for q in (5, 9, 12):
        k = sl2_columns(q)
        k_inv = inverse_columns(k, q)
        for product in (mul_columns(k, k_inv, q), mul_columns(k_inv, k, q)):
            assert [x.tolist() for x in product] == [[v] * len(k[0]) for v in (1, 0, 0, 1)]
    m = Modulus(7, 2)
    g = random_sl2(random.Random(4), m)
    assert inverse_columns(g.as_tuple(), m.pN) == mat_inverse(g).as_tuple()


def test_crt_product_order_and_single_part():
    from padiclie.enumeration import crt_product, sl2_columns

    cols = sl2_columns(7)
    assert crt_product([(7, cols)]) is cols
    first, second = [(1, 0), (3, 2)], [(2, 1), (5, 1), (7, 0)]
    x, y = crt_product([(4, tuple(np.array(c) for c in zip(*first))),
                        (9, tuple(np.array(c) for c in zip(*second)))])
    # every pair of points, the first part's index varying slowest
    assert [((v % 4, w % 4), (v % 9, w % 9)) for v, w in zip(x.tolist(), y.tolist())] == [
        (P1, P2) for P1 in first for P2 in second
    ]
    assert 0 <= min(x.min(), y.min()) and max(x.max(), y.max()) < 36
