import random

import pytest

from padiclie import (
    IntPolynomial,
    bound_a6,
    count_affine,
    count_mod_p_on_sl2,
    parse_poly,
    schmidt_check,
)
from padiclie.congcount import random_polynomial
from padiclie.errors import (
    BudgetExceeded,
    IdenticallyZeroOnV,
    PreconditionViolation,
    ZeroModP,
    ZeroPolynomial,
)


def test_parse_poly():
    f = parse_poly("x0^2+x1^2")
    assert f.terms == (((0, 2), 1), ((2, 0), 1))
    g = parse_poly("3*x0*x1^2 - 2")
    assert dict(g.terms) == {(0, 0): -2, (1, 2): 3}
    h = parse_poly("-x0+2")
    assert dict(h.terms) == {(0,): 2, (1,): -1}
    with pytest.raises(ValueError):
        parse_poly("x0 $ x1")
    with pytest.raises(ValueError):
        parse_poly("")


def test_degree_respects_mod_p():
    f = IntPolynomial.of({(5,): 3, (1,): 1}, 1)
    assert f.degree() == 5
    assert f.degree(mod_p=3) == 1


def test_count_affine_examples():
    f = parse_poly("x0")
    assert count_affine(f, 3, 2) == 1
    sq = parse_poly("x0^2")
    assert count_affine(sq, 3, 3) == 3
    ss = parse_poly("x0^2+x1^2")
    assert count_affine(ss, 3, 1) == 1
    with pytest.raises(ZeroModP):
        count_affine(IntPolynomial.of({(1,): 3}, 1), 3, 2)
    with pytest.raises(BudgetExceeded):
        count_affine(parse_poly("x0+x1"), 101, 4)


def test_bound_a6_examples():
    b = bound_a6(2, 1, 3, 3)
    assert b.integer_factor == 2
    assert b.admits(3)
    assert not b.admits(100)
    # linear polynomials: the bound is attained exactly for s = 1
    b1 = bound_a6(1, 1, 5, 3)
    assert b1.admits(1)
    assert not b1.admits(2)


def test_bound_a6_on_brute_counts():
    rng = random.Random(21)
    f = parse_poly("x0^2+x1^2")
    count = count_affine(f, 3, 2)
    assert bound_a6(2, 2, 3, 2).admits(count)
    for _ in range(30):
        g = random_polynomial(rng, 2, 2, 3)
        c = count_affine(g, 3, 2)
        assert bound_a6(max(g.degree(mod_p=3), 1), 2, 3, 2).admits(c)


def test_fiber_growth_bound():
    rng = random.Random(22)
    for _ in range(20):
        f = random_polynomial(rng, 3, 1, 5)
        for n in (1, 2, 3):
            assert count_affine(f, 5, n + 1) <= 5 * count_affine(f, 5, n)
    for _ in range(10):
        f = random_polynomial(rng, 2, 2, 3)
        for n in (1, 2):
            assert count_affine(f, 3, n + 1) <= 9 * count_affine(f, 3, n)


def test_count_on_sl2_examples():
    res_b = count_mod_p_on_sl2(parse_poly("x1", nvars=4), 5)
    assert res_b.count == 5 * 4  # b = 0 forces a unit and frees c
    res_a = count_mod_p_on_sl2(parse_poly("x0-1", nvars=4), 5)
    assert res_a.count == 25
    assert res_a.ratio == 1
    res_c = count_mod_p_on_sl2(parse_poly("2", nvars=4), 5)
    assert res_c.count == 0
    with pytest.raises(IdenticallyZeroOnV):
        count_mod_p_on_sl2(parse_poly("x0*x3-x1*x2-1", nvars=4), 5)


def test_schmidt_examples():
    res = schmidt_check(parse_poly("x0*x1", nvars=2), 5)
    assert (res.count, res.bound, res.passed) == (9, 10, True)
    lin = schmidt_check(parse_poly("x0+x1", nvars=2), 7)
    assert lin.count == 7 == lin.bound
    with pytest.raises(ZeroPolynomial):
        schmidt_check(IntPolynomial.of({(1, 0): 5}, 2), 5)


def test_schmidt_random_cubics():
    rng = random.Random(23)
    for _ in range(50):
        g = random_polynomial(rng, 3, 2, 7)
        assert schmidt_check(g, 7).passed


def test_sl2_count_deterministic():
    f = parse_poly("x0+x1^2+x2*x3", nvars=4)
    first = count_mod_p_on_sl2(f, 7)
    second = count_mod_p_on_sl2(f, 7)
    assert first == second


def test_composite_p_is_rejected():
    f = parse_poly("x0*x1-1")
    for p in (1, 4, 9, 15):
        with pytest.raises(PreconditionViolation):
            count_affine(f, p, 2)
        with pytest.raises(PreconditionViolation):
            bound_a6(2, 2, p, 2)
        with pytest.raises(PreconditionViolation):
            schmidt_check(f, p)
