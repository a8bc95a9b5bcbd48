import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from padiclie import volumes
from padiclie import (
    Gamma0Spec,
    GammaFullSpec,
    LevelFactorization,
    MatP,
    Modulus,
    beta,
    c_delta,
    exp_congruence,
    fixed_points_P1,
    lambda_p,
    phi_brute,
    phi_gamma0,
    unipotent_orbital_volume,
)
from padiclie.core import random_sl2, mat_inverse
from padiclie.enumeration import _factorize, sl2_columns, sl2_point_count
from padiclie.errors import BudgetExceeded, PreconditionViolation
from padiclie.volumes import (
    predicate_closure,
    predicate_full,
    predicate_gamma0,
    predicate_principal,
    projective_line_size,
)


def test_lambda_examples():
    m = Modulus(3, 5)
    assert lambda_p(MatP.identity(m)).capped
    u = MatP.of([[1, 1], [0, 1]], m)
    assert lambda_p(u) == (0, False)
    x = exp_congruence(MatP.of([[0, 9], [0, 0]], m))
    assert lambda_p(x) == (2, False)


def test_phi_brute_trivial_cases():
    m = Modulus(3, 2)
    ident = MatP.identity(m)
    assert phi_brute(predicate_principal(2), ident) == 1
    u = MatP.of([[1, 1], [0, 1]], m)
    assert phi_brute(predicate_full, u) == 1


def test_phi_brute_gamma0_cross_check():
    m = Modulus(3, 2)
    u = MatP.of([[1, 1], [0, 1]], m)
    assert phi_brute(predicate_gamma0, u) == Fraction(1, 4)
    d = MatP.of([[2, 0], [0, 5]], m)
    assert phi_brute(predicate_gamma0, d) == Fraction(1, 2)


def test_phi_brute_closure_predicate_matches_entrywise():
    from padiclie import closure_of_generators

    m = Modulus(3, 2)
    gens = [MatP.of([[1, 1], [0, 1]], m), MatP.of([[2, 0], [0, 5]], m)]
    closure = closure_of_generators(gens)
    x = MatP.of([[1, 1], [0, 1]], m)
    pred = predicate_closure(closure)
    value = phi_brute(pred, x)
    # brute hand count against the plain python loop
    a, b, c, d = sl2_columns(9)
    xin = mat_inverse(x)
    count = 0
    for i in range(len(a)):
        k = MatP.of([[int(a[i]), int(b[i])], [int(c[i]), int(d[i])]], m)
        comm = k @ x @ mat_inverse(k) @ xin
        if closure.contains(comm):
            count += 1
    assert value == Fraction(count, len(a))


def test_fixed_points_examples():
    m = Modulus(3, 2)
    ident = MatP.identity(m)
    assert fixed_points_P1(ident, 3, 2) == 12 == projective_line_size(3, 2)
    u = MatP.of([[1, 1], [0, 1]], m)
    assert fixed_points_P1(u, 3, 2) == 3
    d = MatP.of([[2, 0], [0, 5]], m)
    assert fixed_points_P1(d, 3, 2) == 6


def test_phi_gamma0_paper_instances():
    m = Modulus(3, 2)
    assert phi_gamma0(MatP.of([[1, 1], [0, 1]], m), 2) == Fraction(1, 4)
    assert phi_gamma0(MatP.of([[2, 0], [0, 5]], m), 2) == Fraction(1, 2)
    m5 = Modulus(5, 3)
    assert phi_gamma0(MatP.of([[1, 5], [0, 1]], m5), 3) == Fraction(1, 6)
    with pytest.raises(PreconditionViolation):
        phi_gamma0(MatP.identity(m), 2)  # r is not < n for the identity


@pytest.mark.parametrize("p, N", [(2, 2), (3, 2), (5, 1)])
def test_gamma0_closed_form_domain(p, N):
    # the domain test agrees with phi_gamma0's preconditions on every
    # element of SL(2, Z/p^N) and every exponent n
    m = Modulus(p, N)
    for cols in zip(*sl2_columns(p**N)):
        x = MatP.of([cols[:2], cols[2:]], m)
        for n in range(1, N + 2):
            if volumes.gamma0_closed_form_applies(x, n):
                phi_gamma0(x, n)
            else:
                with pytest.raises(PreconditionViolation):
                    phi_gamma0(x, n)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_phi_gamma0_matches_brute_on_all_upper_triangular(p, n):
    # the closed form re-checks itself against fixed points internally;
    # here it is also matched against the full commutator count
    m = Modulus(p, n)
    q = m.pN
    pn = p**n
    checked = 0
    for a in range(q):
        if a % p == 0:
            continue
        ainv = pow(a, -1, q)
        for b in range(q):
            x = MatP.of([[a, b], [0, ainv]], m)
            da = (ainv - a) % q
            r = min(_v(da, p, n), _v(b, p, n))
            if r >= n:
                continue
            closed = phi_gamma0(x, n)
            assert closed == phi_brute(predicate_gamma0, x)
            checked += 1
    assert checked > 0


def _v(x, p, cap):
    x %= p**cap
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_c_delta_examples():
    ident = [[1, 0], [0, 1]]
    res = c_delta(ident, Gamma0Spec(9))
    assert res.count == res.index and res.ratio == 1

    s = [[0, -1], [1, 0]]
    assert c_delta(s, Gamma0Spec(9)).count == 0

    u = [[1, 1], [0, 1]]
    res_u = c_delta(u, Gamma0Spec(9))
    assert res_u.count == 3 and res_u.ratio == Fraction(1, 4)


def test_c_delta_multiplicative_over_coprime_levels():
    u = [[1, 1], [0, 1]]
    g = [[2, 1], [1, 1]]
    for gamma in (u, g):
        for M1, M2 in ((4, 9), (9, 25), (8, 9), (5, 12)):
            lhs = c_delta(gamma, Gamma0Spec(M1 * M2))
            r1 = c_delta(gamma, Gamma0Spec(M1))
            r2 = c_delta(gamma, Gamma0Spec(M2))
            assert lhs.count == r1.count * r2.count
            assert lhs.index == r1.index * r2.index


def test_c_delta_full_level():
    u = [[1, 1], [0, 1]]
    res = c_delta(u, GammaFullSpec(5))
    assert res.count == 0
    ident = [[1, 0], [0, 1]]
    res2 = c_delta(ident, GammaFullSpec(5))
    assert res2.count == res2.index == sl2_point_count(5)
    # an element trivial mod M but not mod M^2 still fixes every coset
    shifted = [[1, 5], [0, 1]]
    res3 = c_delta(shifted, GammaFullSpec(5))
    assert res3.count == res3.index


def test_c_delta_full_level_checks_cap_before_enumerating(monkeypatch):
    def refuse(q):
        raise AssertionError("SL(2, Z/M) enumerated before the cap check")

    monkeypatch.setattr(volumes, "sl2_columns", refuse)
    with pytest.raises(BudgetExceeded):
        c_delta([[1, 1], [0, 1]], GammaFullSpec(13), cap=100)


def test_beta_examples():
    u = [[1, 1], [0, 1]]
    lev = LevelFactorization.of({3: 2, 5: 2})
    assert beta(lev, u, Fraction(1, 8)) == 225

    m4 = Modulus(3, 4)
    x = exp_congruence(MatP.of([[3, 0], [0, -3]], m4))
    assert beta(LevelFactorization.of({3: 4}), {3: x}, Fraction(1, 8)) == 1

    ident = [[1, 0], [0, 1]]
    assert beta(lev, ident, Fraction(1, 8)) == 1  # capped depths are excluded


def test_level_factorization():
    lev = LevelFactorization.from_integer(360)
    assert dict(lev.exponents) == {2: 3, 3: 2, 5: 1}
    assert lev.value() == 360
    with pytest.raises(PreconditionViolation):
        LevelFactorization.of({3: 0})


def test_unipotent_orbital_volume_examples():
    m = Modulus(3, 2)
    assert unipotent_orbital_volume(predicate_full, m) == 1
    assert unipotent_orbital_volume(predicate_principal(2), m) == Fraction(1, 9)


def test_unipotent_orbital_volume_two_summation_orders():
    # aggregate over u of per-u conjugation counts must equal a direct
    # double loop over (u, k)
    m = Modulus(3, 1)
    q = 3
    value = unipotent_orbital_volume(predicate_gamma0, m)
    a, b, c, d = sl2_columns(3)
    total = 0
    for t in range(q):
        u = MatP.of([[1, t], [0, 1]], m)
        for i in range(len(a)):
            k = MatP.of([[int(a[i]), int(b[i])], [int(c[i]), int(d[i])]], m)
            conj = mat_inverse(k) @ u @ k
            if conj.rows[1][0] % q == 0:
                total += 1
    assert value == Fraction(total, q * len(a))


def test_phi_monotone_in_K():
    m = Modulus(3, 2)
    rng = random.Random(12)
    for _ in range(10):
        x = random_sl2(rng, m)
        small = phi_brute(predicate_principal(2), x)
        mid = phi_brute(predicate_gamma0, x)
        assert small <= mid <= 1


def test_phi_conjugation_covariance():
    # transporting both K and x by the same inner automorphism fixes phi
    from padiclie import closure_of_generators

    m = Modulus(3, 2)
    rng = random.Random(13)
    gens = [MatP.of([[1, 1], [0, 1]], m), MatP.of([[2, 0], [0, 5]], m)]
    closure = predicate_closure(closure_of_generators(gens))
    for _ in range(5):
        g = random_sl2(rng, m)
        x = random_sl2(rng, m)
        moved_gens = [g @ k @ mat_inverse(g) for k in gens]
        moved = predicate_closure(closure_of_generators(moved_gens))
        lhs = phi_brute(moved, g @ x @ mat_inverse(g))
        rhs = phi_brute(closure, x)
        assert lhs == rhs


def _projective_line_python(M):
    """Canonical points of P^1(Z/M) as a list: [1 : y] and [p t : 1] over
    each prime power, combined pairwise by the Chinese remainder theorem."""
    pts, modulus = [(0, 0)], 1
    for p, e in _factorize(M):
        q = p**e
        local = [(1, y) for y in range(q)] + [(p * t, 1) for t in range(q // p)]
        u = pow(modulus, -1, q)
        pts = [
            tuple((x1 + modulus * ((u * (x2 - x1)) % q)) % (modulus * q) for x1, x2 in zip(P1, P2))
            for P1 in pts
            for P2 in local
        ]
        modulus *= q
    return pts


def _fixed_points_python(g, M):
    """The per-point loop: [X : Y] is fixed by g = (a, b, c, d) when the
    cross product (a X + b Y) Y - (c X + d Y) X vanishes mod M."""
    a, b, c, d = g
    count = 0
    for X, Y in _projective_line_python(M):
        u = (a * X + b * Y) % M
        v = (c * X + d * Y) % M
        if (u * Y - v * X) % M == 0:
            count += 1
    return count


def _fixed_points_by_pairs(g, M):
    """Independent count: fixed primitive pairs (X, Y) mod M, one unit orbit
    of phi(M) pairs per point."""
    a, b, c, d = g
    units = sum(1 for t in range(M) if gcd(t, M) == 1)
    fixed = sum(
        1
        for X in range(M)
        for Y in range(M)
        if gcd(gcd(X, Y), M) == 1 and ((a * X + b * Y) * Y - (c * X + d * Y) * X) % M == 0
    )
    assert fixed % units == 0
    return fixed // units


def _seeded_gammas(rng, count):
    """Integer matrices of determinant one: products of seeded elementary
    matrices, with the identity, a unipotent and the rotation S."""
    out = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]]]
    while len(out) < count:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(4):
            t = rng.randrange(-6, 7)
            if rng.random() < 0.5:
                a, b = a + t * c, b + t * d
            else:
                c, d = c + t * a, d + t * b
        out.append([[a, b], [c, d]])
    return out


def test_projective_line_columns_match_python_points():
    for M in list(range(2, 61)) + [360]:
        X, Y = volumes.projective_line(M)
        assert list(zip(X.tolist(), Y.tolist())) == _projective_line_python(M)
        assert len(X) == volumes.projective_line_size_composite(M)


def test_fixed_point_count_matches_per_point_loop():
    rng = random.Random(31)
    gammas = _seeded_gammas(rng, 6)
    for M in list(range(2, 121)) + [125, 243, 360, 500]:
        for gamma in gammas:
            g = [x for row in gamma for x in row]
            expected = _fixed_points_python(g, M)
            assert c_delta(gamma, Gamma0Spec(M)).count == expected, (gamma, M)
            if M <= 40:
                assert _fixed_points_by_pairs(g, M) == expected


@pytest.mark.parametrize("p, nmax", [(3, 5), (5, 3), (7, 3)])
def test_fixed_points_P1_matches_per_point_loop(p, nmax):
    rng = random.Random(p)
    for n in range(1, nmax + 1):
        m = Modulus(p, n)
        for _ in range(8):
            x = random_sl2(rng, m)
            assert fixed_points_P1(x, p, n) == _fixed_points_python(x.as_tuple(), p**n)
    with pytest.raises(PreconditionViolation):
        fixed_points_P1(MatP.identity(Modulus(p, 2)), p, 0)


@pytest.mark.parametrize("M", [6, 12, 20])
def test_c_delta_full_level_matches_per_element_loop(M):
    # SL(2, Z/M) by its definition, not by the column enumerator
    group = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(M), repeat=4)
        if (a * d - b * c) % M == 1
    ]
    for gamma in _seeded_gammas(random.Random(M), 5):
        (ga, gb), (gc, gd) = gamma
        count = 0
        for a, b, c, d in group:
            moved = ((ga * a + gb * c) % M, (ga * b + gb * d) % M,
                     (gc * a + gd * c) % M, (gc * b + gd * d) % M)
            count += moved == (a, b, c, d)
        res = c_delta(gamma, GammaFullSpec(M))
        assert (res.count, res.index) == (count, len(group))


def test_c_delta_accepts_only_integer_matrices():
    for gamma in (
        [[1.0, 0], [0, 1.0]],
        [[True, 0], [0, True]],
        [[1, 0], [0, "1"]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0]],
        [1, 0, 0, 1],
        None,
    ):
        for spec in (Gamma0Spec(9), GammaFullSpec(5)):
            with pytest.raises(PreconditionViolation):
                c_delta(gamma, spec)
    assert c_delta(((1, 1), (0, 1)), Gamma0Spec(9)).count == 3


def test_principal_predicate_exponent_range():
    m = Modulus(3, 2)
    u = MatP.of([[1, 1], [0, 1]], m)
    assert phi_brute(predicate_principal(0), u) == 1
    for exponent in (-1, 3):
        with pytest.raises(PreconditionViolation):
            phi_brute(predicate_principal(exponent), u)
