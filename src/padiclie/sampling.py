"""Seeded samplers shared by the property tests and the CLI self-tests.

Everything is a pure function of the supplied random.Random instance, so a
fixed seed reproduces runs byte for byte.  Samplers favour coverage over
uniformity.
"""

from __future__ import annotations

import random

from .core import MatP, Modulus, random_sl2
from .errors import PreconditionViolation
from .explog import exp_extended
from .lattice import LieLattice, Vec, adjoint_matrix, apply_columns, vec_to_mat


def random_congruence_domain_matrix(rng: random.Random, modulus: Modulus) -> MatP:
    """A matrix in p'.gl(2, Z/p^N) (entries of valuation >= eps_p).  The
    domain is zero below N = eps_p, so N < eps_p (N = 1 at p = 2) is
    refused (``PreconditionViolation``)."""
    w = modulus.eps_p
    if modulus.N < w:
        raise PreconditionViolation(
            f"the congruence domain needs N >= eps_p = {w} at p = {modulus.p}, not N = {modulus.N}"
        )
    pw = modulus.p**w
    span = modulus.pN // pw
    return MatP.of(
        [[pw * rng.randrange(span) for _ in range(2)] for _ in range(2)], modulus
    )


def random_nilpotent_direction(rng: random.Random, modulus: Modulus) -> Vec:
    """A vector whose mod-p reduction is nilpotent and nonzero: a seeded
    conjugate of a multiple of e."""
    pN = modulus.pN
    g = random_sl2(rng, modulus)
    cols = adjoint_matrix(g)
    t = rng.randrange(1, modulus.p) + modulus.p * rng.randrange(pN // modulus.p)
    return apply_columns(cols, (t % pN, 0, 0), pN)


def random_resnilp_matrix(rng: random.Random, modulus: Modulus) -> MatP:
    """A residually nilpotent matrix: nilpotent direction plus p * noise."""
    pN = modulus.pN
    p = modulus.p
    v = random_nilpotent_direction(rng, modulus)
    base = vec_to_mat(v, modulus)
    noise = MatP.of(
        [[p * rng.randrange(pN // p) for _ in range(2)] for _ in range(2)], modulus
    )
    return base + noise


def random_resunip_element(rng: random.Random, modulus: Modulus) -> MatP:
    """A residually unipotent element of SL(2, Z/p^N) (p >= 5)."""
    v = random_nilpotent_direction(rng, modulus)
    return exp_extended(vec_to_mat(v, modulus)).matrix


def random_exact_subalgebra(
    rng: random.Random, p: int, n: int, N: int
) -> LieLattice:
    """A seeded exact Lie sublattice of sl(2, Z/p^N) of level exactly p^n.

    Shapes are drawn from the two structured families

        span{h, p^a e, p^b f}   (level max(a, b) scaled into position)
        span{p^a e, p^b f, p^c h}  with c <= a + b

    and then moved by the adjoint action of a random SL(2, Z/p^N) element,
    which is a bracket automorphism, so exactness and the divisors are
    preserved while the position is generic.
    """
    modulus = Modulus(p, N)
    pN = modulus.pN
    kind = rng.randrange(3)
    if kind == 0:
        # p^s (Z h + p^a e + p^(n-s) f): divisors (s, s+a, n)
        s = rng.randrange(0, n)
        a = rng.randrange(0, n - s + 1)
        cols = [
            (0, p**s % pN, 0),
            (p ** (s + a) % pN, 0, 0),
            (0, 0, p**n % pN),
        ]
    elif kind == 1:
        # span{p^a e, p^b f, p^c h}, c <= a + b, level n
        a = rng.randrange(0, n + 1)
        b = rng.randrange(0, n + 1)
        c = rng.randrange(0, min(a + b, n) + 1)
        if max(a, b, c) != n:
            a = n
        cols = [
            (p**a % pN, 0, 0),
            (0, 0, p**b % pN),
            (0, p**c % pN, 0),
        ]
    else:
        # kernel-of-functional worst-case shape for even n, else fall back
        if n % 2 == 0:
            from .approx import trace_pairing_row, worst_case_subalgebra

            c0 = (rng.randrange(pN), rng.randrange(pN), rng.randrange(pN))
            if all(x % p == 0 for x in c0):
                c0 = (1, c0[1], c0[2])
            M = worst_case_subalgebra(modulus, n, trace_pairing_row(c0))
            cols = list(M.generators)
        else:
            cols = [(0, 1, 0), (p**n % pN, 0, 0), (0, 0, p**n % pN)]
    g = random_sl2(rng, modulus)
    ad = adjoint_matrix(g)
    moved = [apply_columns(ad, col, pN) for col in cols]
    return LieLattice.from_columns(moved, modulus)


def random_resunip_generator_sets(
    rng: random.Random, modulus: Modulus, count: int
) -> list[list[MatP]]:
    """Seeded generator lists for residually-unipotent-generated subgroups,
    mixing cyclic, two-generator, and reduction-preimage shapes.

    Closure orders grow with p and N. Measured: at (p, N) = (5, 3), seed
    20260810, the 50 sets close to 125 (26 sets), 625 (2), 3,125 (14) and
    78,125 (8) elements; at (7, 3), seed 7, the 12 sets close to 343 (6),
    16,807 (2) and 823,543 (4)."""
    from .core import random_congruence_element

    out: list[list[MatP]] = []
    while len(out) < count:
        roll = rng.randrange(10)
        if roll < 6:
            out.append([random_resunip_element(rng, modulus)])
        elif roll < 9:
            u = random_resunip_element(rng, modulus)
            k = random_congruence_element(rng, modulus, rng.randrange(1, modulus.N) + 0)
            out.append([u, k])
        else:
            u = random_resunip_element(rng, modulus)
            deep = random_congruence_element(rng, modulus, 1)
            out.append([u, deep])
    return out
