"""Vectorized enumeration of SL(2) points over Z/q.

Used by the brute-force counting kernels; exactness is preserved because
all arithmetic is integer arithmetic mod q in int64 (moduli here are desk
scale, far below the overflow threshold).
"""

from __future__ import annotations

from math import prod

import numpy as np


def _prime_power_sl2_columns(p: int, q: int) -> tuple[np.ndarray, ...]:
    """Entry columns (a, b, c, d) of all of SL(2, Z/q), q = p^n.

    Split by whether a is a unit: unit a pins d = a^{-1}(1 + b c); else b
    must be a unit and c = (a d - 1) b^{-1}.
    """
    units = np.array([x for x in range(q) if x % p != 0], dtype=np.int64)
    non_units = np.array([x for x in range(q) if x % p == 0], dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    for x in units.tolist():
        inv[x] = pow(x, -1, q)

    a1, b1, c1 = np.meshgrid(units, np.arange(q, dtype=np.int64), np.arange(q, dtype=np.int64), indexing="ij")
    a1, b1, c1 = a1.ravel(), b1.ravel(), c1.ravel()
    d1 = (inv[a1] * (1 + b1 * c1)) % q

    a2, b2, d2 = np.meshgrid(non_units, units, np.arange(q, dtype=np.int64), indexing="ij")
    a2, b2, d2 = a2.ravel(), b2.ravel(), d2.ravel()
    c2 = ((a2 * d2 - 1) * inv[b2]) % q

    return (
        np.concatenate([a1, a2]),
        np.concatenate([b1, b2]),
        np.concatenate([c1, c2]),
        np.concatenate([d1, d2]),
    )


def sl2_columns(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entry columns of all of SL(2, Z/q) for arbitrary q >= 2, assembled by
    the Chinese remainder theorem across the prime-power parts."""
    return crt_product([(p**e, _prime_power_sl2_columns(p, p**e)) for p, e in _factorize(q)])


def crt_product(parts) -> tuple[np.ndarray, ...]:
    """Columns over Z/(q_1 q_2 ...) from pairwise coprime parts (q_i, columns
    over Z/q_i): every choice of one point per part, by the Chinese remainder
    theorem, with the first part's index varying slowest.  One part is
    returned untouched."""
    (m1, cols), *rest = parts
    for m2, cols2 in rest:
        u = pow(m1, -1, m2)
        n1, n2 = len(cols[0]), len(cols2[0])

        # x = x1 + m1 * u * (x2 - x1) mod m1*m2
        def crt(x1, x2):
            x1, x2 = np.repeat(x1, n2), np.tile(x2, n1)
            return (x1 + m1 * ((u * (x2 - x1)) % m2)) % (m1 * m2)

        cols = tuple(crt(x1, x2) for x1, x2 in zip(cols, cols2))
        m1 *= m2
    return cols


def _factorize(q: int) -> list[tuple[int, int]]:
    out = []
    m = q
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1
    if m > 1:
        out.append((m, 1))
    return out


def sl2_point_count(q: int) -> int:
    """|SL(2, Z/q)| = q^3 prod_{p | q} (1 - p^-2)."""
    factors = _factorize(q)
    return q**3 * prod(p * p - 1 for p, _ in factors) // prod(p * p for p, _ in factors)
