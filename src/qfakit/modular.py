"""Factorization, roots-of-unity tables and quadratic exponential sums.

Everything here is integer-exact except the exponential sums, which
add complex-double phases.  Phases are not computed one exp call per
use: each modulus gets one read-only table of the n-th roots of unity
(built once, kept for the few most recent moduli), and a phase is a
lookup at its exponent mod n.  Residues are canonicalized to 0..n-1;
arguments of any size or sign are reduced mod n as Python ints before
they become int64, so nothing overflows or wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of an odd n > 2, factors sorted ascending."""

    n: int
    factors: tuple[int, ...]

    @property
    def p_min(self) -> int:
        return self.factors[0]

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1


def factorize(n: int) -> Factorization:
    """Factor an odd integer n > 2 into primes with multiplicity."""
    if n <= 2 or n % 2 == 0:
        raise ValueError(f"expected odd n > 2, got {n}")
    factors = []
    rest = n
    p = 3
    while p * p <= rest:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 2
    if rest > 1:
        factors.append(rest)
    return Factorization(n, tuple(factors))


@lru_cache(maxsize=8)
def _roots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (exp(2*pi*i * k/n) for k < n, j = 0..n-1, j*j mod n).

    Entry k > n/2 is the conjugate of entry n - k, which rounds less.  A
    table costs 16 * n bytes and the index arrays 8 * n each; they
    depend on n only, so the few most recent moduli are kept.
    """
    j = np.arange(n, dtype=np.int64)
    half = np.exp(2j * np.pi * j[: n // 2 + 1] / n)
    arrays = (np.concatenate((half, half[1 : (n + 1) // 2][::-1].conj())), j, j * j % n)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def unit_phases(numerators, n: int) -> np.ndarray:
    """exp(2*pi*i * numerators / n) elementwise, as a new complex array.

    The numerators are reduced mod n and looked up in the modulus's
    table of roots of unity, so large arguments lose no precision; they
    must already fit in int64, so callers reduce Python ints mod n first.
    """
    return _roots(n)[0][np.asarray(numerators, dtype=np.int64) % n]


def quad_exp_sum(b: int, t: int, n: int) -> complex:
    """Sum of exp((2*pi/n)i * (b*j^2 - 2*j*t)) over j = 0..n-1.

    Vanishes whenever t is not divisible by gcd(b, n), for odd n.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    roots, j, j_sq = _roots(n)
    return complex(roots[((b % n) * j_sq - 2 * (t % n) * j) % n].sum())
