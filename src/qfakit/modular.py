"""Exact residue arithmetic and quadratic exponential sums.

Everything here is integer-exact except the exponential sums, which
evaluate all their phases in one numpy call and add them as complex
doubles.  Residues are canonicalized to 0..n-1; arguments of any size
or sign are reduced mod n as Python ints before they become int64, so
nothing overflows or wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def gcd(a: int, b: int) -> int:
    """Greatest common divisor, positive, rejecting gcd(0, 0)."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def mod_div(a: int, b: int, n: int) -> int:
    """Return the unique c in 0..n-1 with c*b = a (mod n).

    Requires gcd(b, n) = 1; a and b are reduced mod n first.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    a %= n
    b %= n
    if b == 0:
        raise ZeroDivisionError(f"division by zero residue mod {n}")
    if math.gcd(b, n) != 1:
        raise ValueError(f"{b} is not invertible mod {n}")
    return (a * pow(b, -1, n)) % n


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


def unit_phases(numerators, n: int) -> np.ndarray:
    """exp(2*pi*i * numerators / n) elementwise, as a complex array.

    The numerators are reduced mod n before the division so large
    arguments lose no precision; they must already fit in int64, so
    callers reduce Python ints mod n first.
    """
    return np.exp(2j * np.pi * (np.asarray(numerators, dtype=np.int64) % n) / n)


def quad_exp_sum(b: int, t: int, n: int) -> complex:
    """Sum of exp((2*pi/n)i * (b*j^2 - 2*j*t)) over j = 0..n-1.

    Vanishes whenever t is not divisible by gcd(b, n), for odd n.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    j = np.arange(n, dtype=np.int64)
    return complex(unit_phases((b % n) * (j * j % n) - 2 * (t % n) * j, n).sum())


def shift_invariance_check(c1: int, c2: int, n: int) -> tuple[complex, complex]:
    """Evaluate sum_j exp((2*pi/n)i * c1*j^2) with and without j -> j + c2.

    Returns (unshifted, shifted); the two agree because j + c2 runs over
    the same residues mod n as j does.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    c1 %= n
    j = np.arange(n, dtype=np.int64)
    shifted = (j + c2 % n) % n
    lhs = unit_phases(c1 * (j * j % n), n).sum()
    rhs = unit_phases(c1 * (shifted * shifted % n), n).sum()
    return complex(lhs), complex(rhs)
