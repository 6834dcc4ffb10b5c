import cmath
import math

import numpy as np
import pytest

from qfakit.modular import (
    _roots,
    factorize,
    quad_exp_sum,
    unit_phases,
)
from oracles import shift_invariance_check

ODD_MODULI = [3, 5, 9, 15]


def brute_gcd(a, b):
    # largest d dividing both, by descending search
    a, b = abs(a), abs(b)
    for d in range(max(a, b), 0, -1):
        if a % d == 0 and b % d == 0:
            return d
    raise AssertionError("no divisor found")


def brute_mod_div(a, b, n):
    hits = [c for c in range(n) if (c * b) % n == a % n]
    assert len(hits) == 1, f"division {a}/{b} mod {n} not unique: {hits}"
    return hits[0]


def term_sum(b, t, n):
    # independent accumulation without the mod-n exponent reduction
    return sum(cmath.exp(2j * math.pi * (b * j * j - 2 * j * t) / n) for j in range(n))


def test_gcd_against_brute_force():
    # the gcd behind l = gcd(s, n) in the power law and the exact oracle
    for a in range(0, 40):
        for b in range(1, 40):
            assert math.gcd(a, b) == brute_gcd(a, b)


def div_mod(a, b, n):
    # a / b mod n through pow(b, -1, n), as the power law's k = (s/l)^-1 mod g
    return a * pow(b, -1, n) % n


@pytest.mark.parametrize("n", ODD_MODULI)
def test_mod_div_matches_exhaustive_search(n):
    for b in range(1, n):
        if math.gcd(b, n) != 1:
            continue
        for a in range(n):
            assert div_mod(a, b, n) == brute_mod_div(a, b, n)


@pytest.mark.parametrize("n", ODD_MODULI)
def test_mod_div_identities(n):
    units = [b for b in range(1, n) if math.gcd(b, n) == 1]
    for a in units:
        for b in range(n):
            # 1/a + b = (1 + a*b)/a
            assert (div_mod(1, a, n) + b) % n == div_mod(1 + a * b, a, n)
    for a in range(n):
        for b in units:
            assert (div_mod(a, b, n) * b) % n == a
            for c in units:
                assert div_mod(div_mod(a, b, n), c, n) == div_mod(a, b * c, n)


def test_factorize_examples():
    assert factorize(9).factors == (3, 3)
    assert factorize(15).factors == (3, 5)
    assert factorize(21).factors == (3, 7)
    assert factorize(33).factors == (3, 11)
    assert factorize(15).p_min == 3
    assert factorize(25).p_min == 5
    assert factorize(13).factors == (13,)
    assert factorize(13).is_prime
    assert not factorize(9).is_prime


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, 100, -9])
def test_factorize_domain(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorize_reconstructs_n():
    for n in range(3, 400, 2):
        fac = factorize(n)
        prod = 1
        for p in fac.factors:
            prod *= p
            # primality by trial division
            assert p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))
        assert prod == n
        assert fac.p_min == min(fac.factors)
        assert fac.factors == tuple(sorted(fac.factors))


def test_quad_exp_sum_frozen_value():
    # b=1, t=0, n=3: 1 + 2*exp(2*pi*i/3) = i*sqrt(3)
    value = quad_exp_sum(1, 0, 3)
    assert abs(value - 1j * math.sqrt(3)) < 1e-12


def test_quad_exp_sum_matches_term_accumulation():
    for n in ODD_MODULI:
        for b in range(-n, 2 * n):
            for t in range(-n, 2 * n):
                assert abs(quad_exp_sum(b, t, n) - term_sum(b, t, n)) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 9])
def test_quad_exp_sum_vanishes_off_divisor(n):
    for b in range(n):
        g = math.gcd(b, n)
        for t in range(n):
            s = quad_exp_sum(b, t, n)
            if t % g != 0:
                assert abs(s) <= 1e-10, (n, b, t, s)


def test_quad_exp_sum_nonzero_on_divisor():
    # gcd(1,3)=1 divides t=1, and the magnitude is sqrt(3)
    s = quad_exp_sum(1, 1, 3)
    assert abs(s) > 1.0
    assert abs(abs(s) - math.sqrt(3)) < 1e-12


# Multiples of n added to the arguments: past int64 both ways, and one
# inside int64 whose product with j^2 would wrap if not reduced first.
HUGE_SHIFTS = [2**64, -(2**64), 2**70 + 2**64, -(3 * 2**66), 2**62]


@pytest.mark.parametrize("n", [9, 45])
def test_quad_exp_sum_reduces_huge_arguments(n):
    for b in range(-2, 4):
        for t in range(-2, 4):
            expected = term_sum(b, t, n)
            for q in HUGE_SHIFTS:
                for r in HUGE_SHIFTS:
                    value = quad_exp_sum(b + q * n, t + r * n, n)
                    assert abs(value - expected) < 1e-9, (n, b, t, q, r)


def test_quad_exp_sum_huge_arguments_vanish():
    # 2**70 + 1 = 35 and -(2**65) = 13 (mod 45); gcd(35, 45) = 5 does not divide 13
    assert abs(quad_exp_sum(2**70 + 1, -(2**65), 45)) <= 1e-10


@pytest.mark.parametrize("n", [9, 45])
def test_shift_invariance_reduces_huge_arguments(n):
    for c1 in range(-2, 4):
        expected = term_sum(c1, 0, n)
        for q in HUGE_SHIFTS:
            for c2 in [q + 1, -q - 2, q * n]:
                lhs, rhs = shift_invariance_check(c1 + q * n, c2, n)
                assert abs(lhs - expected) < 1e-9, (n, c1, q, c2)
                assert abs(rhs - expected) < 1e-9, (n, c1, q, c2)


def test_shift_invariance_example():
    lhs, rhs = shift_invariance_check(1, 1, 9)
    assert abs(lhs - rhs) <= 1e-10
    assert abs(lhs - term_sum(1, 0, 9)) < 1e-9  # t=0 reduces to the plain sum


def test_shift_invariance_random_triples():
    import random

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(3, 100, 2)
        c1 = rng.randint(-100, 100)
        c2 = rng.randint(-100, 100)
        lhs, rhs = shift_invariance_check(c1, c2, n)
        assert abs(lhs - rhs) <= 1e-10


def test_bad_moduli_rejected():
    with pytest.raises(ValueError):
        quad_exp_sum(1, 0, 0)
    with pytest.raises(ValueError):
        shift_invariance_check(1, 1, -3)


def test_unit_phases_bitwise_equal_to_direct_exp():
    # the table lookup must give exactly the bits of one exp per phase up to
    # n/2, and past it exactly the conjugate of the phase at n - r
    rng = np.random.default_rng(11)
    for n in [*range(1, 201), 4096, 10007, 65537]:
        x = rng.integers(-(2**62), 2**62, size=64, dtype=np.int64)
        x[:3] = (-1, 0, -(2**62))
        r = x % n
        mirrored = np.conj(np.exp(2j * np.pi * ((n - r) % n) / n))
        direct = np.where(2 * r <= n, np.exp(2j * np.pi * r / n), mirrored)
        table = unit_phases(x, n)
        assert np.array_equal(table.view(np.uint64), direct.view(np.uint64)), n


def test_unit_phases_returns_a_fresh_array():
    phases = unit_phases([0, 1, 2], 5)
    phases[0] = 7
    assert unit_phases([0], 5)[0] == 1


def test_root_tables_are_read_only():
    for array in _roots(9):
        with pytest.raises(ValueError):
            array[0] = 1
    _, j, j_sq = _roots(9)
    assert j.tolist() == list(range(9))
    assert j_sq.tolist() == [k * k % 9 for k in range(9)]
