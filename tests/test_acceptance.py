"""Acceptance suite: every published claim checked at its stated tolerance.

Each criterion prints its own PASS/FAIL line (run pytest -s to see them
all) and then asserts, so a red line always points at the exact claim
that broke.
"""

import math
import random
from functools import lru_cache
from itertools import product

import numpy as np

from qfakit.circulant import ShiftMatrix, classify_special, quadratic_phase_circulant
from qfakit.divisibility import build_dfa, build_qfa, is_member, minimize_dfa
from qfakit.modular import factorize, quad_exp_sum
from qfakit.qfa import (
    LEFT_MARKER,
    RIGHT_MARKER,
    accept_probability,
    initial_superposition,
    step,
)
from oracles import is_unitary, iter_powers, shift_invariance_check

RECOGNIZER_NS = (3, 5, 7, 9, 15, 21)
PRIME_NS = (3, 5, 7, 11, 13)
COMPOSITE_NS = (9, 15, 21, 25, 27, 33)

PROB_TOL = 1e-9
UNITARY_TOL = 1e-9
ALGEBRA_TOL = 1e-12
SUM_TOL = 1e-10
RESIDUAL_TOL = 1e-12
SHUFFLE_TOL = 1e-12


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


def words_up_to(max_len):
    for length in range(max_len + 1):
        for letters in product("ab", repeat=length):
            yield "".join(letters)


def random_words(seed, count, max_len):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


@lru_cache(maxsize=None)
def power_profiles(n):
    rows = []
    for s, power in iter_powers(quadratic_phase_circulant(n).first_row, n):
        rows.append((s, classify_special(power), abs(power[0]) ** 2))
    return rows


def test_criterion_01_recognition_bounds():
    """Members accept with probability 1, non-members with at most 1/p_min."""
    failures = []
    for n in RECOGNIZER_NS:
        spec = build_qfa(n)
        bound = 1.0 / factorize(n).p_min
        words = list(words_up_to(8)) + random_words(1000 + n, 1000, 40)
        for word in words:
            p = accept_probability(spec, word)
            if is_member(word, n):
                if abs(p - 1.0) > PROB_TOL:
                    failures.append((n, word, p))
            elif p > bound + PROB_TOL:
                failures.append((n, word, p))
    report(1, "recognition bounds", not failures)
    assert not failures, failures[:5]


def test_criterion_02_state_count_gap():
    """n + 2 quantum states versus an already minimal n^2-state DFA."""
    failures = []
    for n in (3, 5, 7, 9, 25):
        spec = build_qfa(n)
        dfa = build_dfa(n)
        minimized = minimize_dfa(dfa)
        if spec.logical_state_count != n + 2:
            failures.append((n, "qfa", spec.logical_state_count))
        if len(dfa.states) != n * n:
            failures.append((n, "dfa", len(dfa.states)))
        if len(minimized.states) != n * n:
            failures.append((n, "minimized", len(minimized.states)))
    report(2, "state count gap", not failures)
    assert not failures, failures


def test_criterion_03_prime_power_classification():
    """For prime n, power s < n has l = 1 and k = 1/s; power n has l = n."""
    failures = []
    for n in PRIME_NS:
        for s, profile, _ in power_profiles(n):
            if profile is None:
                failures.append((n, s, "not special"))
            elif s < n:
                if (profile.l, profile.g) != (1, n) or profile.k != pow(s, -1, n):
                    failures.append((n, s, profile))
            elif profile.l != n:
                failures.append((n, s, profile))
    report(3, "prime power classification", not failures)
    assert not failures, failures


def test_criterion_04_composite_power_classification():
    """For composite odd n, powers below n stay sparse; p_min lands on l = p_min, k = 1."""
    failures = []
    for n in COMPOSITE_NS:
        p_min = factorize(n).p_min
        for s, profile, _ in power_profiles(n):
            if profile is None:
                failures.append((n, s, "not special"))
                continue
            if s < n and profile.l >= n:
                failures.append((n, s, profile))
            if s == n and profile.l != n:
                failures.append((n, s, profile))
            if s == p_min and (profile.l != p_min or profile.k != 1):
                failures.append((n, s, profile))
    report(4, "composite power classification", not failures)
    assert not failures, failures


def test_criterion_05_first_entry_bound():
    """|x0|^2 of the s-th power is 1 exactly at s = n and at most 1/p_min below."""
    failures = []
    for n in PRIME_NS + COMPOSITE_NS:
        p_min = factorize(n).p_min
        for s, _, x0_sq in power_profiles(n):
            if s % n == 0:
                if abs(x0_sq - 1.0) > PROB_TOL:
                    failures.append((n, s, x0_sq))
            else:
                if x0_sq > 1.0 / p_min + PROB_TOL:
                    failures.append((n, s, x0_sq))
                if abs(x0_sq - 1.0) <= PROB_TOL:
                    failures.append((n, s, "unit peak off-cycle"))
    report(5, "first entry bound", not failures)
    assert not failures, failures


def test_criterion_06_unitarity():
    """The letter circulants and their random unitary products stay unitary."""
    failures = []
    for n in range(3, 100, 2):
        if not is_unitary(quadratic_phase_circulant(n).first_row, UNITARY_TOL):
            failures.append(("base", n))
    rng = np.random.default_rng(2718)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        a, b = (
            ShiftMatrix(n, tuple(np.fft.ifft(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))))
            for _ in range(2)
        )
        if not (is_unitary(a.first_row, UNITARY_TOL) and is_unitary(b.first_row, UNITARY_TOL)):
            failures.append(("factor", n))
        elif not is_unitary((a @ b).first_row, UNITARY_TOL):
            failures.append(("product", n))
    report(6, "unitarity", not failures)
    assert not failures, failures


def test_criterion_07_first_row_algebra_matches_dense():
    """First-row products agree entrywise with dense matrix products and commute."""
    rng = np.random.default_rng(314)
    failures = []
    for _ in range(200):
        n = int(rng.integers(1, 33))
        rows = rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))
        a = ShiftMatrix(n, tuple(rows[0]))
        b = ShiftMatrix(n, tuple(rows[1]))
        dense = a.to_dense() @ b.to_dense()
        if np.abs((a @ b).to_dense() - dense).max() > ALGEBRA_TOL:
            failures.append(("product", n))
        ab, ba = (a @ b).first_row, (b @ a).first_row
        if max(abs(x - y) for x, y in zip(ab, ba)) > ALGEBRA_TOL:
            failures.append(("commutator", n))
    report(7, "first-row algebra vs dense", not failures)
    assert not failures, failures


def test_criterion_08_exponential_sums():
    """Quadratic sums vanish off the divisor lattice and ignore index shifts."""
    failures = []
    for n in (3, 5, 9, 15, 21):
        for b in range(n):
            g = math.gcd(b, n)
            for t in range(n):
                if t % g != 0 and abs(quad_exp_sum(b, t, n)) > SUM_TOL:
                    failures.append(("vanish", n, b, t))
    rng = random.Random(628)
    for _ in range(1000):
        n = rng.randrange(3, 100, 2)
        c1 = rng.randint(-100, 100)
        c2 = rng.randint(-100, 100)
        lhs, rhs = shift_invariance_check(c1, c2, n)
        if abs(lhs - rhs) > SUM_TOL:
            failures.append(("shift", n, c1, c2))
    report(8, "exponential sums", not failures)
    assert not failures, failures[:5]


def test_criterion_09_prime_tightness():
    """For prime n, single-letter non-members accept with exactly 1/n."""
    failures = []
    for n in (3, 5, 7):
        spec = build_qfa(n)
        for k in range(1, 3 * n + 1):
            if k % n == 0:
                continue
            p = accept_probability(spec, "a" * k)
            if abs(p - 1.0 / n) > PROB_TOL:
                failures.append((n, k, p))
    report(9, "prime tightness", not failures)
    assert not failures, failures


def test_criterion_10_simulator_integrity():
    """Probabilities conserve, residuals vanish, letter order never matters."""
    failures = []
    for n in (3, 9, 15):
        spec = build_qfa(n)
        words = random_words(9000 + n, 60, 40)
        for word in words:
            psi = initial_superposition(spec)
            acc = rej = 0.0
            prev_norm = 1.0
            for symbol in (LEFT_MARKER, *word, RIGHT_MARKER):
                psi, acc_inc, rej_inc = step(spec, psi, symbol)
                acc += acc_inc
                rej += rej_inc
                norm = float(np.linalg.norm(psi) ** 2)
                if norm > prev_norm + RESIDUAL_TOL:
                    failures.append((n, word, "norm grew"))
                prev_norm = norm
            if abs(acc + rej + prev_norm - 1.0) > PROB_TOL:
                failures.append((n, word, "conservation"))
            if prev_norm > RESIDUAL_TOL:
                failures.append((n, word, "residual"))
        rng = random.Random(77 + n)
        for word in words[:10]:
            p = accept_probability(spec, word)
            for _ in range(20):
                shuffled = "".join(rng.sample(word, len(word)))
                if abs(p - accept_probability(spec, shuffled)) > SHUFFLE_TOL:
                    failures.append((n, word, "shuffle"))
    report(10, "simulator integrity", not failures)
    assert not failures, failures[:5]
