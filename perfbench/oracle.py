"""Exact oracles for the benchmark and the gate that counts their misses.

Nothing here calls qfakit: every expected value comes from a closed form.

- Acceptance: for the n-counter recognizer, a word with #a = x and
  #b = y is accepted with probability gcd(x, n)/n when gcd(x, n) divides
  y, and 0 otherwise (gcd(0, n) = n, so members accept with 1).
- Circulant powers: the s-th power of the quadratic-phase circulant is
  sparse with l = gcd(s, n), g = n/l, k = (s/l)^-1 mod g, |c|^2 = l/n,
  and its first entry has |x0|^2 = l/n.
- Quadratic exponential sums: sum_j e((b j^2 - 2 j t)/m) vanishes when
  gcd(b, m) does not divide t and has modulus sqrt(m * gcd(b, m))
  otherwise, for odd m.
- The product-counter DFA for n is minimal: it keeps n * n states.
"""

from __future__ import annotations

import math

PROB_TOL = 1e-9
SHUFFLE_TOL = 1e-12
SUM_TOL = 1e-10


class Gate:
    """Counts checks attempted and failed, and keeps the first misses."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.worst: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 10:
                self.misses.append(what)

    def close(self, kind: str, got: float, want: float, tol: float, what: str) -> None:
        """Check |got - want| <= tol and track the worst error per kind."""
        err = abs(got - want)
        if math.isnan(err):
            err = math.inf
        self.worst[kind] = max(self.worst.get(kind, 0.0), err)
        self.check(err <= tol, f"{what}: got {got!r}, want {want!r} within {tol:g}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed_frac,
            "worst_error": self.worst,
            "first_misses": self.misses,
        }


def exact_accept(n: int, count_a: int, count_b: int) -> float:
    g = math.gcd(count_a, n)
    return g / n if count_b % g == 0 else 0.0


def is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def is_member(word: str, n: int) -> bool:
    return word.count("a") % n == 0 and word.count("b") % n == 0


def check_probabilities(
    gate: Gate, n: int, word: str, p_accept: float, p_reject: float, p_residual: float
) -> None:
    """p_accept against the closed form, and conservation of probability."""
    exact = exact_accept(n, word.count("a"), word.count("b"))
    gate.close("p_accept", p_accept, exact, PROB_TOL, f"p_accept n={n} len={len(word)}")
    total = p_accept + p_reject + p_residual
    gate.close("conservation", total, 1.0, PROB_TOL, f"p_acc+p_rej+p_res n={n} len={len(word)}")


def check_shuffle(gate: Gate, p: float, p_shuffled: float, what: str) -> None:
    gate.close("shuffle_delta", p_shuffled, p, SHUFFLE_TOL, f"shuffle delta {what}")


def power_profile(n: int, s: int) -> tuple[int, int, int]:
    """(l, g, k) of the s-th power of the quadratic-phase circulant, 1 <= s <= n."""
    l = math.gcd(s, n)
    g = n // l
    k = pow(s // l, -1, g) if g > 1 else 0
    return l, g, k


def check_power(
    gate: Gate, n: int, s: int, lgk: tuple[int, int, int] | None, c_abs: float, x0_sq: float
) -> None:
    """One classified power against its exact (l, g, k), |c| and |x0|^2."""
    want = power_profile(n, s)
    gate.check(lgk == want, f"power n={n} s={s}: (l, g, k) {lgk} != {want}")
    l = want[0]
    gate.close("power_c_abs", c_abs, math.sqrt(l / n), PROB_TOL, f"|c| n={n} s={s}")
    gate.close("power_x0_sq", x0_sq, l / n, PROB_TOL, f"|x0|^2 n={n} s={s}")


def check_quad_sum(gate: Gate, b: int, t: int, m: int, value: complex) -> None:
    g = math.gcd(b, m)
    what = f"quad_exp_sum(b={b}, t={t}, m={m})"
    if t % g:
        gate.close("quad_sum_vanish", abs(value), 0.0, SUM_TOL, what)
    else:
        gate.close("quad_sum_modulus", abs(value), math.sqrt(m * g), PROB_TOL, what)


def check_dfa_count(gate: Gate, n: int, count: int) -> None:
    gate.check(count == n * n, f"minimized DFA for n={n} has {count} states, want {n * n}")


def self_test() -> Gate:
    """Feed the checks known-good values plus two wrong ones.

    A gate that cannot fail certifies nothing: the returned gate must
    show exactly two failures, one from a probability perturbed by 1e-6
    and one from a minimized DFA count that is off by one.
    """
    gate = Gate()
    n, word = 21, "a" * 7 + "b" * 14  # gcd(7, 21) = 7 divides 14: p = 1/3
    p = exact_accept(n, 7, 14)
    check_probabilities(gate, n, word, p, 1.0 - p, 0.0)
    check_probabilities(gate, n, word, p + 1e-6, 1.0 - p - 1e-6, 0.0)
    check_dfa_count(gate, 31, 31 * 31)
    check_dfa_count(gate, 31, 31 * 31 - 1)
    return gate
