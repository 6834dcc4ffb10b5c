"""Recognizers for the words whose letter counts are both divisible by n.

Over the alphabet {a, b}, the target language contains exactly the words
with #a = 0 (mod n) and #b = 0 (mod n).  Two machines are built for it:
a measure-many one-way quantum automaton whose source-level description
uses n + 2 states, and the classical product-counter DFA with n * n
states, which is already minimal.  The gap between those two sizes is
the point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circulant import ShiftMatrix, cyclic_shift_circulant, quadratic_phase_circulant
from .qfa import LEFT_MARKER, RIGHT_MARKER, QfaSpec

if TYPE_CHECKING:
    from fractions import Fraction

ALPHABET = ("a", "b")
# build_qfa stores four dense (2n+1) x (2n+1) complex unitaries, so its
# memory grows as n**2: build_qfa(1001) took 0.6-0.8 s and 513 MB peak
# RSS on a 2-vCPU VM.  Above this n it raises ValueError before
# allocating anything.
DENSE_MAX_N = 1001


@dataclass(frozen=True)
class WordStats:
    count_a: int
    count_b: int


def word_stats(word: str) -> WordStats:
    """Letter counts of a word over {a, b}; other symbols are rejected."""
    for ch in word:
        if ch not in ALPHABET:
            raise ValueError(f"symbol {ch!r} not in the input alphabet")
    return WordStats(word.count("a"), word.count("b"))


def counts_in_language(
    count_a: int | np.ndarray, count_b: int | np.ndarray, n: int
) -> bool | np.ndarray:
    """True where both letter counts are divisible by n.

    The counts may be ints or numpy integer arrays of one shape; arrays
    give a boolean array.  Every membership test in the package goes
    through here.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return (count_a % n == 0) & (count_b % n == 0)


def is_member(word: str, n: int) -> bool:
    """True when both letter counts of word are divisible by n."""
    stats = word_stats(word)
    return counts_in_language(stats.count_a, stats.count_b, n)


def _require_odd(n: int) -> None:
    if n <= 2 or n % 2 == 0:
        raise ValueError(f"expected odd n > 2, got {n}")


def exact_accept_probability(n: int, count_a: int, count_b: int) -> Fraction:
    """Exact acceptance probability of build_qfa(n) on any word with these counts.

    With g = gcd(count_a, n), the a-letters leave the counter spread
    over the multiples of g, each with weight g / n, and the b-letters
    shift it by count_b; the right marker accepts counter state 0.  So
    the result is g / n when g divides count_b and 0 otherwise.  For a
    non-member the largest value is 1 / p_min, at count_a = n / p_min.
    """
    # Imported here: fractions pulls in decimal, about 2.5 ms at start-up.
    from fractions import Fraction

    _require_odd(n)
    if count_a < 0 or count_b < 0:
        raise ValueError(f"letter counts must be non-negative, got {count_a}, {count_b}")
    g = math.gcd(count_a, n)
    return Fraction(g, n) if count_b % g == 0 else Fraction(0)


def _embed_circulant(block: ShiftMatrix, dim: int) -> np.ndarray:
    # Circulant on the counter states, identity on the halting block.
    matrix = np.eye(dim, dtype=complex)
    matrix[: block.n, : block.n] = block.to_dense()
    return matrix


def build_qfa(n: int) -> QfaSpec:
    """Quantum recognizer with n counter states, for odd n > 2.

    Letter 'a' applies the quadratic-phase circulant on the counter
    states, letter 'b' the cyclic shift; both act as the identity on the
    halting states, so nothing halts mid-word.  The right marker sends
    counter state 0 to the accepting state and counter state i > 0 to
    its own rejecting channel.  The source-level description has n + 2
    states (counters, one accepting, one rejecting); making the
    many-to-one rejecting map unitary costs n - 2 extra rejecting
    channels plus a completion on the halting block, giving 2n + 1
    realized basis states.  The extra channels only split where rejected
    amplitude lands, so no outcome probability changes.  Raises
    ValueError above DENSE_MAX_N, before allocating the dense unitaries.
    """
    _require_odd(n)
    if n > DENSE_MAX_N:
        raise ValueError(
            f"n = {n} exceeds DENSE_MAX_N = {DENSE_MAX_N}: the four dense"
            f" unitaries would need {64 * (2 * n + 1) ** 2 / 1e9:.1f} GB"
        )
    counters = tuple(f"q{i}" for i in range(n))
    channels = tuple(f"rej{i}" for i in range(1, n))
    states = counters + ("acc", "rej") + channels
    dim = len(states)

    # The right marker sends basis state i to target[i], in the order of
    # states: q0 -> acc, q_i -> rej_i and, to complete the permutation,
    # acc -> q0, rej -> rej, rej_i -> q_i.  The halting states carry no
    # amplitude when the marker arrives, so any unitary completion gives
    # the same run statistics.
    target = np.concatenate(([n], np.arange(n + 2, dim), [0, n + 1], np.arange(1, n)))

    unitaries = {
        "a": _embed_circulant(quadratic_phase_circulant(n), dim),
        "b": _embed_circulant(cyclic_shift_circulant(n), dim),
        LEFT_MARKER: np.eye(dim, dtype=complex),
        RIGHT_MARKER: np.eye(dim, dtype=complex)[target],
    }
    return QfaSpec(
        states=states,
        input_alphabet=ALPHABET,
        start="q0",
        accepting=frozenset({"acc"}),
        rejecting=frozenset({"rej", *channels}),
        unitaries=unitaries,
        logical_state_count=n + 2,
    )


@dataclass(frozen=True)
class DfaSpec:
    """Complete DFA over {a, b}."""

    states: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    delta: dict[str, dict[str, str]]

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "start": self.start,
            "accept": sorted(self.accepting),
            "delta": {s: dict(self.delta[s]) for s in self.states},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> DfaSpec:
        """Rebuild a DFA; raises ValueError listing every unknown or missing name."""
        dfa = cls(
            states=tuple(data["states"]),
            start=data["start"],
            accepting=frozenset(data["accept"]),
            delta={s: dict(moves) for s, moves in data["delta"].items()},
        )
        known = set(dfa.states)
        problems = [] if dfa.start in known else [f"unknown start state {dfa.start!r}"]
        problems += [f"unknown accepting state {a!r}" for a in sorted(dfa.accepting - known)]
        for s in dfa.states:
            moves = dfa.delta.get(s, {})
            for ch in ALPHABET:
                if ch not in moves:
                    problems.append(f"no {ch!r} transition from {s!r}")
                elif moves[ch] not in known:
                    problems.append(f"{s!r} on {ch!r} goes to unknown {moves[ch]!r}")
        if problems:
            raise ValueError("invalid DFA: " + "; ".join(problems))
        return dfa


def build_dfa(n: int) -> DfaSpec:
    """Product of two mod-n letter counters; n * n states, all reachable."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")

    def name(i: int, j: int) -> str:
        return f"a{i}b{j}"

    states = tuple(name(i, j) for i in range(n) for j in range(n))
    delta = {
        name(i, j): {"a": name((i + 1) % n, j), "b": name(i, (j + 1) % n)}
        for i in range(n)
        for j in range(n)
    }
    return DfaSpec(states, name(0, 0), frozenset({name(0, 0)}), delta)


def dfa_accepts(dfa: DfaSpec, word: str) -> bool:
    state = dfa.start
    for ch in word:
        if ch not in ALPHABET:
            raise ValueError(f"symbol {ch!r} not in the input alphabet")
        state = dfa.delta[state][ch]
    return state in dfa.accepting


def minimize_dfa(dfa: DfaSpec) -> DfaSpec:
    """Canonical minimal DFA with the same language.

    Unreachable states are pruned; Moore's signature refinement then starts
    from the accept/reject split and, letter by letter, re-ranks blocks by
    the pair (own block, successor's block) until a full round over the
    alphabet adds no block.  Each round but the last adds one, so N states
    take at most N rounds of O(N log N) sorting: O(N^2 log N) for a chain
    that splits once per round, n rounds for the n * n product counter.
    A class is named after its lexicographically smallest member; classes
    keep the order of their first member.
    """
    reachable = {dfa.start}
    frontier = [dfa.start]
    while frontier:
        state = frontier.pop()
        for ch in ALPHABET:
            nxt = dfa.delta[state][ch]
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    position = {s: i for i, s in enumerate(dfa.states)}
    states = sorted(reachable, key=position.__getitem__)

    index = {s: i for i, s in enumerate(states)}
    succ = [np.array([index[dfa.delta[s][ch]] for s in states]) for ch in ALPHABET]
    block = np.array([s in dfa.accepting for s in states], dtype=np.int64)
    count = 0
    while count != block.max() + 1:
        count = block.max() + 1
        # Re-ranking after each letter keeps the keys below N**2.
        for nxt in succ:
            _, block = np.unique(block * len(states) + block[nxt], return_inverse=True)

    members: dict[int, list[str]] = {}
    for s, b in zip(states, block.tolist()):
        members.setdefault(b, []).append(s)
    class_of = {s: min(group) for group in members.values() for s in group}
    new_states = tuple(min(group) for group in members.values())
    new_delta = {
        rep: {ch: class_of[dfa.delta[rep][ch]] for ch in ALPHABET}
        for rep in new_states
    }
    new_accepting = frozenset(rep for rep in new_states if rep in dfa.accepting)
    return DfaSpec(new_states, class_of[dfa.start], new_accepting, new_delta)
