"""Recognizers for the words whose letter counts are both divisible by n.

Over the alphabet {a, b}, the target language contains exactly the words
with #a = 0 (mod n) and #b = 0 (mod n).  Two machines are built for it:
a measure-many one-way quantum automaton whose source-level description
uses n + 2 states, and the classical product-counter DFA with n * n
states, which is already minimal.  The gap between those two sizes is
the point of the construction.  build_qfa gives the quantum recognizer
as a dense QfaSpec, the general machine and the oracle; build_diagonal_qfa
gives the same recognizer as a DiagonalQfa, built from the letters'
closed-form spectra and stepped in the DFT basis at O(n) per letter.

DFAs are int successor arrays; minimize_dfa is the general Moore minimizer,
and is_nerode_automaton certifies the language's minimal DFA in O(n**2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from .circulant import cyclic_shift_circulant, quadratic_phase_circulant, quadratic_power_spectra
from .modular import unit_phases
from .qfa import LEFT_MARKER, RIGHT_MARKER, DiagonalQfa, QfaSpec, _check_word

if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

    from .circulant import ShiftMatrix

ALPHABET = ("a", "b")
# build_qfa stores four dense (2n+1) x (2n+1) complex unitaries, so its
# memory grows as n**2: build_qfa(1001) took 0.6-0.8 s and 513 MB peak
# RSS on a 2-vCPU VM.  Above this n it raises ValueError before
# allocating anything.  build_diagonal_qfa needs O(n) memory, but it keeps
# the same cap until run and scan are measured above it.
DENSE_MAX_N = 1001


@dataclass(frozen=True)
class WordStats:
    count_a: int
    count_b: int


def word_stats(word: str) -> WordStats:
    """Letter counts of a word over the language's letters a and b; others are rejected."""
    _check_word(ALPHABET, word)
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
    """True when word, over the language's letters a and b, has both counts divisible by n."""
    stats = word_stats(word)
    return counts_in_language(stats.count_a, stats.count_b, n)


def _require_odd(n: int) -> None:
    if n <= 2 or n % 2 == 0:
        raise ValueError(f"expected odd n > 2, got {n}")


def _require_buildable(n: int) -> None:
    _require_odd(n)
    if n > DENSE_MAX_N:
        raise ValueError(
            f"n = {n} exceeds DENSE_MAX_N = {DENSE_MAX_N}, the largest n the"
            " quantum recognizer is built for"
        )


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
    ValueError for an even n, n < 3 or n > DENSE_MAX_N, before
    allocating the dense unitaries.
    """
    _require_buildable(n)
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


def build_diagonal_qfa(n: int) -> DiagonalQfa:
    """build_qfa(n) as a DiagonalQfa: the same outcome probabilities at O(n) per letter.

    The spectra are closed forms, not FFTs of the letters' rows: 'a' from
    quadratic_power_spectra, 'b' (the shift) exp(-2*pi*i * m / n).  Counter
    0 accepts at the right marker and every other counter rejects; the
    state counts are build_qfa's, n + 2 and 2n + 1.  Raises ValueError
    where build_qfa does: both check n by _require_buildable.
    """
    _require_buildable(n)
    return DiagonalQfa(
        input_alphabet=ALPHABET,
        spectra={"a": quadratic_power_spectra(n, [1])[0], "b": unit_phases(-np.arange(n), n)},
    )


class DfaSpec:
    """Complete DFA over {a, b}, stored as int arrays.

    A DFA with N states keeps its state names as the tuple ``states``, a
    read-only (2, N) int array ``successors`` whose row k sends each
    state index to its successor on ALPHABET[k], a read-only boolean
    ``accept_mask`` and the ``start_index``.  ``start``, ``accepting``
    and the nested dict ``delta`` are views derived from these;
    ``accepting`` and ``delta`` are built on first read and cached.

    ``DfaSpec(states, start, accepting, delta)`` converts names to arrays
    once and raises ValueError listing every unknown or missing name;
    ``DfaSpec.from_arrays`` takes the arrays directly.  Both store the
    names they are given.  build_dfa stores none: its ``states`` are
    spelled on first read and cached, so code that needs only the state
    count reads ``successors.shape[1]``.  A built DFA cannot be edited:
    attributes cannot be set and the arrays are read-only, in copies and
    unpickled DFAs too.
    """

    def __init__(
        self,
        states: tuple[str, ...],
        start: str,
        accepting: frozenset[str],
        delta: dict[str, dict[str, str]],
    ) -> None:
        names = tuple(states)
        index = {s: i for i, s in enumerate(names)}
        problems = [] if len(index) == len(names) else ["duplicate state names"]
        if start not in index:
            problems.append(f"unknown start state {start!r}")
        unknown = sorted(set(accepting) - index.keys())
        problems += [f"unknown accepting state {a!r}" for a in unknown]
        for s in names:
            moves = delta.get(s, {})
            for ch in ALPHABET:
                if ch not in moves:
                    problems.append(f"no {ch!r} transition from {s!r}")
                elif moves[ch] not in index:
                    problems.append(f"{s!r} on {ch!r} goes to unknown {moves[ch]!r}")
        if problems:
            raise ValueError("invalid DFA: " + "; ".join(problems))
        successors = np.array(
            [[index[delta[s][ch]] for s in names] for ch in ALPHABET], dtype=np.intp
        ).reshape(len(ALPHABET), len(names))
        accept_mask = np.zeros(len(names), dtype=bool)
        accept_mask[[index[a] for a in accepting]] = True
        self._freeze(names, successors, accept_mask, index[start])

    @classmethod
    def from_arrays(
        cls,
        states: tuple[str, ...],
        successors: np.ndarray,
        accept_mask: np.ndarray,
        start_index: int,
    ) -> DfaSpec:
        """DFA from its names, (2, N) successor indices, accepting mask and start.

        The arrays are copied.  Raises ValueError on a shape that does not
        fit N = len(states) or on an index outside 0..N-1.  The names must
        be distinct; they are not checked, since hashing a million names
        costs more than the rest of the build.
        """
        names = tuple(states)
        size = len(names)
        successors = np.array(successors, dtype=np.intp)
        accept_mask = np.array(accept_mask, dtype=bool)
        if successors.shape != (len(ALPHABET), size) or accept_mask.shape != (size,):
            raise ValueError(
                f"invalid DFA: successors {successors.shape} and accept mask"
                f" {accept_mask.shape} do not fit {size} states"
            )
        inside = size and 0 <= successors.min() and successors.max() < size
        if not (inside and 0 <= start_index < size):
            raise ValueError(f"invalid DFA: a state index is outside 0..{size - 1}")
        dfa = cls.__new__(cls)
        dfa._freeze(names, successors, accept_mask, int(start_index))
        return dfa

    def _freeze(
        self,
        names: tuple[str, ...] | Callable[[], tuple[str, ...]],
        successors: np.ndarray,
        accept_mask: np.ndarray,
        start_index: int,
    ) -> None:
        # names is the tuple of state names, or a function that spells it
        # when ``states`` is first read.
        successors.flags.writeable = False
        accept_mask.flags.writeable = False
        object.__setattr__(self, "states" if isinstance(names, tuple) else "_spell", names)
        object.__setattr__(self, "successors", successors)
        object.__setattr__(self, "accept_mask", accept_mask)
        object.__setattr__(self, "start_index", start_index)

    @cached_property
    def states(self) -> tuple[str, ...]:
        # Reached only when no tuple was stored, as in build_dfa.
        return self._spell()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: a DfaSpec is immutable")

    def __reduce__(self) -> tuple:
        # Copies and unpickled DFAs go through from_arrays, which copies
        # the arrays and makes them read-only again.
        return (
            DfaSpec.from_arrays,
            (self.states, self.successors, self.accept_mask, self.start_index),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DfaSpec):
            return NotImplemented
        # The names come last: build_dfa spells them only when read.
        return (
            self.start_index == other.start_index
            and np.array_equal(self.successors, other.successors)
            and np.array_equal(self.accept_mask, other.accept_mask)
            and self.states == other.states
        )

    def __repr__(self) -> str:
        return (
            f"DfaSpec({self.successors.shape[1]} states, start index {self.start_index},"
            f" {np.count_nonzero(self.accept_mask)} accepting)"
        )

    @property
    def start(self) -> str:
        return self.states[self.start_index]

    @cached_property
    def accepting(self) -> frozenset[str]:
        return frozenset(self.states[i] for i in np.flatnonzero(self.accept_mask).tolist())

    @cached_property
    def delta(self) -> dict[str, dict[str, str]]:
        names = self.states
        targets = zip(*([names[t] for t in row] for row in self.successors.tolist()))
        return {s: dict(zip(ALPHABET, moves)) for s, moves in zip(names, targets)}

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "start": self.start,
            "accept": sorted(self.accepting),
            "delta": self.delta,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> DfaSpec:
        """Rebuild a DFA; raises ValueError listing every unknown or missing name."""
        return cls(
            states=tuple(data["states"]),
            start=data["start"],
            accepting=frozenset(data["accept"]),
            delta=data["delta"],
        )


def _counter_names(n: int) -> tuple[str, ...]:
    # The names of build_dfa(n)'s states, a{i}b{j} at index i * n + j.
    b_names = [f"b{j}" for j in range(n)]
    return tuple([f"a{i}" + b for i in range(n) for b in b_names])


def build_dfa(n: int) -> DfaSpec:
    """Product of two mod-n letter counters; n * n states, all reachable.

    State a{i}b{j} counts i = #a and j = #b mod n and has index i * n + j,
    so the successor arrays follow from divmod arithmetic alone.  The
    names are spelled on the first read of ``states``: at n = 1001 they
    are most of the build's time and memory, and compare never reads them.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    i, j = np.divmod(np.arange(n * n), n)
    successors = np.stack(((i + 1) % n * n + j, i * n + (j + 1) % n))
    dfa = DfaSpec.__new__(DfaSpec)
    dfa._freeze(partial(_counter_names, n), successors, np.arange(n * n) == 0, 0)
    return dfa


def _reachable(successors: np.ndarray, start: int) -> np.ndarray:
    # Breadth-first search over the successor arrays.  The seen mask is
    # allocated once and each level touches only its frontier's
    # successors, so a level costs O(f log f) for a frontier of f states:
    # the n * n product counter has 2n - 1 levels, and an O(N) pass per
    # level would make the search O(n**3).  Repeats are dropped by sorting
    # them next to each other and keeping the first of each run; np.unique
    # took three times as long, np.diff with prepend 1.4 times (numpy 2.4,
    # n = 1001).  Each level makes as few numpy calls as it can: take
    # instead of a fancy index, a mask of unseen states so that no level
    # inverts it, an in-place sort and a run mask with only its first
    # entry set.  Against np.sort, np.ones and a seen mask this took
    # 0.73 -> 0.41 ms at n = 45, 99 -> 57 ms at n = 1001 and 56 -> 42 ms
    # on a random DFA of 10**6 states.  A dedupe by scatter into an owner
    # slot, with no sort, won up to n = 301 but was 1.3 times slower at
    # n = 1001 and twice as slow on the random DFA.
    unseen = np.ones(successors.shape[1], dtype=bool)
    unseen[start] = False
    frontier = np.array([start])
    while frontier.size:
        successor = successors.take(frontier, axis=1).ravel()
        successor = successor[unseen[successor]]
        successor.sort()
        first = np.empty(successor.size, dtype=bool)
        first[:1] = True
        np.not_equal(successor[1:], successor[:-1], out=first[1:])
        frontier = successor[first]
        unseen[frontier] = False
    return ~unseen


def is_nerode_automaton(dfa: DfaSpec, n: int) -> bool:
    """True exactly when dfa is L_n's Nerode automaton up to state indices.

    S[i, j] is the state b^j a^i reaches from the start: n steps on 'b',
    then one gather on 'a' per row, contiguous on the product counter.
    dfa must have n * n states, 'a' must send S[i, j] to S[i + 1, j] and
    'b' to S[i, j + 1] (mod n), and S[i, j] must accept exactly when
    counts_in_language(i, j, n).  Then a word with counts (i, j) mod n
    ends in S[i, j], so dfa recognizes L_n.  The suffix a^(n - i) b^(n - j)
    leads from S[i, j] to the accepting S[0, 0] and from S[i', j'] to the
    rejecting S[i' - i, j' - j], for (i', j') != (i, j): so S is a bijection
    onto the n * n states, and no DFA of L_n has fewer.  O(n**2).
    """
    succ_a, succ_b = dfa.successors
    if succ_a.size != n * n:
        return False
    grid = np.empty((n, n), dtype=np.intp)  # S
    grid[0, 0] = dfa.start_index
    for j in range(1, n):
        grid[0, j] = succ_b.item(grid.item(0, j - 1))
    for i in range(1, n):
        grid[i] = succ_a[grid[i - 1]]
    counts = np.arange(n)
    return bool(
        (succ_a[grid] == np.roll(grid, -1, axis=0)).all()
        and (succ_b[grid] == np.roll(grid, -1, axis=1)).all()
        and (dfa.accept_mask[grid] == counts_in_language(counts[:, None], counts, n)).all()
    )


def _rerank(keys: np.ndarray) -> np.ndarray:
    # Dense ranks of keys, 0 for the smallest, the same as np.unique's
    # inverse: one argsort, a mark where sorted neighbours differ, and their
    # cumsum scattered back.  Without np.unique's general wrapper Moore's
    # refinement took 7-10% less time at n = 25-45 (numpy 2.4).  Ties may
    # come out in any order without changing a rank, and the stable sort
    # is the faster one on Moore's keys: few distinct values in a periodic
    # layout.  On build_dfa(35)'s rounds the default argsort took 17-38 us
    # against 5-19 us, and minimize_dfa(build_dfa(101)) went 108 -> 40 ms.
    # On random keys timsort is slower than the default SIMD quicksort:
    # minimizing a random DFA of 10**4 states went 8.7 -> 11.4 ms, of
    # 10**5 states 86 -> 156 ms.  Nothing minimizes a random DFA of more
    # than 40 states; the product counter is what the package minimizes.
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    differ = np.empty(keys.size, dtype=bool)
    differ[:1] = False
    np.not_equal(ordered[1:], ordered[:-1], out=differ[1:])
    rank = np.empty(keys.size, dtype=np.intp)
    rank[order] = differ.cumsum()
    return rank


def minimize_dfa(dfa: DfaSpec) -> DfaSpec:
    """Canonical minimal DFA with the same language.

    Unreachable states are pruned; Moore's signature refinement then starts
    from the accept/reject split and, letter by letter, re-ranks blocks by
    the pair (own block, successor's block) until a full round over the
    alphabet adds no block, or every block is one state, as in a DFA that
    is already minimal.  Each round but the last adds one, so N states
    take at most N rounds of O(N log N) sorting: O(N^2 log N) for a chain
    that splits once per round, n rounds for the n * n product counter.
    A class is named after its lexicographically smallest member; classes
    keep the order of their first member.  All of it runs on the
    successor arrays; only the class names are compared as strings.
    """
    seen = _reachable(dfa.successors, dfa.start_index)
    kept = np.flatnonzero(seen)
    renumber = np.cumsum(seen) - 1
    succ = renumber[dfa.successors[:, kept]]
    accept = dfa.accept_mask[kept]
    size = len(kept)
    block = _rerank(accept)  # block ids are dense ranks throughout
    count = 0
    while count != block.max() + 1:
        count = block.max() + 1
        if count == size:
            break  # every block is one state and cannot split again
        # Re-ranking after each letter keeps the keys below N**2.
        for nxt in succ:
            block = _rerank(block * size + block[nxt])

    # Number the classes by their first member.
    _, first = np.unique(block, return_index=True)
    cls = _rerank(first[block])
    heads = np.sort(first)
    states = dfa.states
    names = [states[i] for i in kept.tolist()]
    smallest = [names[h] for h in heads.tolist()]
    if count < size:  # some class has more than one member
        for name, c in zip(names, cls.tolist()):
            if name < smallest[c]:
                smallest[c] = name
    return DfaSpec.from_arrays(
        smallest, cls[succ[:, heads]], accept[heads], int(cls[renumber[dfa.start_index]])
    )
