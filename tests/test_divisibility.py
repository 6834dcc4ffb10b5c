import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfakit import cli, divisibility
from qfakit.divisibility import (
    ALPHABET,
    _reachable,
    _rerank,
    DENSE_MAX_N,
    DfaSpec,
    WordStats,
    build_dfa,
    build_qfa,
    counts_in_language,
    exact_accept_probability,
    is_member,
    is_nerode_automaton,
    minimize_dfa,
    word_stats,
)
from qfakit.modular import factorize
from qfakit.qfa import LEFT_MARKER, RIGHT_MARKER, accept_probability, run_many, validate
from oracles import dfa_accepts


def words_up_to(max_len):
    for length in range(max_len + 1):
        for letters in product(ALPHABET, repeat=length):
            yield "".join(letters)


def run_from(dfa, state, word):
    for ch in word:
        state = dfa.delta[state][ch]
    return state in dfa.accepting


def distinguishable(dfa, p, q):
    # closure over state pairs; equivalent iff no reachable pair splits
    seen = {(p, q)}
    frontier = [(p, q)]
    while frontier:
        x, y = frontier.pop()
        if (x in dfa.accepting) != (y in dfa.accepting):
            return True
        for ch in ALPHABET:
            pair = (dfa.delta[x][ch], dfa.delta[y][ch])
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return False


def random_dfa(rng, size):
    states = tuple(f"s{i}" for i in range(size))
    delta = {
        s: {ch: states[rng.randrange(size)] for ch in ALPHABET} for s in states
    }
    accepting = frozenset(s for s in states if rng.random() < 0.4)
    return DfaSpec(states, states[0], accepting, delta)


def test_word_stats_counts():
    stats = word_stats("abbab")
    assert (stats.count_a, stats.count_b) == (2, 3)
    assert word_stats("") == WordStats(0, 0)
    with pytest.raises(ValueError):
        word_stats("abc")


def test_is_member_basics():
    assert is_member("", 3)
    assert is_member("aaabbb", 3)
    assert is_member("aaa", 3) and is_member("bbb", 3)
    assert not is_member("ab", 3)
    assert not is_member("aaab", 3)
    assert is_member("ab", 1)  # modulus 1 accepts everything
    with pytest.raises(ValueError):
        is_member("a", 0)


def test_counts_in_language_on_arrays_matches_is_member():
    # n = 1001 does not fit the uint8 range: the counts' dtype must not
    # limit the modulus.
    for n in (3, 5, 1001):
        count_a, count_b = np.meshgrid(np.arange(2 * n + 2), [0, 1, n, 2 * n], indexing="ij")
        for dtype in (np.uint16, np.int64):
            got = counts_in_language(count_a.astype(dtype), count_b.astype(dtype), n)
            assert got.dtype == bool
            expected = [
                [is_member("a" * int(i) + "b" * int(j), n) for i, j in zip(ra, rb)]
                for ra, rb in zip(count_a, count_b)
            ]
            assert got.tolist() == expected
    assert counts_in_language(6, 9, 3) is True
    with pytest.raises(ValueError):
        counts_in_language(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), 0)


def test_membership_is_count_based_only():
    rng = random.Random(5)
    for _ in range(50):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
        shuffled = "".join(rng.sample(word, len(word)))
        assert is_member(word, 3) == is_member(shuffled, 3)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_build_qfa_structure(n):
    spec = build_qfa(n)
    assert validate(spec) == []
    assert spec.logical_state_count == n + 2
    assert len(spec.states) == 2 * n + 1
    assert spec.start == "q0"
    assert spec.accepting == {"acc"}
    assert len(spec.rejecting) == n  # one named channel plus n-1 routed ones


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, -3, 10])
def test_build_qfa_rejects_bad_moduli(bad):
    with pytest.raises(ValueError):
        build_qfa(bad)


def test_build_qfa_refuses_dense_build_above_cap():
    with pytest.raises(ValueError, match="DENSE_MAX_N"):
        build_qfa(DENSE_MAX_N + 2)


def test_letter_unitaries_commute():
    for n in [3, 5, 9]:
        spec = build_qfa(n)
        a, b = spec.unitaries["a"], spec.unitaries["b"]
        assert np.abs(a @ b - b @ a).max() <= 1e-12


def test_marker_unitaries():
    spec = build_qfa(5)
    np.testing.assert_array_equal(spec.unitaries[LEFT_MARKER], np.eye(spec.dim))
    end = spec.unitaries[RIGHT_MARKER]
    index = {s: i for i, s in enumerate(spec.states)}
    assert end[index["q0"], index["acc"]] == 1.0
    for i in range(1, 5):
        assert end[index[f"q{i}"], index[f"rej{i}"]] == 1.0
    # permutation: exactly one unit entry per row and column
    assert np.array_equal(np.abs(end).sum(axis=0), np.ones(spec.dim))
    assert np.array_equal(np.abs(end).sum(axis=1), np.ones(spec.dim))


@pytest.mark.parametrize("n", [3, 5])
def test_qfa_certifies_membership_exhaustively(n):
    spec = build_qfa(n)
    bound = 1 / 3 if n == 3 else 1 / 5
    for word in words_up_to(7):
        p = accept_probability(spec, word)
        if is_member(word, n):
            assert abs(p - 1) <= 1e-9, word
        else:
            assert p <= bound + 1e-9, word


def test_build_dfa_structure():
    dfa = build_dfa(3)
    assert len(dfa.states) == 9
    assert dfa.start == "a0b0"
    assert dfa.accepting == {"a0b0"}
    assert dfa.delta["a0b0"]["a"] == "a1b0"
    assert dfa.delta["a2b1"]["a"] == "a0b1"
    assert dfa.delta["a2b1"]["b"] == "a2b2"


def test_build_dfa_modulus_one():
    dfa = build_dfa(1)
    assert len(dfa.states) == 1
    assert dfa_accepts(dfa, "abba")


def test_build_dfa_rejects_bad_modulus():
    with pytest.raises(ValueError):
        build_dfa(0)


@pytest.mark.parametrize("n", [3, 5])
def test_dfa_agrees_with_membership(n):
    dfa = build_dfa(n)
    for word in words_up_to(7):
        assert dfa_accepts(dfa, word) == is_member(word, n), word


def test_dfa_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        dfa_accepts(build_dfa(3), "ax")


@pytest.mark.parametrize("n", [3, 5, 7])
def test_counter_dfa_is_already_minimal(n):
    dfa = build_dfa(n)
    small = minimize_dfa(dfa)
    assert len(small.states) == n * n
    # independent certificate: every state pair is distinguishable
    for i, p in enumerate(dfa.states):
        for q in dfa.states[i + 1 :]:
            assert distinguishable(dfa, p, q), (p, q)


def test_minimize_merges_duplicated_state():
    # s1 and s2 behave identically, so a 3-state machine shrinks to 2
    dfa = DfaSpec(
        states=("s0", "s1", "s2"),
        start="s0",
        accepting=frozenset({"s1", "s2"}),
        delta={
            "s0": {"a": "s1", "b": "s2"},
            "s1": {"a": "s0", "b": "s0"},
            "s2": {"a": "s0", "b": "s0"},
        },
    )
    small = minimize_dfa(dfa)
    assert len(small.states) == 2
    for word in words_up_to(6):
        assert dfa_accepts(small, word) == dfa_accepts(dfa, word)
    assert small.states == ("s0", "s1")
    assert small.start == "s0"
    assert small.accepting == frozenset({"s1"})
    assert small.delta == {
        "s0": {"a": "s1", "b": "s1"},
        "s1": {"a": "s0", "b": "s0"},
    }


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_minimize_cycle_needs_many_rounds(m):
    # a walks a 2m-cycle accepting at 0 and m, b stays put: state i and
    # i + m agree on every word, and telling the rest apart takes up to
    # m - 1 letters, so refinement runs for many rounds
    states = tuple(f"c{i:02d}" for i in range(2 * m))
    dfa = DfaSpec(
        states=states,
        start=states[0],
        accepting=frozenset({states[0], states[m]}),
        delta={
            s: {"a": states[(i + 1) % (2 * m)], "b": s} for i, s in enumerate(states)
        },
    )
    small = minimize_dfa(dfa)
    assert small.states == states[:m]
    assert small.accepting == frozenset({states[0]})
    for word in words_up_to(8):
        assert dfa_accepts(small, word) == dfa_accepts(dfa, word), word
    for i, p in enumerate(small.states):
        for q in small.states[i + 1 :]:
            assert distinguishable(small, p, q), (p, q)


def test_minimize_prunes_unreachable_states():
    dfa = DfaSpec(
        states=("s0", "island"),
        start="s0",
        accepting=frozenset({"island"}),
        delta={
            "s0": {"a": "s0", "b": "s0"},
            "island": {"a": "island", "b": "island"},
        },
    )
    small = minimize_dfa(dfa)
    assert small.states == ("s0",)
    assert small.accepting == frozenset()


def test_minimize_random_dfas_language_and_minimality():
    rng = random.Random(99)
    for _ in range(25):
        dfa = random_dfa(rng, rng.randint(2, 8))
        small = minimize_dfa(dfa)
        assert len(small.states) <= len(dfa.states)
        for word in words_up_to(6):
            assert dfa_accepts(small, word) == dfa_accepts(dfa, word)
        # fixpoint: minimizing again changes nothing
        again = minimize_dfa(small)
        assert len(again.states) == len(small.states)
        # certificate: no two surviving states are equivalent
        for i, p in enumerate(small.states):
            for q in small.states[i + 1 :]:
                assert distinguishable(small, p, q)


def reachable_from(dfa, start):
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in dfa.delta[frontier.pop()].values():
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_minimize(dfa):
    # Reachable states in their order, grouped by the pair closure; a class
    # keeps the order of its first member and the name of its smallest.
    reachable = reachable_from(dfa, dfa.start)
    classes = []
    for s in (s for s in dfa.states if s in reachable):
        for group in classes:
            if not distinguishable(dfa, group[0], s):
                group.append(s)
                break
        else:
            classes.append([s])
    name = {s: min(group) for group in classes for s in group}
    states = tuple(min(group) for group in classes)
    delta = {rep: {ch: name[dfa.delta[rep][ch]] for ch in ALPHABET} for rep in states}
    accepting = frozenset(rep for rep in states if rep in dfa.accepting)
    return states, name[dfa.start], accepting, delta


def test_minimize_matches_pair_closure_reference_on_shuffled_names():
    rng = random.Random(2024)
    for _ in range(60):
        size = rng.randint(1, 10)
        # Shuffled names, so name order and index order disagree.
        states = [f"s{i}" for i in range(size)]
        rng.shuffle(states)
        delta = {s: {ch: rng.choice(states) for ch in ALPHABET} for s in states}
        accepting = frozenset(s for s in states if rng.random() < 0.4)
        dfa = DfaSpec(tuple(states), rng.choice(states), accepting, delta)
        small = minimize_dfa(dfa)
        assert (small.states, small.start, small.accepting, small.delta) == reference_minimize(dfa)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=st.integers(1, 12))
def test_minimize_keeps_every_state_of_a_permutation_dfa(data, size):
    # One accepting state, letters that permute, every state reachable:
    # such a DFA is minimal, so nothing may merge.
    names = data.draw(st.permutations([f"q{i}" for i in range(size)]))
    perms = [data.draw(st.permutations(range(size))) for _ in ALPHABET]
    successors = np.array(perms)
    accepting = np.arange(size) == data.draw(st.integers(0, size - 1))
    dfa = DfaSpec.from_arrays(names, successors, accepting, 0)
    assume(len(reachable_from(dfa, dfa.start)) == size)
    assert minimize_dfa(dfa) == dfa


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=st.integers(1, 30), island=st.integers(0, 10))
def test_reachable_matches_a_set_search(data, size, island):
    # The first size states link among themselves (self-loops included);
    # the island states may point anywhere, so none of them is reached
    # from a start among the first size.
    total = size + island
    successors = np.array(
        [
            data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
            + data.draw(st.lists(st.integers(0, total - 1), min_size=island, max_size=island))
            for _ in ALPHABET
        ]
    )
    start = data.draw(st.integers(0, size - 1))
    dfa = DfaSpec.from_arrays([f"q{i}" for i in range(total)], successors, np.arange(total) == 0, start)
    want = {int(name[1:]) for name in reachable_from(dfa, dfa.start)}
    assert np.flatnonzero(_reachable(dfa.successors, start)).tolist() == sorted(want)


@pytest.mark.parametrize(
    "name, successors, start",
    [
        # Every state steps to state 3 on both letters.
        ("funnel", np.full((2, 50), 3), 10),
        # A 200-state chain: 'a' steps one on (the last state stays), 'b'
        # stays put; ten island states point into the chain.
        (
            "chain",
            np.array(
                [
                    [*range(1, 200), 199, *range(0, 200, 20)],
                    [*range(200), *range(5, 200, 20)],
                ]
            ),
            0,
        ),
    ],
)
def test_reachable_matches_a_set_search_on_fixed_shapes(name, successors, start):
    size = successors.shape[1]
    dfa = DfaSpec.from_arrays([f"q{i}" for i in range(size)], successors, np.arange(size) == 0, start)
    want = {int(s[1:]) for s in reachable_from(dfa, dfa.start)}
    assert np.flatnonzero(_reachable(dfa.successors, start)).tolist() == sorted(want), name


def first_moore_keys(dfa):
    # The keys of minimize_dfa's first re-rank: (own block, 'a'-successor's
    # block), blocks starting from the accept/reject split.
    block = dfa.accept_mask.astype(np.int64)
    return block * len(block) + block[dfa.successors[0]]


def test_rerank_matches_unique_inverse():
    rng = np.random.default_rng(3)
    cases = [
        rng.integers(-(2**62), 2**62, size=500),  # few duplicates, if any
        rng.integers(0, 40, size=1000),  # many duplicates
        rng.integers(0, 2**40, size=300) * 2**20,  # wide keys
        np.array([17]),
        np.full(50, -4),
        np.array([], dtype=np.int64),
        first_moore_keys(build_dfa(35)),  # few values in a periodic layout
    ]
    for keys in cases:
        keys = keys.astype(np.int64)
        rank = _rerank(keys)
        assert rank.dtype == np.intp
        assert rank.tolist() == np.unique(keys, return_inverse=True)[1].tolist()


@pytest.mark.parametrize("n", [*range(1, 26, 2), 101])
def test_permutation_criterion_agrees_with_minimizer(n):
    dfa = build_dfa(n)
    assert is_nerode_automaton(dfa, n)
    assert len(minimize_dfa(dfa).states) == n * n


def single_edits(dfa):
    # Every DFA that differs from dfa in one successor, in one accept bit
    # or in the start index.
    size = dfa.successors.shape[1]
    for letter, state, target in product(range(len(ALPHABET)), range(size), range(size)):
        if target != dfa.successors[letter, state]:
            successors = dfa.successors.copy()
            successors[letter, state] = target
            yield DfaSpec.from_arrays(dfa.states, successors, dfa.accept_mask, dfa.start_index)
    for state in range(size):
        accept_mask = dfa.accept_mask.copy()
        accept_mask[state] = not accept_mask[state]
        yield DfaSpec.from_arrays(dfa.states, dfa.successors, accept_mask, dfa.start_index)
    for start in range(size):
        if start != dfa.start_index:
            yield DfaSpec.from_arrays(dfa.states, dfa.successors, dfa.accept_mask, start)


@pytest.mark.parametrize(("n", "count"), [(3, 161), (5, 1249)])
def test_nerode_check_refuses_every_single_edit(n, count):
    # Checking only that each letter permutes the states, that all are
    # reachable and that one accepts passes the moved starts: 8 and 24.
    edits = list(single_edits(build_dfa(n)))
    assert len(edits) == count
    assert [dfa for dfa in edits if is_nerode_automaton(dfa, n)] == []


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 15), m=st.integers(1, 15))
def test_nerode_check_accepts_relabelings_and_no_other_modulus(data, n, m):
    dfa = build_dfa(n)
    relabel = np.array(data.draw(st.permutations(range(n * n))))
    successors = np.empty_like(dfa.successors)
    successors[:, relabel] = relabel[dfa.successors]
    accept_mask = np.empty_like(dfa.accept_mask)
    accept_mask[relabel] = dfa.accept_mask
    names = tuple(f"q{k}" for k in range(n * n))
    moved = DfaSpec.from_arrays(names, successors, accept_mask, relabel[dfa.start_index])
    assert is_nerode_automaton(moved, n)
    assert is_nerode_automaton(build_dfa(m), n) == (m == n)


def test_dfa_spec_is_array_backed_and_immutable():
    dfa = build_dfa(3)
    assert dfa.successors.shape == (2, 9)
    assert dfa.successors[0].tolist() == [3, 4, 5, 6, 7, 8, 0, 1, 2]
    assert dfa.accept_mask.tolist() == [True] + [False] * 8
    assert dfa.start_index == 0
    with pytest.raises(ValueError):
        dfa.successors[0, 0] = 1
    with pytest.raises(ValueError):
        dfa.accept_mask[1] = True
    with pytest.raises(AttributeError):
        dfa.start_index = 1
    assert dfa.delta is dfa.delta
    # The name-keyed constructor converts to the same arrays.
    again = DfaSpec(dfa.states, dfa.start, dfa.accepting, dfa.delta)
    assert again == dfa
    assert again.successors.dtype == np.intp
    assert again != build_dfa(2) and again != "a0b0"


def test_dfa_from_arrays_rejects_what_does_not_fit():
    dfa = build_dfa(2)
    with pytest.raises(ValueError, match="do not fit"):
        DfaSpec.from_arrays(dfa.states[:3], dfa.successors, dfa.accept_mask, 0)
    with pytest.raises(ValueError, match="do not fit"):
        DfaSpec.from_arrays(dfa.states, dfa.successors[:1], dfa.accept_mask, 0)
    with pytest.raises(ValueError, match="outside"):
        DfaSpec.from_arrays(dfa.states, dfa.successors + 1, dfa.accept_mask, 0)
    with pytest.raises(ValueError, match="outside"):
        DfaSpec.from_arrays(dfa.states, dfa.successors, dfa.accept_mask, 4)
    with pytest.raises(ValueError, match="duplicate"):
        DfaSpec(("s", "s"), "s", frozenset(), {"s": {"a": "s", "b": "s"}})


def test_minimize_keeps_member_names():
    small = minimize_dfa(build_dfa(3))
    assert set(small.states) <= set(build_dfa(3).states)
    assert small.start == "a0b0"


def test_dfa_json_roundtrip():
    dfa = build_dfa(4)
    again = DfaSpec.from_json_dict(dfa.to_json_dict())
    assert again == dfa
    assert DfaSpec.from_json_dict(build_dfa(5).to_json_dict()) == build_dfa(5)


def test_dfa_copies_are_equal_and_read_only():
    named = DfaSpec(("p", "q"), "p", frozenset({"q"}), {"p": {"a": "q", "b": "p"}, "q": {"a": "p", "b": "q"}})
    for dfa in (build_dfa(5), named):
        for again in (pickle.loads(pickle.dumps(dfa)), copy.copy(dfa), copy.deepcopy(dfa)):
            assert again == dfa
            assert not again.successors.flags.writeable
            assert not again.accept_mask.flags.writeable
            with pytest.raises(ValueError):
                again.successors[0, 0] = 1


@pytest.mark.parametrize("n", [1, 3, 7])
def test_build_dfa_spells_its_names_on_first_read(n):
    assert build_dfa(n).states == tuple(f"a{i}b{j}" for i in range(n) for j in range(n))


def test_state_counts_spell_no_names(monkeypatch):
    def refuse(n):
        raise AssertionError("state names spelled")

    monkeypatch.setattr(divisibility, "_counter_names", refuse)
    assert cli.compare_report(45)["dfa_minimized_states"] == 45 * 45
    assert repr(build_dfa(45)) == "DfaSpec(2025 states, start index 0, 1 accepting)"
    assert build_dfa(45) != build_dfa(44)
    with pytest.raises(AssertionError, match="spelled"):
        build_dfa(3).states


def test_dfa_json_rejects_unknown_and_missing_names():
    data = build_dfa(2).to_json_dict()
    data["start"] = "nowhere"
    data["accept"] = ["a0b0", "ghost"]
    data["delta"]["a0b1"]["b"] = "limbo"
    del data["delta"]["a1b0"]["a"]
    del data["delta"]["a1b1"]
    with pytest.raises(ValueError) as info:
        DfaSpec.from_json_dict(data)
    message = str(info.value)
    for needle in (
        "unknown start state 'nowhere'",
        "unknown accepting state 'ghost'",
        "'a0b1' on 'b' goes to unknown 'limbo'",
        "no 'a' transition from 'a1b0'",
        "no 'a' transition from 'a1b1'",
        "no 'b' transition from 'a1b1'",
    ):
        assert needle in message


ORACLE_MODULI = [3, 5, 9, 15, 21, 25, 27]
cached_qfa = lru_cache(maxsize=None)(build_qfa)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from(ORACLE_MODULI),
    words=st.lists(st.text(alphabet="ab", max_size=60), min_size=1, max_size=30),
)
def test_simulation_matches_exact_oracle(n, words):
    for word, result in zip(words, run_many(cached_qfa(n), words)):
        exact = exact_accept_probability(n, word.count("a"), word.count("b"))
        assert abs(result.p_accept - float(exact)) <= 1e-9, (n, word)


def test_exact_oracle_examples():
    assert exact_accept_probability(9, 0, 0) == 1
    assert exact_accept_probability(9, 9, 18) == 1
    assert exact_accept_probability(9, 3, 6) == Fraction(1, 3)
    assert exact_accept_probability(9, 3, 4) == 0
    assert exact_accept_probability(15, 5, 0) == Fraction(1, 3)
    assert exact_accept_probability(15, 1, 7) == Fraction(1, 15)
    with pytest.raises(ValueError):
        exact_accept_probability(4, 1, 1)
    with pytest.raises(ValueError):
        exact_accept_probability(9, -1, 0)


@pytest.mark.parametrize("n", ORACLE_MODULI)
def test_nonmember_bound_is_tight(n):
    p_min = factorize(n).p_min
    largest = max(
        exact_accept_probability(n, a, b)
        for a in range(2 * n)
        for b in range(2 * n)
        if not (a % n == 0 and b % n == 0)
    )
    assert largest == Fraction(1, p_min)
    # attained by a real run: a^(n/p_min) is a non-member
    word = "a" * (n // p_min)
    assert not is_member(word, n)
    assert abs(accept_probability(cached_qfa(n), word) - 1 / p_min) <= 1e-9
