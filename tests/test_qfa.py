import math
import random
from dataclasses import astuple, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfakit import cli
from qfakit.divisibility import build_diagonal_qfa, build_qfa, is_member
from qfakit.qfa import (
    BLOCK_ROWS,
    LEFT_MARKER,
    RIGHT_MARKER,
    QfaSpec,
    RunResult,
    _run_codes,
    _spell,
    accept_all_words,
    accept_probability,
    initial_superposition,
    run,
    run_many,
    run_sampled,
    step,
    validate,
)
from oracles import sampled_word


def projector_oracle(spec, word):
    # independent reference: column vectors and explicit projector
    # matrices instead of row vectors and boolean masks
    dim = len(spec.states)
    acc_proj = np.diag([1.0 if s in spec.accepting else 0.0 for s in spec.states])
    rej_proj = np.diag([1.0 if s in spec.rejecting else 0.0 for s in spec.states])
    non_proj = np.eye(dim) - acc_proj - rej_proj
    psi = np.zeros((dim, 1), dtype=complex)
    psi[spec.states.index(spec.start), 0] = 1.0
    acc = rej = 0.0
    for symbol in (LEFT_MARKER, *word, RIGHT_MARKER):
        psi = spec.unitaries[symbol].T @ psi
        acc += (psi.conj().T @ acc_proj @ psi).real.item()
        rej += (psi.conj().T @ rej_proj @ psi).real.item()
        psi = non_proj @ psi
    residual = (psi.conj().T @ psi).real.item()
    return acc, rej, residual


def random_word(rng, max_len):
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def test_validate_accepts_built_machine():
    assert validate(build_qfa(3)) == []
    assert validate(build_qfa(9)) == []


def test_validate_flags_missing_start():
    spec = replace(build_qfa(3), start="nowhere")
    assert any("start" in p for p in validate(spec))


def test_validate_flags_overlapping_outcomes():
    spec = build_qfa(3)
    spec = replace(spec, rejecting=spec.rejecting | {"acc"})
    assert any("both accepting and rejecting" in p for p in validate(spec))


def test_validate_flags_bad_names():
    spec = build_qfa(3)
    # The last state, rej2, renamed to q0 (and dropped from the rejecting set).
    twice = replace(spec, states=spec.states[:-1] + ("q0",), rejecting=spec.rejecting - {"rej2"})
    assert validate(twice) == ["duplicate state names"]
    stray = replace(spec, accepting=spec.accepting | {"elsewhere"})
    assert validate(stray) == ["halting state 'elsewhere' not among the states"]
    assert validate(replace(spec, input_alphabet=("a", "b", "a"))) == ["duplicate input symbols"]
    marker = replace(spec, input_alphabet=("a", "b", RIGHT_MARKER))
    assert validate(marker) == ["marker '$' reused as an input symbol"]


def test_validate_flags_input_symbols_that_are_not_one_character():
    # A word is read one character per letter, so a longer symbol could
    # never be read: run() would refuse every word that spells it.
    spec = build_qfa(3)
    for sym in ("ab", ""):
        unitaries = dict(spec.unitaries)
        unitaries[sym] = unitaries.pop("b")
        wide = replace(spec, input_alphabet=("a", sym), unitaries=unitaries)
        assert validate(wide) == [f"input symbol {sym!r} is not one character"]
        with pytest.raises(ValueError, match="is not one character"):
            QfaSpec.from_json_dict(wide.to_json_dict())


def test_validate_names_non_unitary_symbol():
    spec = build_qfa(3)
    broken = dict(spec.unitaries)
    broken["a"] = broken["a"] * 1.1
    problems = validate(replace(spec, unitaries=broken))
    assert any("'a'" in p and "unitary" in p for p in problems)


def test_validate_flags_a_nan_unitary():
    spec = build_qfa(3)
    broken = dict(spec.unitaries)
    broken["b"] = broken["b"].copy()
    broken["b"][0, 0] = complex("nan")
    problems = validate(replace(spec, unitaries=broken))
    assert problems == ["matrix for 'b' is not unitary (deviation nan)"]
    # A NaN literal in a qfa.json file is refused on loading.
    data = spec.to_json_dict()
    data["unitaries"]["b"][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="'b' is not unitary"):
        QfaSpec.from_json_dict(data)


def test_validate_flags_a_logical_state_count_that_is_not_a_state_count():
    spec = build_qfa(3)
    for count in (None, 1, 5, spec.dim):
        assert validate(replace(spec, logical_state_count=count)) == []
    for count in (-5, 0, "abc", 2.5, True, spec.dim + 1, 10**6):
        want = f"logical_state_count {count!r} is not an int in 1..{spec.dim}"
        assert validate(replace(spec, logical_state_count=count)) == [want]
        with pytest.raises(ValueError, match="logical_state_count"):
            QfaSpec.from_json_dict({**spec.to_json_dict(), "logical_state_count": count})


def test_validate_flags_missing_and_unknown_matrices():
    spec = build_qfa(3)
    trimmed = dict(spec.unitaries)
    trimmed["z"] = trimmed.pop("b")
    problems = validate(replace(spec, unitaries=trimmed))
    assert any("missing transition matrix for 'b'" in p for p in problems)
    assert any("unknown symbol 'z'" in p for p in problems)


def test_validate_flags_bad_shape():
    spec = build_qfa(3)
    broken = dict(spec.unitaries)
    broken["b"] = broken["b"][:-1, :]
    problems = validate(replace(spec, unitaries=broken))
    assert any("shape" in p for p in problems)


def test_step_spreads_first_row_of_the_letter_matrix():
    spec = build_qfa(3)
    psi = initial_superposition(spec)
    residual, acc_inc, rej_inc = step(spec, psi, "a")
    assert acc_inc == 0.0 and rej_inc == 0.0
    scale = 1 / math.sqrt(3)
    w = np.exp(2j * math.pi / 3)
    np.testing.assert_allclose(residual[:3], [scale, scale * w, scale * w], atol=1e-15)
    assert np.all(residual[3:] == 0)


def test_letters_never_halt_midword():
    spec = build_qfa(5)
    psi = initial_superposition(spec)
    rng = random.Random(0)
    for _ in range(30):
        psi, acc_inc, rej_inc = step(spec, psi, rng.choice("ab"))
        assert acc_inc == 0.0 and rej_inc == 0.0
    assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_run_frozen_probabilities():
    spec = build_qfa(3)
    assert abs(run(spec, "").p_accept - 1) < 1e-12
    assert abs(run(spec, "a").p_accept - 1 / 3) < 1e-12
    assert abs(run(spec, "ab").p_accept - 1 / 3) < 1e-12
    assert abs(run(spec, "aaabbb").p_accept - 1) < 1e-12
    result = run(spec, "a")
    assert abs(result.p_accept + result.p_reject - 1) < 1e-12
    assert result.p_residual == 0.0


def test_run_matches_projector_oracle():
    rng = random.Random(11)
    for n in [3, 5]:
        spec = build_qfa(n)
        for _ in range(30):
            word = random_word(rng, 20)
            result = run(spec, word)
            acc, rej, residual = projector_oracle(spec, word)
            assert abs(result.p_accept - acc) <= 1e-12
            assert abs(result.p_reject - rej) <= 1e-12
            assert abs(result.p_residual - residual) <= 1e-12


def test_probability_conservation_and_monotonicity():
    rng = random.Random(12)
    spec = build_qfa(9)
    for _ in range(20):
        word = random_word(rng, 30)
        psi = initial_superposition(spec)
        acc = rej = 0.0
        norms = [1.0]
        for symbol in (LEFT_MARKER, *word, RIGHT_MARKER):
            psi, acc_inc, rej_inc = step(spec, psi, symbol)
            assert acc_inc >= 0.0 and rej_inc >= 0.0  # partial sums never decrease
            acc += acc_inc
            rej += rej_inc
            norms.append(float(np.linalg.norm(psi) ** 2))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert max(norms) <= 1 + 1e-12
        assert abs(acc + rej + norms[-1] - 1) <= 1e-9


def test_word_symbols_are_checked():
    spec = build_qfa(3)
    with pytest.raises(ValueError):
        run(spec, "abc")
    with pytest.raises(ValueError):
        run(spec, "a$")


def test_step_rejects_unknown_symbol_and_bad_shape():
    spec = build_qfa(3)
    with pytest.raises(ValueError):
        step(spec, initial_superposition(spec), "q")
    with pytest.raises(ValueError):
        step(spec, np.zeros(3, dtype=complex), "a")


def test_residual_fold_policy():
    spec = build_qfa(3)
    stuck = dict(spec.unitaries)
    stuck[RIGHT_MARKER] = np.eye(spec.dim, dtype=complex)  # nothing ever halts
    spec_stuck = replace(spec, unitaries=stuck)
    result = run(spec_stuck, "")
    assert abs(result.p_residual - 1) < 1e-12 and result.p_reject == 0.0


def test_sampled_mode_is_seed_deterministic():
    spec = build_qfa(3)
    outcomes_a = [run_sampled(spec, "ab", random.Random(42)) for _ in range(5)]
    outcomes_b = [run_sampled(spec, "ab", random.Random(42)) for _ in range(5)]
    assert outcomes_a == outcomes_b
    assert set(outcomes_a) <= {"accept", "reject", "none"}


def test_sampled_frequencies_track_exact_probabilities():
    spec = build_qfa(3)
    rng = random.Random(2024)
    trials = 2000
    hits = sum(run_sampled(spec, "a", rng) == "accept" for _ in range(trials))
    exact = accept_probability(spec, "a")
    assert abs(hits / trials - exact) < 0.05
    assert all(
        run_sampled(spec, "aaa", random.Random(i)) == "accept" for i in range(20)
    )  # member of the language: accepts with certainty


def test_json_roundtrip_preserves_behaviour():
    spec = build_qfa(5)
    again = QfaSpec.from_json_dict(spec.to_json_dict())
    assert validate(again) == []
    assert again.states == spec.states
    for sym in spec.working_alphabet:
        np.testing.assert_array_equal(again.unitaries[sym], spec.unitaries[sym])
    for word in ["", "a", "ab", "aaaaabbbbb", "ba" * 7]:
        assert run(again, word) == run(spec, word)
    assert again.logical_state_count == spec.logical_state_count == 7


def test_json_reads_old_files_and_refuses_a_fold_into_rejection():
    # Older exports wrote "reject_residual": false; true folded the residual
    # into p_reject, so reading it as unfolded would change the results.
    spec = build_qfa(3)
    data = spec.to_json_dict()
    assert "reject_residual" not in data
    for old in ({}, {"reject_residual": False}):
        again = QfaSpec.from_json_dict({**data, **old})
        assert run(again, "ab") == run(spec, "ab")
    with pytest.raises(ValueError, match="reject_residual must be false"):
        QfaSpec.from_json_dict({**data, "reject_residual": True})


def test_membership_alignment_small_exhaustive():
    spec = build_qfa(3)
    for length in range(6):
        for bits in range(2**length):
            word = "".join("ab"[(bits >> i) & 1] for i in range(length))
            p = accept_probability(spec, word)
            if is_member(word, 3):
                assert abs(p - 1) <= 1e-9
            else:
                assert p <= 1 / 3 + 1e-9


def test_json_rejects_non_unitary_matrix():
    data = build_qfa(3).to_json_dict()
    data["unitaries"]["a"][0][0] = [3.0, 0.0]
    with pytest.raises(ValueError, match="'a' is not unitary"):
        QfaSpec.from_json_dict(data)


def test_unitaries_are_read_only():
    spec = build_qfa(3)
    before = run(spec, "a")
    with pytest.raises(ValueError):
        spec.unitaries["a"][:] *= 5
    with pytest.raises(TypeError):
        spec.unitaries["a"] = np.eye(spec.dim)
    assert run(spec, "a") == before


def test_spec_copies_the_callers_matrices():
    spec = build_qfa(3)
    mine = {sym: np.array(m) for sym, m in spec.unitaries.items()}
    copy = replace(spec, unitaries=mine)
    mine["a"] *= 5
    assert run(copy, "a") == run(spec, "a")


# Kernel tests.  build_qfa never halts in the middle of a word, so these
# also use machines whose letter 'a' halts part or all of the amplitude.


def _midword_halting_specs():
    spec = build_qfa(3)
    # 'a' acts as the right marker: everything halts at the first 'a'.
    full = replace(spec, unitaries={**spec.unitaries, "a": spec.unitaries[RIGHT_MARKER]})
    # 'a' rotates part of q0 onto the accepting state and part of q1 onto
    # a rejecting channel before the circulant, so some amplitude halts
    # at every 'a' and the rest keeps going.
    i = spec.state_index
    mix = np.eye(spec.dim, dtype=complex)
    for x, y, angle in (("q0", "acc", 0.4), ("q1", "rej1", 1.1)):
        c, s = math.cos(angle), math.sin(angle)
        mix[i[x], i[x]], mix[i[x], i[y]] = c, s
        mix[i[y], i[x]], mix[i[y], i[y]] = -s, c
    partial = replace(spec, unitaries={**spec.unitaries, "a": spec.unitaries["a"] @ mix})
    # The same rotation as the right marker leaves a residual after '$'.
    residual = replace(partial, unitaries={**partial.unitaries, RIGHT_MARKER: mix})
    return {"full": full, "partial": partial, "residual": residual}


HALTING = _midword_halting_specs()
KERNEL_SPECS = {
    "n3": build_qfa(3),
    "n5": build_qfa(5),
    **HALTING,
}


def _assert_close(result, expected, tol=1e-12):
    got = (result.p_accept, result.p_reject, result.p_residual)
    assert max(abs(g - e) for g, e in zip(got, expected)) <= tol, (got, expected)


def test_midword_halting_specs_are_sound():
    for spec in HALTING.values():
        assert validate(spec) == []
    # The partial machine halts during the word, not only at its end.
    spec = HALTING["partial"]
    psi, _, _ = step(spec, initial_superposition(spec), LEFT_MARKER)
    psi, acc_inc, rej_inc = step(spec, psi, "a")
    assert acc_inc > 0.01 and rej_inc > 0.01
    assert np.linalg.norm(psi) > 0.5
    assert run(HALTING["residual"], "ab").p_residual > 0.1


def test_run_sampled_ends_on_the_residual_left_after_the_right_marker():
    # On the empty word the left marker halts nothing, and the residual
    # machine's '$' banks sin(0.4)**2 ~ 0.15 on acc and leaves the rest of
    # q0 unhalted, so a draw above that outlives the word.
    p_acc = math.sin(0.4) ** 2
    assert abs(run(HALTING["residual"], "").p_accept - p_acc) <= 1e-12
    for draw, outcome in ((0.5, "none"), (0.1, "accept")):
        rng = SimpleNamespace(random=lambda: draw)
        assert run_sampled(HALTING["residual"], "", rng) == outcome


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_run_many_matches_projector_oracle(name):
    spec = KERNEL_SPECS[name]
    rng = random.Random(name)
    # Mixed lengths, the empty word twice, and more words than one block.
    words = ["", "a", "b", "ab", "ba", "aab", ""]
    words += [random_word(rng, 25) for _ in range(BLOCK_ROWS + 60)]
    results = run_many(spec, words)
    assert len(results) == len(words)
    for word, result in zip(words, results):
        _assert_close(result, projector_oracle(spec, word))


def test_run_many_empty_batch():
    assert run_many(build_qfa(3), []) == []
    assert run_many(build_qfa(3), iter([])) == []


def test_run_many_checks_every_word():
    with pytest.raises(ValueError, match="not in the input alphabet"):
        run_many(build_qfa(3), ["ab", "abc"])


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_accept_all_words_matches_projector_oracle(name):
    spec = KERNEL_SPECS[name]
    max_len = 8  # 256 words of length 8: two blocks at the deepest level
    probs = accept_all_words(spec, max_len)
    assert [len(level) for level in probs] == [2**k for k in range(max_len + 1)]
    for length, level in enumerate(probs):
        for letters, p in zip(product("ab", repeat=length), level):
            acc = projector_oracle(spec, "".join(letters))[0]
            assert abs(p - acc) <= 1e-12


def test_spell_names_words_in_accept_all_words_order():
    for alphabet in (("a", "b"), ("x", "y", "z")):
        for length in range(6):
            words = ["".join(w) for w in product(alphabet, repeat=length)]
            assert [_spell(alphabet, length, i) for i in range(len(words))] == words


def test_accept_all_words_zero_length_and_bad_length():
    probs = accept_all_words(build_qfa(3), 0)
    assert len(probs) == 1 and abs(probs[0][0] - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        accept_all_words(build_qfa(3), -1)


def test_accept_all_words_on_an_empty_alphabet():
    # The right marker turns q0 by 0.6 rad: p("") = sin(0.6)**2 is banked
    # on acc and the rest left on q0.  No letter, so only "" has a result.
    c, s = math.cos(0.6), math.sin(0.6)
    marker = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=complex)
    spec = QfaSpec(
        states=("q0", "acc", "rej"),
        input_alphabet=(),
        start="q0",
        accepting=frozenset({"acc"}),
        rejecting=frozenset({"rej"}),
        unitaries={LEFT_MARKER: np.eye(3), RIGHT_MARKER: marker},
    )
    assert validate(spec) == []
    assert run(spec, "").p_accept == pytest.approx(s * s, abs=1e-15)
    probs = accept_all_words(spec, 3)
    assert [p.shape for p in probs] == [(1,), (0,), (0,), (0,)]
    assert probs[0][0] == run(spec, "").p_accept


_words = st.lists(st.text(alphabet="ab", max_size=30), max_size=40)


@settings(max_examples=60, deadline=None)
@given(words=_words, name=st.sampled_from(sorted(KERNEL_SPECS)))
def test_run_many_equals_run(words, name):
    spec = KERNEL_SPECS[name]
    for word, batched in zip(words, run_many(spec, words), strict=True):
        single = run(spec, word)
        assert abs(batched.p_accept - single.p_accept) <= 1e-12
        assert abs(batched.p_reject - single.p_reject) <= 1e-12
        assert abs(batched.p_residual - single.p_residual) <= 1e-12


# The batch kernel on both kinds of machine: the dense ones, some halting
# mid-word, and the recognizer in the DFT basis.
CODE_MACHINES = {**KERNEL_SPECS, "diagonal5": build_diagonal_qfa(5)}


def _codes(words, width=None, fill=None):
    # words as the kernel takes them: a uint8 matrix of letter codes
    # ("a" = 0, "b" = 1) and the lengths; fill gives the entries past a
    # word's end, zero by default.
    lengths = np.array([len(w) for w in words], dtype=np.intp)
    width = max(lengths, default=0) if width is None else width
    letters = np.zeros((len(words), width), dtype=np.uint8) if fill is None else fill
    for row, word in zip(letters, words):
        row[: len(word)] = ["ab".index(ch) for ch in word]
    return letters, lengths


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.text(alphabet="ab", max_size=20), max_size=30),
    copies=st.integers(1, 6),
    name=st.sampled_from(sorted(CODE_MACHINES)),
)
def test_run_codes_equals_run(words, copies, name):
    # Repeats tie lengths, and up to 186 words span two blocks.
    spec = CODE_MACHINES[name]
    batch = (words + [""]) * copies
    out = _run_codes(spec, *_codes(batch))
    assert out.shape == (len(batch), 3)
    single = {w: run(spec, w) for w in set(batch)}
    for word, row in zip(batch, out):
        _assert_close(RunResult(*row), astuple(single[word]))


@pytest.mark.parametrize("name", sorted(CODE_MACHINES))
def test_run_codes_ignores_codes_past_each_word(name):
    spec = CODE_MACHINES[name]
    rng = np.random.default_rng(7)
    words = [random_word(random.Random(i), 30) for i in range(BLOCK_ROWS + 50)] + [""]
    clean = _run_codes(spec, *_codes(words, width=35))
    noise = rng.integers(0, 2, size=(len(words), 35), dtype=np.uint8)
    assert np.array_equal(_run_codes(spec, *_codes(words, fill=noise)), clean)


@pytest.mark.parametrize("name", sorted(CODE_MACHINES))
def test_run_codes_empty_batch(name):
    empty = _run_codes(CODE_MACHINES[name], np.zeros((0, 4), dtype=np.uint8), np.zeros(0, np.intp))
    assert empty.shape == (0, 3)


def _leaky_spec():
    spec = build_qfa(3)
    return replace(spec, unitaries={**spec.unitaries, "a": spec.unitaries["a"] * 1.1})


def test_conservation_is_checked_by_every_simulator():
    spec = _leaky_spec()
    assert abs(run(spec, "").p_accept - 1.0) <= 1e-12  # no 'a', nothing leaks
    with pytest.raises(ValueError, match="not conserved on word 'ba'"):
        run(spec, "ba")
    with pytest.raises(ValueError, match="not conserved on word 'ba'"):
        run_many(spec, ["", "bb", "ba", "a"])
    with pytest.raises(ValueError, match="not conserved on word 'a'"):
        accept_all_words(spec, 9)


def test_run_codes_names_the_first_unconserved_word_in_input_order():
    # Stepped longest first, "abaa" is closed before "ba", but "ba" comes
    # first in the input; codes past each end spell no word.
    spec = _leaky_spec()
    letters, lengths = _codes(["", "bb", "ba", "abaa", "a"], fill=np.ones((5, 6), dtype=np.uint8))
    with pytest.raises(ValueError, match="not conserved on word 'ba'"):
        _run_codes(spec, letters, lengths)


def test_cli_exits_two_on_unconserved_probability(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_machine", lambda n: _leaky_spec())
    assert cli.main(["scan", "--n", "3", "--max-len", "3", "--samples", "5"]) == 2
    assert "not conserved on word 'a'" in capsys.readouterr().err
    assert cli.main(["run", "--n", "3", "--word", "bab"]) == 2
    assert "not conserved on word 'bab'" in capsys.readouterr().err


def _reference_scan(n, max_len, samples, seed, random_max_len=40):
    # The word-at-a-time scan: one run() per word, in enumeration order.
    spec = build_qfa(n)
    bound = 1.0 / cli.factorize(n).p_min
    members, nonmembers, counterexamples = [], [], []

    def check(word):
        p = run(spec, word).p_accept
        if is_member(word, n):
            members.append(p)
            if abs(p - 1.0) > cli.PROB_TOL:
                counterexamples.append({"kind": "member_probability", "word": word, "p_accept": cli.fmt12(p)})
        else:
            nonmembers.append(p)
            if p > bound + cli.PROB_TOL:
                counterexamples.append({"kind": "nonmember_bound", "word": word, "p_accept": cli.fmt12(p)})
        return p

    for length in range(max_len + 1):
        for letters in product("ab", repeat=length):
            check("".join(letters))
    rng = random.Random(seed)
    low = max_len + 1
    high = max(random_max_len, low)
    max_delta = 0.0
    for _ in range(samples):
        word, shuffled = sampled_word(rng, low, high)
        p = check(word)
        delta = abs(p - run(spec, shuffled).p_accept)
        max_delta = max(max_delta, delta)
        if delta > cli.SHUFFLE_TOL:
            counterexamples.append({"kind": "shuffle_variance", "word": word, "p_accept": cli.fmt12(p)})
    return {
        "n": n,
        "p_min": cli.factorize(n).p_min,
        "bound": cli.fmt12(bound),
        "max_len": max_len,
        "samples": samples,
        "random_max_len": high,
        "seed": seed,
        "words_scanned": len(members) + len(nonmembers),
        "min_member_prob": cli.fmt12(min(members)),
        "max_nonmember_prob": cli.fmt12(max(nonmembers)) if nonmembers else None,
        "max_shuffle_delta": cli.fmt12(max_delta),
        "counterexamples": counterexamples,
    }


@pytest.mark.parametrize("n", [3, 5, 9])
def test_scan_report_matches_word_at_a_time_reference(n):
    report = cli.scan_report(n, 6, 60, seed=n)
    report.pop("elapsed")
    assert report == _reference_scan(n, 6, 60, seed=n)
