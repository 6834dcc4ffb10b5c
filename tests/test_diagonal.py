"""The recognizer in the DFT basis against the dense machine and the closed form."""

import cmath
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfakit
from qfakit import cli
from qfakit.circulant import ShiftMatrix, cyclic_shift_circulant, quadratic_phase_circulant
from qfakit.divisibility import (
    DENSE_MAX_N,
    build_diagonal_qfa,
    build_qfa,
    exact_accept_probability,
)
from qfakit.qfa import DiagonalQfa, accept_all_words, run, run_many, run_sampled

ORACLE_NS = (3, 5, 9, 15, 21, 25, 27)


def _outcomes(results):
    return np.array([(r.p_accept, r.p_reject, r.p_residual) for r in results])


def _exact(n, words):
    return np.array([float(exact_accept_probability(n, w.count("a"), w.count("b"))) for w in words])


@pytest.mark.parametrize("n", [3, 5, 21, 101])
def test_structure_matches_the_dense_machine(n):
    machine = build_diagonal_qfa(n)
    dense = build_qfa(n)
    assert machine.input_alphabet == dense.input_alphabet == ("a", "b")
    assert machine.counters == n
    assert machine.dim == dense.dim == 2 * n + 1
    assert machine.logical_state_count == dense.logical_state_count == n + 2
    # Each spectrum is the fft of the letter's own first row, within 1e-12.
    rows = {"a": quadratic_phase_circulant(n), "b": cyclic_shift_circulant(n)}
    for sym, circulant in rows.items():
        np.testing.assert_allclose(
            machine.spectra[sym], np.fft.fft(circulant.first_row), rtol=0, atol=1e-12
        )


def test_closed_form_spectra_match_the_fft_of_the_rows_up_to_the_cap():
    for n in range(3, DENSE_MAX_N + 1, 2):
        machine = build_diagonal_qfa(n)
        rows = {"a": quadratic_phase_circulant(n), "b": cyclic_shift_circulant(n)}
        for sym, circulant in rows.items():
            np.testing.assert_allclose(
                machine.spectra[sym],
                np.fft.fft(circulant.first_row),
                rtol=0,
                atol=1e-12,
                err_msg=f"{sym!r} at n = {n}",
            )


def test_quadratic_spectrum_is_the_gauss_closed_form():
    # eps_n * exp(-2*pi*i * (4^-1 mod n) * m^2 / n), eps_n = 1 or i by n mod 4.
    for n in range(3, 102, 2):
        eps = 1 if n % 4 == 1 else 1j
        quarter = pow(4, -1, n)
        closed = [eps * cmath.exp(-2j * math.pi * (quarter * m * m % n) / n) for m in range(n)]
        spectrum = build_diagonal_qfa(n).spectra["a"]
        np.testing.assert_allclose(spectrum, closed, rtol=0, atol=1e-12, err_msg=f"n = {n}")


def test_spectra_are_read_only_copies():
    machine = build_diagonal_qfa(5)
    with pytest.raises(ValueError):
        machine.spectra["a"][0] = 1.0
    with pytest.raises(TypeError):
        machine.spectra["a"] = np.ones(5)
    source = np.ones(5, dtype=complex)
    copy = DiagonalQfa(("a",), {"a": source})
    source[0] = 2.0
    assert copy.spectra["a"][0] == 1.0


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 10])
def test_builder_rejects_bad_moduli(bad):
    with pytest.raises(ValueError):
        build_diagonal_qfa(bad)


def test_builder_refuses_n_above_the_dense_cap():
    build_diagonal_qfa(DENSE_MAX_N)
    with pytest.raises(ValueError, match="DENSE_MAX_N"):
        build_diagonal_qfa(DENSE_MAX_N + 2)


def test_construction_refuses_what_is_not_a_machine():
    good = build_diagonal_qfa(5).spectra
    scaled = good["a"].copy()
    scaled[1] *= 1 + 1e-6
    with pytest.raises(ValueError, match="spectrum of 'a' is not unitary"):
        DiagonalQfa(("a", "b"), {"a": scaled, "b": good["b"]})
    broken = good["b"].copy()
    broken[2] = np.nan
    with pytest.raises(ValueError, match="spectrum of 'b' is not unitary"):
        DiagonalQfa(("a", "b"), {"a": good["a"], "b": broken})
    with pytest.raises(ValueError, match="do not match the input alphabet"):
        DiagonalQfa(("a",), dict(good))
    with pytest.raises(ValueError, match=r"'a' has shape \(5,\), 'b' has shape \(4,\)"):
        DiagonalQfa(("a", "b"), {"a": good["a"], "b": np.ones(4)})


def test_construction_refuses_duplicate_and_marker_letters():
    # validate's wording for a QfaSpec with the same alphabet.
    ones = np.ones(5)
    with pytest.raises(ValueError, match="^duplicate input symbols$"):
        DiagonalQfa(("a", "a"), {"a": ones})
    for marker in ("^", "$"):
        with pytest.raises(ValueError, match=rf"^marker '\{marker}' reused as an input symbol$"):
            DiagonalQfa(("a", marker), {"a": ones, marker: ones})


def test_construction_refuses_letters_that_are_not_one_character():
    # validate's wording for a QfaSpec with the same alphabet.
    ones = np.ones(3)
    for sym in ("ab", ""):
        with pytest.raises(ValueError, match=f"^input symbol {sym!r} is not one character$"):
            DiagonalQfa((sym,), {sym: ones})


def test_construction_refuses_empty_spectra():
    # Spectra of unequal lengths are refused first, naming each letter's
    # shape, as in the test above; equal empty ones reach this check.
    with pytest.raises(ValueError, match=r"spectra have shape \(1, 0\)"):
        DiagonalQfa(("a",), {"a": np.ones(0)})


def test_state_counts_follow_the_counters():
    machine = DiagonalQfa(("a",), {"a": np.ones(7)})
    assert (machine.counters, machine.logical_state_count, machine.dim) == (7, 9, 15)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_accept_all_words_matches_the_dense_machine(n):
    diagonal = accept_all_words(build_diagonal_qfa(n), 8)
    dense = accept_all_words(build_qfa(n), 8)
    for length, (d, q) in enumerate(zip(diagonal, dense)):
        assert np.abs(d - q).max() <= 1e-12, length


_words = st.lists(st.text(alphabet="ab", max_size=60), max_size=30)


@settings(max_examples=60, deadline=None)
@given(words=_words, n=st.sampled_from(ORACLE_NS))
def test_run_many_matches_the_dense_machine_and_the_closed_form(words, n):
    machine = build_diagonal_qfa(n)
    diagonal = _outcomes(run_many(machine, words)).reshape(-1, 3)
    dense = _outcomes(run_many(build_qfa(n), words)).reshape(-1, 3)
    assert np.abs(diagonal - dense).max(initial=0.0) <= 1e-12
    assert np.abs(diagonal[:, 0] - _exact(n, words)).max(initial=0.0) <= 1e-9
    single = _outcomes([run(machine, word) for word in words]).reshape(-1, 3)
    assert np.abs(single - diagonal).max(initial=0.0) <= 1e-12


SCAN_ARGS = [
    (21, 10, 200, 7),
    (3, 8, 1000, 0),
    (9, 12, 300, 3),
    (15, 6, 500, 99),
    (101, 10, 200, 1),
]


@pytest.mark.parametrize("args", SCAN_ARGS)
def test_scan_report_is_the_same_on_both_machines(monkeypatch, args):
    diagonal = cli.scan_report(*args)
    monkeypatch.setattr(cli, "build_machine", build_qfa)
    dense = cli.scan_report(*args)
    diagonal.pop("elapsed")
    dense.pop("elapsed")
    assert cli._dumps(diagonal) == cli._dumps(dense)


def test_run_scan_and_compare_build_no_dense_machine(capsys, monkeypatch):
    def refuse(circulant):
        raise AssertionError(f"dense matrix built at n = {circulant.n}")

    # Every dense build expands its letter circulants.
    monkeypatch.setattr(ShiftMatrix, "to_dense", refuse)
    with pytest.raises(AssertionError, match="dense matrix built"):
        build_qfa(3)
    assert cli.main(["run", "--n", "1001", "--word", "abab", "--json"]) == 0
    assert '"p_accept": "0.000999000999"' in capsys.readouterr().out
    argv = ["scan", "--n", "1001", "--max-len", "3", "--samples", "50", "--seed", "1"]
    assert cli.main(argv) == 0
    assert "counterexamples: 0" in capsys.readouterr().out
    report = cli.compare_report(45)
    assert (report["qfa_logical_states"], report["qfa_internal_states"]) == (47, 91)


@pytest.mark.parametrize("n", ["21", "1001"])
def test_run_scan_and_compare_take_no_fft(capsys, monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("an FFT was taken")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    assert cli.main(["run", "--n", n, "--word", "a" * int(n) + "b", "--json"]) == 0
    assert '"p_accept": "0.000000000000"' in capsys.readouterr().out
    assert cli.main(["run", "--n", n, "--word", "ab" * int(n), "--json"]) == 0
    assert '"p_accept": "1.000000000000"' in capsys.readouterr().out
    assert cli.main(["scan", "--n", n, "--max-len", "6", "--samples", "50", "--seed", "2"]) == 0
    assert "counterexamples: 0" in capsys.readouterr().out
    assert cli.main(["compare", "--n", n, "--json"]) == 0
    assert f'"qfa_logical_states": {int(n) + 2}' in capsys.readouterr().out


@pytest.mark.parametrize("n", [3, 21])
def test_run_sampled_draws_the_same_outcomes_on_both_machines(n):
    machine, dense = build_diagonal_qfa(n), build_qfa(n)
    seeds = range(200)
    for word in ["", "a", "ab", "aaabbb", "a" * n + "b", "aab" * 7]:
        draws = [run_sampled(machine, word, random.Random(seed)) for seed in seeds]
        assert draws == [run_sampled(dense, word, random.Random(seed)) for seed in seeds]
        # Nothing outlives the right marker, and the accept frequency is
        # within four standard deviations of the exact probability, so a
        # member always accepts and a zero-probability word never does.
        assert "none" not in draws
        exact = float(exact_accept_probability(n, word.count("a"), word.count("b")))
        spread = 4 * math.sqrt(exact * (1 - exact) / len(seeds))
        assert abs(draws.count("accept") / len(seeds) - exact) <= spread + 1e-12


def _close_by_inverse_fft(rows):
    # The right marker as it reads on the counters themselves.
    weights = np.abs(np.fft.ifft(rows, axis=-1)) ** 2
    return weights[..., 0], weights[..., 1:].sum(axis=-1)


@pytest.mark.parametrize("n", [3, 21, 101, 1001])
def test_close_matches_the_inverse_fft(n):
    rng = np.random.default_rng(n)
    machine = DiagonalQfa(("a",), {"a": np.ones(n)})
    rows = np.exp(2j * np.pi * rng.uniform(size=(64, n)))
    p_acc, p_rej, p_res = machine._close(rows)
    want_acc, want_rej = _close_by_inverse_fft(rows)
    assert np.abs(p_acc - want_acc).max() <= 1e-15
    assert np.abs(p_rej - want_rej).max() <= 1e-15
    assert not p_res.any()
    # One row, as run() closes it.
    one_acc, one_rej, _ = machine._close(rows[0])
    assert abs(one_acc - want_acc[0]) <= 1e-15
    assert abs(one_rej - want_rej[0]) <= 1e-15


@pytest.mark.parametrize("n", [3, 21, 101, 1001])
def test_members_never_read_a_negative_rejection(n):
    machine = build_diagonal_qfa(n)
    members = ["", "a" * n, "b" * n, "ab" * n, "ba" * n, "a" * (2 * n) + "b" * n]
    results = run_many(machine, members) + [run(machine, word) for word in members]
    for result in results:
        assert abs(result.p_accept - 1.0) <= 1e-12
        assert 0.0 <= result.p_reject <= 1e-12
        assert result.p_residual == 0.0


def _swapped(machine, monkeypatch):
    return replace(machine, spectra={"a": machine.spectra["b"], "b": machine.spectra["a"]})


def _accepts_counter_one(machine, monkeypatch):
    close = DiagonalQfa._close

    def moved(self, rows):
        # A DFT times exp(2 pi i m / n) is the counters moved down by one,
        # so counter 1 lands where counter 0 is accepted.
        n = rows.shape[-1]
        return close(self, rows * np.exp(2j * np.pi * np.arange(n) / n))

    monkeypatch.setattr(DiagonalQfa, "_close", moved)
    return machine


def _phase_nudged(machine, monkeypatch):
    spectrum = machine.spectra["a"].copy()
    spectrum[1] *= cmath.exp(1e-6j)
    return replace(machine, spectra={**machine.spectra, "a": spectrum})


@pytest.mark.parametrize("mutate", [_swapped, _accepts_counter_one, _phase_nudged])
@pytest.mark.parametrize("n", [3, 9, 21])
def test_mutant_machines_disagree_with_the_dense_oracle(monkeypatch, mutate, n):
    # The comparison at 1e-12 must tell each wrong machine from the right one.
    mutant = accept_all_words(mutate(build_diagonal_qfa(n), monkeypatch), 6)
    dense = accept_all_words(build_qfa(n), 6)
    assert max(np.abs(m - q).max() for m, q in zip(mutant, dense)) > 1e-9


def test_importing_the_cli_does_not_load_numpy_fft():
    src = str(Path(qfakit.__file__).resolve().parents[1])
    code = (
        "import sys; import numpy; eager = 'numpy.fft' in sys.modules; "
        "import qfakit.cli; print(eager, 'numpy.fft' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy loads numpy.fft when it is imported")
    assert out == ["False", "False"]
