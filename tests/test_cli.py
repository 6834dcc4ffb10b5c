import argparse
import dataclasses
import json
import math
import random

import numpy as np
import pytest

from qfakit import cli, divisibility
from qfakit.divisibility import DfaSpec, build_dfa
from qfakit.circulant import (
    ShiftMatrix,
    classify_special,
    quadratic_phase_circulant,
    quadratic_power_rows,
    quadratic_power_spectra,
)
from qfakit.modular import unit_phases
from qfakit.qfa import DiagonalQfa, QfaSpec, accept_probability, run, validate
from oracles import dfa_accepts, is_unitary, iter_powers, sampled_word


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_human_output(capsys):
    code, out, _ = run_cli(capsys, ["run", "--n", "3", "--word", "a"])
    assert code == 0
    assert "p_accept:   0.333333333333" in out
    assert "member (both counts divisible by 3): no" in out


def test_run_json_output(capsys):
    code, out, _ = run_cli(capsys, ["run", "--n", "3", "--word", "aaabbb", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["p_accept"] == "1.000000000000"
    assert payload["p_residual"] == "0.000000000000"
    assert payload["count_a"] == 3 and payload["count_b"] == 3
    assert payload["nonmember_accept_bound"] == "0.333333333333"


def test_run_empty_word(capsys):
    code, out, _ = run_cli(capsys, ["run", "--n", "5", "--word", "", "--json"])
    assert code == 0
    assert json.loads(out)["p_accept"] == "1.000000000000"


def test_run_rejects_even_modulus(capsys):
    code, _, err = run_cli(capsys, ["run", "--n", "4", "--word", "a"])
    assert code == 2
    assert "odd n > 2" in err


def test_run_rejects_foreign_letters(capsys):
    code, _, err = run_cli(capsys, ["run", "--n", "3", "--word", "abc"])
    assert code == 2
    assert "not in the input alphabet" in err


def test_scan_passes_and_is_deterministic(capsys):
    argv = ["scan", "--n", "3", "--max-len", "4", "--samples", "40", "--seed", "7", "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed")
    r2.pop("elapsed")
    assert json.dumps(r1) == json.dumps(r2)  # byte-stable modulo wall clock
    assert r1["counterexamples"] == []
    assert r1["min_member_prob"] == "1.000000000000"
    assert r1["max_nonmember_prob"] == "0.333333333333"
    assert r1["max_shuffle_delta"] == "0.000000000000"
    assert r1["words_scanned"] == 31 + 40


def test_scan_seed_changes_sampled_words():
    r_a = cli.scan_report(3, 2, 25, seed=1)
    r_b = cli.scan_report(3, 2, 25, seed=2)
    assert r_a["seed"] != r_b["seed"]
    # same verification verdict either way
    assert r_a["counterexamples"] == r_b["counterexamples"] == []


def test_scan_empty_word_only():
    report = cli.scan_report(3, 0, 0, seed=0)
    assert report["words_scanned"] == 1
    assert report["min_member_prob"] == "1.000000000000"
    assert report["max_nonmember_prob"] is None


def test_scan_exit_code_on_counterexample(capsys, monkeypatch):
    def fake_report(n, max_len, samples, seed, random_max_len=40):
        return {
            "n": n,
            "p_min": 3,
            "bound": "0.333333333333",
            "max_len": max_len,
            "samples": samples,
            "random_max_len": random_max_len,
            "seed": seed,
            "words_scanned": 1,
            "min_member_prob": "0.900000000000",
            "max_nonmember_prob": None,
            "max_shuffle_delta": "0.000000000000",
            "counterexamples": [
                {"kind": "member_probability", "word": "x", "p_accept": "0.900000000000"}
            ],
            "elapsed": "0.000000000000",
        }

    monkeypatch.setattr(cli, "scan_report", fake_report)
    code, out, _ = run_cli(capsys, ["scan", "--n", "3", "--json"])
    assert code == 1


def test_scan_reports_real_counterexamples_in_scan_order(capsys, monkeypatch):
    # A real scan at n = 3 with four exhaustive probabilities, one sampled
    # word and one shuffled copy perturbed.
    real_all, real_codes = cli.accept_all_words, cli.qfa._run_codes
    sampled = []

    def perturbed_levels(spec, max_len):
        levels = real_all(spec, max_len)
        # (length, index in product order, p): "", "ab", "aaa", "abba"
        for length, index, p in [(0, 0, 0.5), (2, 1, 0.8), (3, 0, 0.7), (4, 6, 0.5)]:
            levels[length][index] = p
        return levels

    def perturbed_batch(spec, letters, lengths):
        # Rows alternate: sample, its shuffled copy, next sample, ...
        sampled[:] = _spelled(letters, lengths)
        out = real_codes(spec, letters, lengths)
        out[0, 0] = 0.9
        out[3, 0] += 1e-6
        return out

    monkeypatch.setattr(cli, "accept_all_words", perturbed_levels)
    monkeypatch.setattr(cli.qfa, "_run_codes", perturbed_batch)
    report = cli.scan_report(3, 4, 5, seed=2)
    first, second = sampled[0], sampled[2]
    # first (15 a, 24 b) is a member, second (19 a, 17 b) is not.
    assert (first, second) == (
        "bbbaaaababbbbaabababbabababbbbbbabbabab",
        "aaababaabbbabaaaaaaaabbabbbbabbababb",
    )
    assert report["counterexamples"] == [
        {"kind": "member_probability", "word": "", "p_accept": "0.500000000000"},
        {"kind": "nonmember_bound", "word": "ab", "p_accept": "0.800000000000"},
        {"kind": "member_probability", "word": "aaa", "p_accept": "0.700000000000"},
        {"kind": "nonmember_bound", "word": "abba", "p_accept": "0.500000000000"},
        {"kind": "member_probability", "word": first, "p_accept": "0.900000000000"},
        {"kind": "shuffle_variance", "word": first, "p_accept": "0.900000000000"},
        {"kind": "shuffle_variance", "word": second, "p_accept": "0.333333333333"},
    ]
    assert report["words_scanned"] == 31 + 5
    assert report["min_member_prob"] == "0.500000000000"
    assert report["max_nonmember_prob"] == "0.800000000000"
    assert report["max_shuffle_delta"] == cli.fmt12(1 - 0.9)
    argv = ["scan", "--n", "3", "--max-len", "4", "--samples", "5", "--seed", "2", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["counterexamples"] == report["counterexamples"]


def _spelled(codes, lengths):
    return ["".join(divisibility.ALPHABET[k] for k in row[:length]) for row, length in zip(codes, lengths)]


@pytest.mark.parametrize("block", [1, 3, cli.DRAW_BLOCK])
def test_scan_draw_reads_the_generator_as_the_plain_reading(monkeypatch, block):
    # The same words for every block size, sample by sample, as one
    # getrandbits(32 * (1 + high)) call per sample reads them.
    monkeypatch.setattr(cli, "DRAW_BLOCK", block)
    for samples, low, high, seed in [(10, 5, 40, 0), (7, 1, 2, 9), (cli.DRAW_BLOCK + 5, 11, 40, 3)]:
        pairs, lengths, count_b = cli._draw_samples(random.Random(seed), samples, low, high)
        assert pairs.dtype == np.uint8 and pairs.shape == (2 * samples, high)
        words, shuffled = _spelled(pairs[0::2], lengths), _spelled(pairs[1::2], lengths)
        rng = random.Random(seed)
        assert list(zip(words, shuffled)) == [sampled_word(rng, low, high) for _ in range(samples)]
        assert count_b.dtype == np.int64
        assert count_b.tolist() == [w.count("b") for w in words]


def test_scan_draw_properties():
    pairs, lengths, count_b = cli._draw_samples(random.Random(5), 2000, 11, 40)
    assert pairs.dtype == np.uint8 and pairs.shape == (4000, 40)
    words, shuffled = _spelled(pairs[0::2], lengths), _spelled(pairs[1::2], lengths)
    assert lengths.tolist() == list(map(len, words))
    assert set(lengths.tolist()) == set(range(11, 41))
    assert all(sorted(w) == sorted(s) for w, s in zip(words, shuffled))
    assert sum(w != s for w, s in zip(words, shuffled)) > 1900
    assert count_b.tolist() == [w.count("b") for w in words]
    again = cli._draw_samples(random.Random(5), 2000, 11, 40)
    assert all((x == y).all() for x, y in zip(again, (pairs, lengths, count_b)))
    other = cli._draw_samples(random.Random(6), 2000, 11, 40)
    assert _spelled(other[0][0::2], other[1]) != words
    empty = cli._draw_samples(random.Random(5), 0, 11, 40)
    assert [a.shape for a in empty] == [(0, 40), (0,), (0,)]
    fixed = cli._draw_samples(random.Random(5), 50, 7, 7)
    assert set(fixed[1].tolist()) == {7}


def _paper_machine(n, letters=divisibility.ALPHABET):
    # build_diagonal_qfa(n) spelled in letters, with no cap on n.
    spectra = [quadratic_power_spectra(n, [1])[0], unit_phases(-np.arange(n), n)]
    return DiagonalQfa(input_alphabet=letters, spectra=dict(zip(letters, spectra)))


def test_scan_counts_b_past_the_uint16_range(monkeypatch):
    # n = 65537 is prime, so a member needs 65537 letters and none of the
    # words scanned here is one; a b-count mod n in uint16 would overflow.
    monkeypatch.setattr(cli, "build_machine", _paper_machine)
    report = cli.scan_report(65537, 3, 4, seed=0)
    assert report["counterexamples"] == []
    assert report["words_scanned"] == 15 + 4
    assert report["min_member_prob"] == "1.000000000000"  # the empty word


def _identity_b_first(n):
    # A mutant over ("b", "a") whose b is the identity: "b" and "bb" read 1,
    # though neither is a member.
    spectra = {"b": np.ones(n), "a": quadratic_power_spectra(n, [1])[0]}
    return DiagonalQfa(input_alphabet=("b", "a"), spectra=spectra)


def test_scan_spells_counterexamples_in_the_machines_letters(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_machine", _identity_b_first)
    machine = _identity_b_first(3)
    report = cli.scan_report(3, 2, 3, 0)
    named = [item["word"] for item in report["counterexamples"]]
    assert {"b", "bb"} <= set(named)
    for word in named:
        assert run(machine, word).p_accept > 1 / 3 + cli.PROB_TOL, word
    code, out, _ = run_cli(capsys, ["scan", "--n", "3", "--max-len", "2", "--samples", "3"])
    assert code == 1
    assert "  nonmember_bound: 'b' p_accept=1.000000000000" in out
    assert "  nonmember_bound: 'bb' p_accept=1.000000000000" in out


def _three_letters(n):
    spectra = {"a": quadratic_power_spectra(n, [1])[0], "b": np.ones(n), "c": np.ones(n)}
    return DiagonalQfa(input_alphabet=("a", "b", "c"), spectra=spectra)


def test_scan_refuses_a_machine_not_over_two_letters(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_machine", _three_letters)
    code, out, err = run_cli(capsys, ["scan", "--n", "3", "--max-len", "2", "--samples", "3"])
    assert code == 2
    assert out == ""
    assert "('a', 'b', 'c')" in err


def test_run_reads_the_word_in_the_machines_letters(capsys, monkeypatch):
    def over_xy(n):
        return _paper_machine(n, ("x", "y"))

    monkeypatch.setattr(cli, "build_machine", over_xy)
    code, out, _ = run_cli(capsys, ["run", "--n", "3", "--word", "xyy", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["count_a"], payload["count_b"], payload["member"]) == (1, 2, False)
    assert payload["p_accept"] == cli.fmt12(run(over_xy(3), "xyy").p_accept)
    code, out, _ = run_cli(capsys, ["run", "--n", "3", "--word", "xyy"])
    assert code == 0
    assert "word: 'xyy' (x=1, y=2)" in out


def test_run_counts_the_machines_second_letter_as_b(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_machine", _identity_b_first)
    code, out, _ = run_cli(capsys, ["run", "--n", "3", "--word", "b", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["count_a"], payload["count_b"]) == (1, 0)


def test_run_refuses_a_machine_not_over_two_letters(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_machine", _three_letters)
    code, out, err = run_cli(capsys, ["run", "--n", "3", "--word", "ab"])
    assert code == 2
    assert out == ""
    assert "('a', 'b', 'c')" in err


def test_run_judges_n_before_the_word(capsys):
    code, out, err = run_cli(capsys, ["run", "--n", "4", "--word", "abc"])
    assert code == 2 and out == ""
    assert "odd n > 2" in err


def test_scan_caps_max_len_before_scanning(capsys, monkeypatch):
    scanned = []

    def fake_report(n, max_len, samples, seed, random_max_len=40):
        scanned.append(max_len)
        return {"counterexamples": []}

    monkeypatch.setattr(cli, "scan_report", fake_report)
    for max_len in (cli.SCAN_MAX_LEN + 1, 40):
        code, out, err = run_cli(capsys, ["scan", "--n", "3", "--max-len", str(max_len)])
        assert code == 2 and out == ""
        assert f"max-len must be at most {cli.SCAN_MAX_LEN}" in err
    assert scanned == []
    argv = ["scan", "--n", "3", "--max-len", str(cli.SCAN_MAX_LEN), "--json"]
    assert run_cli(capsys, argv)[0] == 0
    assert scanned == [cli.SCAN_MAX_LEN]


def _record_scans(monkeypatch):
    scanned = []

    def fake_report(*args):
        scanned.append(args)
        return {"counterexamples": []}

    monkeypatch.setattr(cli, "scan_report", fake_report)
    return scanned


def test_scan_caps_samples_before_scanning(capsys, monkeypatch):
    scanned = _record_scans(monkeypatch)
    argv = ["scan", "--n", "3", "--max-len", "4", "--json", "--samples"]
    code, out, err = run_cli(capsys, argv + [str(cli.SCAN_MAX_SAMPLES + 1)])
    assert code == 2 and out == ""
    assert f"samples must be at most {cli.SCAN_MAX_SAMPLES}" in err
    assert scanned == []
    assert run_cli(capsys, argv + [str(cli.SCAN_MAX_SAMPLES)])[0] == 0
    assert scanned == [(3, 4, cli.SCAN_MAX_SAMPLES, 0)]


def _too_many_words(n, max_len, samples):
    return f"max-len {max_len} and {samples} samples are too many words at n = {n}"


def test_scan_caps_sample_work_by_n(capsys, monkeypatch):
    scanned = _record_scans(monkeypatch)
    # Just above SCAN_MAX_WORK at n = 1001: 1 + 2 * 8380 words.
    argv = ["scan", "--n", "1001", "--max-len", "0", "--samples", "8380"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert _too_many_words(1001, 0, 8380) in err
    assert f"SCAN_MAX_WORK = {cli.SCAN_MAX_WORK}" in err
    assert scanned == []
    # The dense-era charge refused (1001, 1001) and (143, 50000); SCAN_MAX_SAMPLES
    # alone binds up to n = 167.
    admitted = [(1001, 8379), (1001, 1001), (1001, 1000), (167, 50000), (143, 50000), (21, 200)]
    for n, samples in admitted:
        argv = ["scan", "--n", str(n), "--max-len", "0", "--samples", str(samples), "--json"]
        assert run_cli(capsys, argv)[0] == 0
    assert scanned == [(n, 0, samples, 0) for n, samples in admitted]
    assert run_cli(capsys, ["scan", "--n", "169", "--max-len", "0", "--samples", "50000"])[0] == 2
    assert run_cli(capsys, ["scan", "--n", "1001", "--max-len", "0", "--json"])[0] == 0
    assert scanned[-1] == (1001, 0, 1000, 0)


def test_scan_caps_exhaustive_work_by_n(capsys, monkeypatch):
    scanned = _record_scans(monkeypatch)
    # (1001, 14) is just above SCAN_MAX_WORK: 2**15 - 1 words.
    for n, max_len, samples in [(1001, 14, 0), (1001, 20, 0), (10**6, 0, 1000)]:
        argv = ["scan", "--n", str(n), "--max-len", str(max_len), "--samples", str(samples)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert _too_many_words(n, max_len, samples) in err
    assert scanned == []
    # The dense-era charge refused (101, 11) and (1001, 4).
    admitted = [(3, 20), (3, 18), (21, 10), (101, 10), (101, 11), (1001, 3), (1001, 4), (1001, 13)]
    for n, max_len in admitted:
        argv = ["scan", "--n", str(n), "--max-len", str(max_len), "--samples", "0", "--json"]
        assert run_cli(capsys, argv)[0] == 0
    assert [args[:2] for args in scanned] == admitted


def _dense_era_caps(n):
    # The caps as the dense charge set them, frozen here as the oracle: one
    # (2n + 1)**2 product per word, the exhaustive part up to its value at
    # n = 3, L = 20 and the samples up to 1000 at n = 1001.
    dense = (2 * n + 1) ** 2
    max_len = max(L for L in range(21) if (2 ** (L + 1) - 1) * dense <= (2**21 - 1) * 7**2)
    samples = min(50000, 1000 * 2003**2 // dense)
    return max_len, samples


def test_scan_admits_every_run_the_dense_caps_admitted(capsys, monkeypatch):
    scanned = _record_scans(monkeypatch)
    expected = []
    for n in range(3, 1002, 2):
        max_len, samples = _dense_era_caps(n)
        expected.append((n, max_len, samples, 0))
        args = argparse.Namespace(n=n, max_len=max_len, samples=samples, seed=0, json=True)
        assert cli.cmd_scan(args) == 0, (n, max_len, samples)
    assert scanned == expected
    assert expected[69] == (141, 9, 50000, 0) and expected[-1] == (1001, 3, 1000, 0)


def test_scan_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, ["scan", "--n", "3", "--seed", "-1"])
    assert code == 2 and "seed" in err
    code, _, err = run_cli(capsys, ["scan", "--n", "3", "--seed", str(2**64)])
    assert code == 2 and "seed" in err


def test_scan_rejects_negative_max_len_and_samples(capsys, monkeypatch):
    scanned = _record_scans(monkeypatch)
    code, out, err = run_cli(capsys, ["scan", "--n", "3", "--max-len", "-1"])
    assert code == 2 and out == "" and "error: max-len must be non-negative" in err
    code, out, err = run_cli(capsys, ["scan", "--n", "3", "--samples", "-1"])
    assert code == 2 and out == "" and "error: samples must be non-negative" in err
    assert scanned == []


def test_lemmas_prime(capsys):
    code, out, _ = run_cli(capsys, ["lemmas", "--n", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["prime"] is True
    assert report["prime_power_law_ok"] is True
    assert report["composite_power_law_ok"] is None
    assert report["first_entry_bound_ok"] is True
    last = report["rows"][-1]
    assert last["s"] == 3 and last["l"] == 3
    assert last["x0_squared"] == "1.000000000000"


def test_lemmas_composite(capsys):
    code, out, _ = run_cli(capsys, ["lemmas", "--n", "9", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["prime"] is False
    assert report["composite_power_law_ok"] is True
    assert report["prime_power_law_ok"] is None
    by_s = {row["s"]: row for row in report["rows"]}
    assert by_s[3]["l"] == 3 and by_s[3]["k"] == 1  # p_min power
    assert by_s[9]["l"] == 9
    assert all(row["l"] < 9 for s, row in by_s.items() if s < 9)


def test_lemmas_closed_form_at_301():
    # 301 = 7 * 43: every power s has l = gcd(s, n), g = n / l,
    # k = (s / l)^-1 mod g, and |x0|^2 = |c|^2 = l / n
    n = 301
    report = cli.lemma_report(n)
    assert report["composite_power_law_ok"] is True
    assert report["first_entry_bound_ok"] is True
    assert [row["s"] for row in report["rows"]] == list(range(1, n + 1))
    for row in report["rows"]:
        s = row["s"]
        l = math.gcd(s, n)
        g = n // l
        assert row["is_special"] is True, s
        assert (row["l"], row["g"], row["k"]) == (l, g, pow(s // l, -1, g)), s
        assert abs(float(row["x0_squared"]) - l / n) < 1e-9, s
        assert abs(float(row["c_abs"]) - math.sqrt(l / n)) < 1e-9, s


def test_lemmas_flag_a_wrong_phase_coefficient_off_p_min(capsys, monkeypatch):
    # At n = 9, s = 2 has l = 1, g = 9 and k = 2^-1 mod 9 = 5; no other
    # power has k = 5 at g = 9.  Reporting k = 4 there breaks the closed
    # form while every l stays as it should.
    real = cli.classify_special

    def wrong_k(rows):
        return [
            dataclasses.replace(p, k=4) if (p.g, p.k) == (9, 5) else p for p in real(rows)
        ]

    monkeypatch.setattr(cli, "classify_special", wrong_k)
    report = cli.lemma_report(9)
    assert [row["k"] for row in report["rows"] if row["s"] == 2] == [4]
    assert report["composite_power_law_ok"] is False
    assert report["prime_power_law_ok"] is None
    assert report["first_entry_bound_ok"] is True
    code, out, _ = run_cli(capsys, ["lemmas", "--n", "9"])
    assert code == 1
    assert "power law ok: False" in out


def _reference_lemma_report(n):
    # The report from the iterated-product oracle, one power at a time.
    p_min = min(p for p in range(3, n + 1, 2) if n % p == 0)
    rows = []
    law_ok = first_entry_ok = True
    for s, power in iter_powers(quadratic_phase_circulant(n).first_row, n):
        profile = classify_special(power)
        x0_sq = abs(power[0]) ** 2
        row = {"s": s, "is_special": profile is not None}
        if profile is not None:
            row.update(l=profile.l, g=profile.g, k=profile.k, c_abs=cli.fmt12(abs(profile.c)))
        row["x0_squared"] = cli.fmt12(x0_sq)
        rows.append(row)
        l = math.gcd(s, n)
        law = (l, n // l, pow(s // l, -1, n // l))
        law_ok &= (row.get("l"), row.get("g"), row.get("k")) == law
        if s == n:
            first_entry_ok &= abs(x0_sq - 1.0) <= cli.PROB_TOL
        else:
            first_entry_ok &= x0_sq <= 1 / p_min + cli.PROB_TOL
    prime = p_min == n
    return {
        "n": n,
        "p_min": p_min,
        "prime": prime,
        "rows": rows,
        "prime_power_law_ok": law_ok if prime else None,
        "composite_power_law_ok": None if prime else law_ok,
        "first_entry_bound_ok": first_entry_ok,
    }


def test_lemma_report_matches_the_iterated_product_reference():
    for n in range(3, 106, 2):
        report = cli.lemma_report(n)
        assert report == _reference_lemma_report(n), n
        assert report["prime_power_law_ok"] in (True, None), n
        assert report["composite_power_law_ok"] in (True, None), n


def _spectrum_rows(eps, quarter):
    # The powers of A from the spectrum eps**s * exp(-2*pi*i * s*quarter * m^2 / n),
    # as quadratic_power_rows yields them, in one block.
    def rows(n):
        s = np.arange(1, n + 1)[:, None]
        m = np.arange(n)
        spectrum = eps**s * np.exp(-2j * np.pi * (s * quarter * m * m % n) / n)
        yield 1, np.fft.ifft(spectrum, axis=1)

    return rows


@pytest.mark.parametrize("n", [5, 7, 9, 15, 21, 25])
def test_lemmas_flag_a_mutant_spectrum(monkeypatch, n):
    key = "prime_power_law_ok" if n in (5, 7) else "composite_power_law_ok"
    eps = 1 if n % 4 == 1 else 1j
    monkeypatch.setattr(cli, "quadratic_power_rows", _spectrum_rows(eps, pow(4, -1, n)))
    assert cli.lemma_report(n)[key] is True
    # A wrong eps_n is a unit scalar on every power: only the anchor of the
    # first power to A catches it.  A wrong 4^-1 changes k.
    for wrong_eps, wrong_quarter in [(1j / eps, pow(4, -1, n)), (eps, pow(2, -1, n)), (eps, 1)]:
        monkeypatch.setattr(cli, "quadratic_power_rows", _spectrum_rows(wrong_eps, wrong_quarter))
        report = cli.lemma_report(n)
        assert report[key] is False, (wrong_eps, wrong_quarter)
        assert report["first_entry_bound_ok"] is True


def _halved_powers(n):
    # The powers 2 <= s < n at half their size: each keeps its sparse
    # form (l, g, k), and its first entry stays below 1/p_min.
    for first, block in quadratic_power_rows(n):
        s = np.arange(first, first + len(block))[:, None]
        yield first, np.where((2 <= s) & (s < n), block / 2, block)


@pytest.mark.parametrize("n", [15, 105])
def test_lemmas_flag_powers_of_the_wrong_size(capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "quadratic_power_rows", _halved_powers)
    report = cli.lemma_report(n)
    assert all(row["is_special"] for row in report["rows"])
    assert report["composite_power_law_ok"] is False
    assert report["first_entry_bound_ok"] is True
    code, _, _ = run_cli(capsys, ["lemmas", "--n", str(n)])
    assert code == 1


def test_lemmas_human_table_names_a_power_not_sparse(capsys, monkeypatch):
    def shift_for_the_square(n):
        # The second power replaced by the cyclic shift, which is not sparse.
        ((first, block),) = quadratic_power_rows(n)  # one block at n = 5
        block[1] = np.roll(np.eye(n)[0], 1)  # row 1 is A**2
        yield first, block

    monkeypatch.setattr(cli, "quadratic_power_rows", shift_for_the_square)
    code, out, _ = run_cli(capsys, ["lemmas", "--n", "5"])
    assert code == 1
    assert "   2  not of the sparse quadratic-phase form" in out
    assert "power law ok: False" in out


def test_lemmas_human_table(capsys):
    code, out, _ = run_cli(capsys, ["lemmas", "--n", "5"])
    assert code == 0
    assert "power law ok: True" in out
    assert "first entry bound ok: True" in out


def test_compare_small(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--n", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["qfa_logical_states"] == 5
    assert report["qfa_internal_states"] == 7
    assert report["dfa_states"] == 9
    assert report["dfa_minimized_states"] == 9
    assert report["dfa_to_qfa_state_ratio"] == "1.800000000000"


def test_compare_skips_minimization_for_large_n(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--n", "103", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["dfa_minimized_states"] == 103 * 103
    assert report["dfa_states"] == 103 * 103
    code, out, _ = run_cli(capsys, ["compare", "--n", "17", "--json"])
    assert code == 0
    assert json.loads(out)["dfa_minimized_states"] == 289
    assert cli.compare_report(101)["dfa_minimized_states"] == 101 * 101


@pytest.mark.parametrize(
    "argv", [["compare", "--n", "10001"], ["run", "--n", "10001", "--word", "a"]]
)
def test_dense_build_cap_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "DENSE_MAX_N" in err


def test_compare_certifies_large_dfa_without_minimizing(monkeypatch):
    def refuse(dfa):
        raise AssertionError("compare ran the minimizer")

    monkeypatch.setattr(divisibility, "minimize_dfa", refuse)
    report = cli.compare_report(103)
    assert report["dfa_states"] == 103**2
    assert report["dfa_minimized_states"] == 103**2
    assert report["dfa_to_qfa_state_ratio"] == cli.fmt12(103**2 / 105)


def _not_a_permutation(dfa):
    # a4b0 loops on a instead of returning to a0b0; every state stays
    # reachable and one accepts.
    successors = dfa.successors.copy()
    successors[0, dfa.states.index("a4b0")] = dfa.states.index("a4b0")
    return DfaSpec.from_arrays(dfa.states, successors, dfa.accept_mask, dfa.start_index)


def _two_accepting(dfa):
    accept_mask = dfa.accept_mask.copy()
    accept_mask[dfa.states.index("a1b0")] = True
    return DfaSpec.from_arrays(dfa.states, dfa.successors, accept_mask, dfa.start_index)


def _unreachable_state(dfa):
    # An island that both letters map to itself: the letters still permute.
    island = len(dfa.states)
    successors = np.column_stack((dfa.successors, [island, island]))
    accept_mask = np.append(dfa.accept_mask, False)
    return DfaSpec.from_arrays(dfa.states + ("island",), successors, accept_mask, dfa.start_index)


def _wrong_accepting_state(dfa):
    # a0b1 accepts in place of a0b0: the letters still permute, every
    # state is reachable and one accepts, but the language is #b = 1.
    accept_mask = np.zeros_like(dfa.accept_mask)
    accept_mask[dfa.states.index("a0b1")] = True
    return DfaSpec.from_arrays(dfa.states, dfa.successors, accept_mask, dfa.start_index)


def _swapped_transitions(dfa):
    # a0b0 and a0b1 exchange their a-successors; the letters still permute.
    successors = dfa.successors.copy()
    swap = [dfa.states.index("a0b0"), dfa.states.index("a0b1")]
    successors[0, swap] = successors[0, swap[::-1]]
    return DfaSpec.from_arrays(dfa.states, successors, dfa.accept_mask, dfa.start_index)


def _moved_start(dfa):
    start = dfa.states.index("a1b0")
    return DfaSpec.from_arrays(dfa.states, dfa.successors, dfa.accept_mask, start)


def _duplicated_state(dfa):
    # A copy of a0b0, which a4b0 now enters on a: the language is L_n, but
    # with n * n + 1 states.
    copy = len(dfa.states)
    successors = np.column_stack((dfa.successors, dfa.successors[:, dfa.start_index]))
    successors[0, dfa.states.index("a4b0")] = copy
    accept_mask = np.append(dfa.accept_mask, True)
    return DfaSpec.from_arrays(dfa.states + ("a0b0'",), successors, accept_mask, dfa.start_index)


def test_compare_exits_one_when_the_dfa_is_not_minimal(capsys, monkeypatch):
    # Each mutant is something other than L_n's minimal DFA: a DFA of
    # another language, or one with a state too many.
    mutants = (
        _not_a_permutation,
        _two_accepting,
        _unreachable_state,
        _wrong_accepting_state,
        _swapped_transitions,
        _moved_start,
        _duplicated_state,
    )
    for mutate in mutants:
        monkeypatch.setattr(cli, "build_dfa", lambda n, mutate=mutate: mutate(build_dfa(n)))
        code, out, _ = run_cli(capsys, ["compare", "--n", "5", "--json"])
        assert code == 1, mutate.__name__
        report = json.loads(out)
        assert report["dfa_minimized_states"] is None
        code, out, _ = run_cli(capsys, ["compare", "--n", "5"])
        assert code == 1
        assert "DFA states certified minimal: None" in out


def test_lemmas_refuses_n_above_its_cap(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"power rows computed for n = {n}")

    monkeypatch.setattr(cli, "quadratic_power_rows", refuse)
    code, out, err = run_cli(capsys, ["lemmas", "--n", str(cli.LEMMAS_MAX_N + 2)])
    assert code == 2
    assert out == ""
    assert "LEMMAS_MAX_N" in err
    # The cap itself is admitted: the powers are reached.
    with pytest.raises(AssertionError, match=f"for n = {cli.LEMMAS_MAX_N}"):
        cli.lemma_report(cli.LEMMAS_MAX_N)


def test_export_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["export", "--n", "3", "--out", str(tmp_path)])
    assert code == 0
    qfa_data = json.loads((tmp_path / "qfa.json").read_text())
    dfa_data = json.loads((tmp_path / "dfa.json").read_text())
    circ_data = json.loads((tmp_path / "circulants.json").read_text())

    spec = QfaSpec.from_json_dict(qfa_data)
    assert validate(spec) == []
    assert abs(accept_probability(spec, "ab") - 1 / 3) < 1e-12

    dfa = DfaSpec.from_json_dict(dfa_data)
    assert dfa == build_dfa(3)
    assert dfa_accepts(dfa, "aaabbb")

    for letter in ("a", "b"):
        matrix = ShiftMatrix.from_json_dict(circ_data[letter])
        assert is_unitary(matrix.first_row, 1e-9)


def test_export_refuses_n_above_the_dfa_cap(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"machine built for n = {n} above the export cap")

    monkeypatch.setattr(cli, "build_dense_qfa", refuse)
    monkeypatch.setattr(cli, "build_dfa", refuse)
    out = tmp_path / "export"
    code, stdout, err = run_cli(capsys, ["export", "--n", "103", "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert f"EXPORT_MAX_N = {cli.EXPORT_MAX_N}" in err
    assert not out.exists()


def test_export_is_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_cli(capsys, ["export", "--n", "5", "--out", str(out1)])[0] == 0
    assert run_cli(capsys, ["export", "--n", "5", "--out", str(out2)])[0] == 0
    for name in ("qfa.json", "dfa.json", "circulants.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_export_unwritable_path(capsys):
    code, _, err = run_cli(capsys, ["export", "--n", "3", "--out", "/proc/nope"])
    assert code == 2
    assert "cannot write" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--word", "a"])  # missing --n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2
