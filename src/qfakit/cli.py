"""Command-line harness for running and verifying the recognizers.

Subcommands: run one word, scan word spaces against the acceptance
bounds, check the power-classification laws of the quadratic-phase
circulant, compare quantum and classical state counts, and export the
machines as JSON.  All probabilities in reports are printed as decimal
strings with 12 fractional digits so that repeated runs with the same
flags and seed produce byte-identical output (the elapsed field is the
one exception; it reports wall-clock time).

Exit codes: 0 success, 1 a verification check failed, 2 usage or domain
error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import qfa
from .circulant import (
    classify_special,
    cyclic_shift_circulant,
    quadratic_phase_circulant,
    quadratic_power_rows,
)
from .divisibility import (
    build_dfa,
    build_diagonal_qfa,
    build_qfa as build_dense_qfa,
    counts_in_language,
    is_nerode_automaton,
)
from .modular import factorize
from .qfa import _spell, accept_all_words, run

# The machine run, scan and compare simulate: the recognizer in the DFT
# basis.  They look it up by this name when called, so the dense QfaSpec
# of divisibility.build_qfa, the oracle, or a hand-built machine can take
# its place.  export writes the dense machine.
build_machine = build_diagonal_qfa

PROB_TOL = 1e-9
SHUFFLE_TOL = 1e-12
# The largest n export admits: it writes four dense unitaries and the
# whole n x n DFA as JSON, which grow as n**2 (`export --n 101` writes
# 9 MB in 1.1-1.4 s).
EXPORT_MAX_N = 101
# scan keeps 8 bytes per exhaustive word, 2**L words at length L:
# --max-len 18 takes about 0.5 s and --max-len 20 about 1.5 s, and every
# further length doubles the time and the memory.
SCAN_MAX_LEN = 20
# scan holds the codes of every sampled word and shuffled copy and both results
# before judging them: 20000 samples take about 0.3 s and 35 MB peak RSS at
# n = 3, 50000 about 0.4 s and 41 MB (fresh processes); both grow linearly.
SCAN_MAX_SAMPLES = 50000
# scan simulates 2**(L + 1) - 1 exhaustive words and 2 * samples sampled
# ones (each sample and its shuffled copy) and is charged n per word: in the
# DFT basis an exhaustive word costs one letter, one copy of its parent's
# row and the two sums that close it, each O(n) (0.5 us at n = 3, 2.6 us at
# n = 101 and 23 us at n = 1001 on a 2-vCPU VM).  The cap admits every run
# that a dense charge, (2n + 1)**2 per word, admits, and at n = 1001 up to
# L = 13 (0.5 s, 62 MB peak RSS) or 8379 samples (1.4 s, 40 MB); n = 101,
# L = 15 with 50000 samples takes 1.3 s (fresh processes).
SCAN_MAX_WORK = 2**24
# The largest n lemmas admits.  lemma_report streams the powers in blocks
# of O(n) memory and costs O(n**2 log n): on a 2-vCPU VM `lemmas --n 3001`
# took about 1.0 s and 37 MB peak RSS, `lemmas --n 10001` 11-12 s and
# 52 MB, most of it the report itself.
LEMMAS_MAX_N = 10001
# scan samples its random words with lengths up to this (or max_len + 1).
RANDOM_MAX_LEN = 40
# _draw_samples reads this many samples per getrandbits call, so that its
# arrays stay small at SCAN_MAX_SAMPLES; every sample reads the same
# outputs whatever the block, so the words do not depend on it.
DRAW_BLOCK = 256


def fmt12(x: float) -> str:
    """Fixed-point decimal with 12 fractional digits, no negative zero."""
    if abs(x) < 5e-13:
        x = 0.0
    return f"{x:.12f}"


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _judge(
    member: np.ndarray, p: np.ndarray, bound: float, lowest: float, highest: float
) -> tuple[np.ndarray, float, float]:
    """Wrong mask of a batch, and lowest member p and highest non-member p so far.

    A member is wrong when its p is more than PROB_TOL from 1, a
    non-member when it exceeds bound by more than PROB_TOL.  lowest and
    highest carry the extremes of the batches before; start them at inf
    and -inf.
    """
    wrong = p > bound + PROB_TOL
    wrong[member] = np.abs(p[member] - 1.0) > PROB_TOL
    lowest = np.min(p, where=member, initial=lowest)
    highest = np.max(p, where=~member, initial=highest)
    return wrong, float(lowest), float(highest)


def _draw_samples(
    rng: random.Random, samples: int, low: int, high: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """samples random words with lengths in low..high: the pair matrix, lengths, 1-counts.

    Each sample reads 1 + high consecutive 32-bit outputs of
    rng.getrandbits.  Output 0 picks the length, low + (output * (high -
    low + 1) >> 32); output i gives code i, output >> 31, and its
    shuffle key, the low 31 bits.  The draw writes the (2 * samples,
    high) uint8 matrix that qfa._run_codes reads: row 2i holds sample
    i's codes, indices into the scanned machine's two letters, in its
    first lengths[i] entries; row 2i + 1 holds them in stable key order.
    """
    pairs = np.empty((samples, 2, high), dtype=np.uint8)
    lengths, count_b = np.empty((2, samples), dtype=np.int64)
    shift = high.bit_length()
    for first in range(0, samples, DRAW_BLOCK):
        rows = slice(first, min(first + DRAW_BLOCK, samples))
        size = 4 * (1 + high) * (rows.stop - first)
        out = np.frombuffer(rng.getrandbits(8 * size).to_bytes(size, "little"), dtype="<u4")
        out = out.reshape(-1, 1 + high).astype(np.int64)
        lengths[rows] = low + (out[:, 0] * (high - low + 1) >> 32)
        used = np.arange(high) < lengths[rows, None]
        bits = out[:, 1:] >> 31
        # Each key with its position below it: sorted, these give the keys'
        # stable order 5-6 times faster than a stable argsort.  Keys past a
        # word's end sort after all of its own.
        keyed = np.where(used, out[:, 1:] & 0x7FFFFFFF, 2**31) << shift | np.arange(high)
        order = np.sort(keyed, axis=1) & (2**shift - 1)
        count_b[rows] = (bits & used).sum(axis=1)
        pairs[rows, 0] = bits
        pairs[rows, 1] = np.take_along_axis(bits, order, axis=1)
    return pairs.reshape(-1, high), lengths, count_b


def _bound_violation(member: bool, word: str, p: float) -> dict:
    kind = "member_probability" if member else "nonmember_bound"
    return {"kind": kind, "word": word, "p_accept": fmt12(p)}


def _two_letter_machine(n: int) -> tuple[qfa.Machine, int]:
    """build_machine(n) and n's p_min; run and scan read words in its two letters.

    Raises ValueError, naming the letters, for a machine not over two.
    """
    spec = build_machine(n)
    if len(spec.input_alphabet) != 2:
        raise ValueError(f"need a machine over two letters, not {spec.input_alphabet}")
    return spec, factorize(n).p_min


def scan_report(n: int, max_len: int, samples: int, seed: int) -> dict:
    """Sweep words and compare acceptance probabilities to the bounds.

    Words up to max_len are enumerated exhaustively in length-then-
    lexicographic order, with each shared prefix simulated once;
    samples further words with lengths in (max_len, RANDOM_MAX_LEN] are
    drawn from random.Random(seed) by _draw_samples into the pair matrix
    that qfa._run_codes simulates as one batch.
    The machine and its codes come from _two_letter_machine.  Members,
    whose count of code 1 and of the rest are divisible by n, must accept
    with probability 1, non-members with at most 1/p_min, both within
    1e-9.  Each sampled word is also re-run under one random permutation
    of its letters, which must not change the probability by more than
    1e-12.

    The verdicts are taken over arrays, one length at a time and then
    the sampled batch.  Word i of length L spells i in binary, so the
    1-counts of one length follow from those of the length before
    (children 2i and 2i + 1), and a word is spelled out only when it is
    a counterexample.  Counterexamples come in scan order; a sampled
    word's bound violation comes before its shuffle variance.
    """
    spec, p_min = _two_letter_machine(n)
    alphabet = spec.input_alphabet
    bound = 1.0 / p_min
    started = time.perf_counter()
    levels = accept_all_words(spec, max_len)
    high = max(RANDOM_MAX_LEN, max_len + 1)
    rng = random.Random(seed)
    pairs, lengths, sampled_b = _draw_samples(rng, samples, max_len + 1, high)
    outcomes = qfa._run_codes(spec, pairs, np.repeat(lengths, 2))

    counterexamples: list[dict] = []
    lowest, highest = np.inf, -np.inf
    # int32 takes `% n` for every n below 2**31, far past any machine that
    # fits in memory; int64 cost 8 MB more peak RSS at max_len 20, n = 3.
    count_b = np.zeros(1, dtype=np.int32)
    for length, p in enumerate(levels):
        if length:
            count_b = np.repeat(count_b, 2)
            count_b[1::2] += 1
        # length - b and b are both divisible by n exactly when length and b are.
        member = counts_in_language(length, count_b, n)
        wrong, lowest, highest = _judge(member, p, bound, lowest, highest)
        for i in np.flatnonzero(wrong).tolist():
            counterexamples.append(_bound_violation(member[i], _spell(alphabet, length, i), p[i]))

    p = outcomes[0::2, 0]
    delta = np.abs(p - outcomes[1::2, 0])
    member = counts_in_language(lengths - sampled_b, sampled_b, n)
    wrong, lowest, highest = _judge(member, p, bound, lowest, highest)
    for i in np.flatnonzero(wrong | (delta > SHUFFLE_TOL)).tolist():
        word = "".join(alphabet[k] for k in pairs[2 * i, : lengths[i]].tolist())
        if wrong[i]:
            counterexamples.append(_bound_violation(member[i], word, p[i]))
        if delta[i] > SHUFFLE_TOL:
            counterexamples.append(
                {"kind": "shuffle_variance", "word": word, "p_accept": fmt12(p[i])}
            )

    return {
        "n": n,
        "p_min": p_min,
        "bound": fmt12(bound),
        "max_len": max_len,
        "samples": samples,
        "random_max_len": high,
        "seed": seed,
        "words_scanned": sum(map(len, levels)) + samples,
        "min_member_prob": fmt12(lowest),
        "max_nonmember_prob": None if highest == -np.inf else fmt12(highest),
        "max_shuffle_delta": fmt12(np.max(delta, initial=0.0)),
        "counterexamples": counterexamples,
        "elapsed": fmt12(time.perf_counter() - started),
    }


def lemma_report(n: int) -> dict:
    """Classify every power of the quadratic-phase circulant up to n.

    Every power s = 1 ... n must be of the sparse quadratic-phase form
    with the closed-form profile l = gcd(s, n), g = n / l and
    k = (s / l)^-1 mod g.  For prime n that is full support (l = 1) with
    k = 1/s mod n below n; for composite n the p_min-th power lands on
    l = p_min, k = 1; the n-th power is l = n (a phase times the
    identity).  The first entry of every power obeys |x0|^2 = 1 at s = n
    and |x0|^2 <= 1/p_min before that.  The power-law verdict is
    reported under prime_power_law_ok or composite_power_law_ok, by
    the kind of n; the other key is None.  That verdict also holds each
    |c|^2, read as |x0|^2, to l / n, and the first power to A itself:
    its c must be 1/sqrt(n).

    The powers come from quadratic_power_rows in blocks, each classified
    as one array, so the cost is O(n**2 log n) and memory O(n).  Raises
    ValueError above LEMMAS_MAX_N before computing any power.
    """
    if n > LEMMAS_MAX_N:
        raise ValueError(
            f"n = {n} exceeds LEMMAS_MAX_N = {LEMMAS_MAX_N}, the largest n"
            " lemmas admits"
        )
    fac = factorize(n)
    rows = []
    power_law_ok = first_entry_ok = True
    for first, block in quadratic_power_rows(n):
        powers = range(first, first + len(block))
        for s, profile, x0 in zip(powers, classify_special(block), block[:, 0].tolist()):
            x0_sq = abs(x0) ** 2
            row: dict = {"s": s, "is_special": profile is not None}
            if profile is not None:
                row.update(l=profile.l, g=profile.g, k=profile.k, c_abs=fmt12(abs(profile.c)))
            row["x0_squared"] = fmt12(x0_sq)
            rows.append(row)

            l = math.gcd(s, n)
            law = (l, n // l, pow(s // l, -1, n // l))
            power_law_ok &= (row.get("l"), row.get("g"), row.get("k")) == law
            power_law_ok &= abs(x0_sq - l / n) <= PROB_TOL
            if s == 1 and profile is not None:
                # (1, n, 1) with c = 1/sqrt(n) spells out A's own first row.  A
                # unit scalar on every power leaves each (l, g, k) and |x0| as
                # they are, so this pins the powers to A.
                power_law_ok &= abs(profile.c - 1 / math.sqrt(n)) <= PROB_TOL
            if s == n:
                first_entry_ok &= abs(x0_sq - 1.0) <= PROB_TOL
            else:
                first_entry_ok &= x0_sq <= 1.0 / fac.p_min + PROB_TOL
    return {
        "n": n,
        "p_min": fac.p_min,
        "prime": fac.is_prime,
        "rows": rows,
        "prime_power_law_ok": power_law_ok if fac.is_prime else None,
        "composite_power_law_ok": None if fac.is_prime else power_law_ok,
        "first_entry_bound_ok": first_entry_ok,
    }


def compare_report(n: int) -> dict:
    """State counts of the quantum recognizer against the minimal DFA.

    is_nerode_automaton checks that build_dfa(n) is L_n's Nerode
    automaton: it recognizes L_n, and no DFA for L_n has fewer than its
    n * n states.  That costs O(n**2) on the successor arrays, at every n
    build_machine admits.  dfa_minimized_states is n * n when build_dfa(n)
    is so certified as L_n's minimal DFA, else None.  The quantum state
    counts are read from the machine in the DFT basis, which holds no
    dense unitary.
    """
    qfa_spec = build_machine(n)
    dfa_spec = build_dfa(n)
    dfa_states = dfa_spec.successors.shape[1]
    return {
        "n": n,
        "qfa_logical_states": qfa_spec.logical_state_count,
        "qfa_internal_states": qfa_spec.dim,
        "dfa_states": dfa_states,
        "dfa_minimized_states": dfa_states if is_nerode_automaton(dfa_spec, n) else None,
        "dfa_to_qfa_state_ratio": fmt12(dfa_states / qfa_spec.logical_state_count),
    }


def cmd_run(args: argparse.Namespace) -> int:
    """Run one word; count_b counts the machine's second letter, count_a the rest."""
    spec, p_min = _two_letter_machine(args.n)
    result = run(spec, args.word)
    first, second = spec.input_alphabet
    count_b = args.word.count(second)
    count_a = len(args.word) - count_b
    member = counts_in_language(count_a, count_b, args.n)
    payload = {
        "n": args.n,
        "word": args.word,
        "count_a": count_a,
        "count_b": count_b,
        "member": member,
        "p_accept": fmt12(result.p_accept),
        "p_reject": fmt12(result.p_reject),
        "p_residual": fmt12(result.p_residual),
        "nonmember_accept_bound": fmt12(1.0 / p_min),
    }
    if args.json:
        print(_dumps(payload))
    else:
        print(f"n: {args.n}")
        print(f"word: {args.word!r} ({first}={count_a}, {second}={count_b})")
        print(f"member (both counts divisible by {args.n}): {'yes' if member else 'no'}")
        print(f"p_accept:   {payload['p_accept']}")
        print(f"p_reject:   {payload['p_reject']}")
        print(f"p_residual: {payload['p_residual']}")
        print(f"non-member acceptance bound: {payload['nonmember_accept_bound']}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if args.max_len < 0:
        raise ValueError("max-len must be non-negative")
    if args.max_len > SCAN_MAX_LEN:
        raise ValueError(
            f"max-len must be at most {SCAN_MAX_LEN}; the exhaustive scan"
            " holds 2**max-len probabilities per length"
        )
    if args.samples < 0:
        raise ValueError("samples must be non-negative")
    if args.samples > SCAN_MAX_SAMPLES:
        raise ValueError(
            f"samples must be at most {SCAN_MAX_SAMPLES}; the scan holds"
            " every sampled word and its result"
        )
    if (2 ** (args.max_len + 1) - 1 + 2 * args.samples) * args.n > SCAN_MAX_WORK:
        raise ValueError(
            f"max-len {args.max_len} and {args.samples} samples are too many"
            f" words at n = {args.n}; the scan may cost at most SCAN_MAX_WORK ="
            f" {SCAN_MAX_WORK} = (2**(max-len + 1) - 1 + 2 * samples) * n"
        )
    report = scan_report(args.n, args.max_len, args.samples, args.seed)
    if args.json:
        print(_dumps(report))
    else:
        print(f"n={report['n']}  p_min={report['p_min']}  bound={report['bound']}")
        print(
            f"scanned {report['words_scanned']} words "
            f"(exhaustive len<={report['max_len']}, {report['samples']} random "
            f"len<={report['random_max_len']}, seed {report['seed']})"
        )
        print(f"min member p_accept:     {report['min_member_prob']}")
        print(f"max non-member p_accept: {report['max_nonmember_prob']}")
        print(f"max shuffle delta:       {report['max_shuffle_delta']}")
        print(f"counterexamples: {len(report['counterexamples'])}")
        for item in report["counterexamples"][:10]:
            print(f"  {item['kind']}: {item['word']!r} p_accept={item['p_accept']}")
        print(f"elapsed: {report['elapsed']}s")
    return 1 if report["counterexamples"] else 0


def cmd_lemmas(args: argparse.Namespace) -> int:
    report = lemma_report(args.n)
    law = report["prime_power_law_ok" if report["prime"] else "composite_power_law_ok"]
    if args.json:
        print(_dumps(report))
    else:
        kind = "prime" if report["prime"] else "composite"
        print(f"n={report['n']} ({kind}), p_min={report['p_min']}")
        print(f"{'s':>4} {'l':>4} {'g':>4} {'k':>4} {'|c|':>16} {'|x0|^2':>16}")
        for row in report["rows"]:
            if row["is_special"]:
                print(
                    f"{row['s']:>4} {row['l']:>4} {row['g']:>4} {row['k']:>4}"
                    f" {row['c_abs']:>16} {row['x0_squared']:>16}"
                )
            else:
                print(f"{row['s']:>4}  not of the sparse quadratic-phase form")
        print(f"power law ok: {law}")
        print(f"first entry bound ok: {report['first_entry_bound_ok']}")
    return 0 if law and report["first_entry_bound_ok"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    report = compare_report(args.n)
    if args.json:
        print(_dumps(report))
    else:
        print(f"n={report['n']}")
        print(f"quantum states (source description): {report['qfa_logical_states']}")
        print(f"quantum states (realized unitaries): {report['qfa_internal_states']}")
        print(f"DFA states: {report['dfa_states']}")
        print(f"DFA states certified minimal: {report['dfa_minimized_states']}")
        print(f"DFA / quantum state ratio: {report['dfa_to_qfa_state_ratio']}")
    return 0 if report["dfa_minimized_states"] == report["dfa_states"] else 1


def cmd_export(args: argparse.Namespace) -> int:
    if args.n > EXPORT_MAX_N:
        raise ValueError(
            f"n = {args.n} exceeds EXPORT_MAX_N = {EXPORT_MAX_N}; the"
            " export of the unitaries and the DFA grows as n**2"
        )
    files = {
        "qfa.json": build_dense_qfa(args.n).to_json_dict(),
        "dfa.json": build_dfa(args.n).to_json_dict(),
        "circulants.json": {
            "a": quadratic_phase_circulant(args.n).to_json_dict(),
            "b": cyclic_shift_circulant(args.n).to_json_dict(),
        },
    }
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            path = out / name
            path.write_text(_dumps(payload) + "\n")
            print(f"wrote {path}")
    except OSError as exc:
        raise ValueError(f"cannot write under {out}: {exc}") from exc
    return 0


def _add_n_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="odd modulus, n > 2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfakit",
        description="verify small quantum recognizers for double-divisibility languages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one word through the quantum recognizer")
    _add_n_flag(p)
    p.add_argument("--word", required=True, help="word over the machine's two letters, a and b")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scan", help="sweep words and check the acceptance bounds")
    _add_n_flag(p)
    p.add_argument("--max-len", type=int, default=8, help="exhaustive scan up to this length")
    p.add_argument("--samples", type=int, default=1000, help="random longer words to sample")
    p.add_argument("--seed", type=int, default=0, help="seed for the random words (u64)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lemmas", help="classify circulant powers and check their laws")
    _add_n_flag(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("compare", help="compare quantum and classical state counts")
    _add_n_flag(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="write the machines as JSON files")
    _add_n_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
