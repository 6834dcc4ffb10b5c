"""The three benchmark workloads.

A workload builds its machines and inputs once in ``setup(seed)``, then
runs one timed pass at a time with ``run_pass(inputs, index)``.
``check_pass`` judges a pass's outputs against the exact oracles outside
the timed region, and ``finish`` makes the checks done once per run.
Passes reach qfakit only through module attributes (``qfakit.cli.
scan_report``, never a name bound at import), so that tracer.py can wrap
them from outside.

Each pass is sized to take about 0.5 s on a 2-core x86 machine with
OpenBLAS 0.3.31, so that a 40 s run holds about 60 to 120 passes: enough
for a tail near p85 with ten samples beyond it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import qfakit
import qfakit.cli

import oracle
from oracle import PROB_TOL, SHUFFLE_TOL, Gate


def _random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choices("ab", k=length))


def _shuffled(rng: random.Random, word: str) -> str:
    return "".join(rng.sample(word, len(word)))


class Workload:
    name = ""
    seeded = True  # False: inputs are fixed and the seed is ignored
    dim = 0  # realized dimension of the automaton each pass steps, 0 if none
    items_per_pass = 0

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, index: int):
        raise NotImplementedError

    def check_pass(self, inputs, outputs, gate: Gate) -> None:
        raise NotImplementedError

    def finish(self, inputs, gate: Gate) -> None:
        pass


@dataclass
class ScanInputs:
    seed: int
    spec: qfakit.QfaSpec
    verify_words: list[tuple[str, str]]
    max_nonmember: float


class ScanShortWords(Workload):
    """cli.scan_report at n = 21: many short words at dimension 43.

    Each pass scans every word up to length 10 (2047 words) plus 200
    sampled words of length 11..40, each re-run once shuffled, with the
    sample seed derived from the run seed and the pass index.  About
    two thirds of the steps belong to the exhaustive part, whose words
    share prefixes.
    """

    name = "scan-short-words"
    N = 21
    MAX_LEN = 10
    SAMPLES = 200
    RANDOM_MAX_LEN = 40
    VERIFY_WORDS = 128
    dim = 2 * N + 1
    items_per_pass = 2 ** (MAX_LEN + 1) - 1 + SAMPLES

    def setup(self, seed: int) -> ScanInputs:
        rng = random.Random(seed)
        verify = []
        for _ in range(self.VERIFY_WORDS):
            word = _random_word(rng, rng.randint(0, self.RANDOM_MAX_LEN))
            verify.append((word, _shuffled(rng, word)))
        # The largest non-member probability over the exhaustive part; it
        # already attains 1/p_min, so sampled words cannot exceed it.
        max_nonmember = max(
            oracle.exact_accept(self.N, x, total - x)
            for total in range(self.MAX_LEN + 1)
            for x in range(total + 1)
            if x % self.N or (total - x) % self.N
        )
        return ScanInputs(seed, qfakit.build_qfa(self.N), verify, max_nonmember)

    def run_pass(self, inputs: ScanInputs, index: int) -> dict:
        pass_seed = (inputs.seed * 1_000_003 + index) % 2**64
        return qfakit.cli.scan_report(self.N, self.MAX_LEN, self.SAMPLES, pass_seed)

    def check_pass(self, inputs: ScanInputs, report: dict, gate: Gate) -> None:
        gate.check(
            report["words_scanned"] == self.items_per_pass,
            f"scan scanned {report['words_scanned']} words, want {self.items_per_pass}",
        )
        gate.check(not report["counterexamples"], f"scan counterexamples: {report['counterexamples'][:3]}")
        gate.close("p_accept", float(report["min_member_prob"]), 1.0, PROB_TOL, "scan min member p_accept")
        gate.close(
            "p_accept",
            float(report["max_nonmember_prob"]),
            inputs.max_nonmember,
            PROB_TOL,
            "scan max non-member p_accept",
        )
        delta = float(report["max_shuffle_delta"])
        gate.check(delta <= SHUFFLE_TOL, f"scan max shuffle delta {delta}")

    def finish(self, inputs: ScanInputs, gate: Gate) -> None:
        # scan_report returns aggregates only, so per-word probabilities
        # are checked on a seeded sample of words through qfakit.run.
        for word, shuffled in inputs.verify_words:
            result = qfakit.run(inputs.spec, word)
            oracle.check_probabilities(
                gate, self.N, word, result.p_accept, result.p_reject, result.p_residual
            )
            again = qfakit.run(inputs.spec, shuffled)
            oracle.check_shuffle(gate, result.p_accept, again.p_accept, f"n={self.N} len={len(word)}")


class LemmasPowers(Workload):
    """Circulant power laws and quadratic exponential sums; fixed inputs.

    Each pass runs cli.lemma_report at n = 101 (prime), 105 (3 * 5 * 7)
    and 75 (3 * 5^2); the composites take the l > 1 branch of
    classify_special.  It also classifies power(2) and power(3) of each
    circulant and evaluates modular.quad_exp_sum(b, t, 45) for every
    b, t in 0..44.
    """

    name = "lemmas-powers"
    seeded = False
    NS = (101, 105, 75)
    POWERS = (2, 3)
    SUM_MODULUS = 45
    items_per_pass = sum(NS) + len(NS) * len(POWERS) + SUM_MODULUS**2

    def setup(self, seed: int) -> dict:
        return {n: qfakit.quadratic_phase_circulant(n) for n in self.NS}

    def run_pass(self, circulants: dict, index: int):
        reports = [qfakit.cli.lemma_report(n) for n in self.NS]
        powers = []
        for n, circulant in circulants.items():
            for s in self.POWERS:
                power = circulant.power(s)
                powers.append((n, s, power, qfakit.classify_special(power)))
        m = self.SUM_MODULUS
        sums = [qfakit.quad_exp_sum(b, t, m) for b in range(m) for t in range(m)]
        return reports, powers, sums

    def check_pass(self, circulants: dict, outputs, gate: Gate) -> None:
        reports, powers, sums = outputs
        for n, report in zip(self.NS, reports):
            law = report["prime_power_law_ok"] if oracle.is_prime(n) else report["composite_power_law_ok"]
            gate.check(law is True, f"lemma_report({n}) power law flag {law}")
            gate.check(report["first_entry_bound_ok"] is True, f"lemma_report({n}) first entry bound flag")
            gate.check(len(report["rows"]) == n, f"lemma_report({n}) has {len(report['rows'])} rows")
            for row in report["rows"]:
                special = row["is_special"]
                lgk = (row["l"], row["g"], row["k"]) if special else None
                c_abs = float(row["c_abs"]) if special else math.nan
                oracle.check_power(gate, n, row["s"], lgk, c_abs, float(row["x0_squared"]))
        for n, s, power, profile in powers:
            lgk = None if profile is None else (profile.l, profile.g, profile.k)
            c_abs = math.nan if profile is None else abs(profile.c)
            oracle.check_power(gate, n, s, lgk, c_abs, abs(power.first_row[0]) ** 2)
        m = self.SUM_MODULUS
        for (b, t), value in zip(((b, t) for b in range(m) for t in range(m)), sums):
            oracle.check_quad_sum(gate, b, t, m, value)


class DfaCertify(Workload):
    """minimize_dfa on the product-counter DFA; fixed inputs.

    Each pass minimizes build_dfa(n) for n = 25 and n = 35 (built in
    set-up) and runs cli.compare_report(45), which skips minimization
    above n = 15 in the seed code.
    """

    name = "dfa-certify"
    seeded = False
    NS = (25, 35)
    COMPARE_N = 45
    items_per_pass = sum(n * n for n in NS)

    def setup(self, seed: int) -> dict:
        return {n: qfakit.build_dfa(n) for n in self.NS}

    def run_pass(self, dfas: dict, index: int):
        minimized = [(n, qfakit.minimize_dfa(dfa)) for n, dfa in dfas.items()]
        return minimized, qfakit.cli.compare_report(self.COMPARE_N)

    def check_pass(self, dfas: dict, outputs, gate: Gate) -> None:
        minimized, report = outputs
        for n, dfa in minimized:
            oracle.check_dfa_count(gate, n, len(dfa.states))
            for word in ("", "ab", "a" * n, "b" * n, "a" * (n - 1), "ab" * n, "a" * n + "b" * (2 * n)):
                state = dfa.start
                for ch in word:
                    # A transition to a state the DFA does not list ends the walk at None.
                    state = dfa.delta.get(state, {}).get(ch)
                gate.check(
                    state is not None and (state in dfa.accepting) == oracle.is_member(word, n),
                    f"minimized DFA for n={n} misjudges a word of length {len(word)}",
                )
        n = self.COMPARE_N
        gate.check(report["dfa_states"] == n * n, f"compare_report({n}) dfa_states {report['dfa_states']}")
        gate.check(report["qfa_logical_states"] == n + 2, f"compare_report({n}) qfa states")
        if report["dfa_minimized_states"] is not None:
            oracle.check_dfa_count(gate, n, report["dfa_minimized_states"])


WORKLOADS = {w.name: w for w in (ScanShortWords(), LemmasPowers(), DfaCertify())}
