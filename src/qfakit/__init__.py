"""Small quantum recognizers with numerically certified behaviour.

The package provides exact circulant (shift-matrix) algebra, a
measure-many one-way quantum automaton simulator (dense, and in the DFT
basis for circulant letters), recognizers for the
language of words whose two letter counts are both divisible by n, the
minimal classical DFA baseline, and a command-line harness that checks
the acceptance bounds and the circulant power-classification laws.
What it exports is what the library, the command line or callers use;
second implementations that only the tests run live beside them, in
tests/oracles.py.
"""

from .circulant import (
    ShiftMatrix,
    SpecialShiftProfile,
    classify_special,
    cyclic_shift_circulant,
    quadratic_phase_circulant,
    quadratic_power_rows,
)
from .divisibility import (
    ALPHABET,
    DENSE_MAX_N,
    DfaSpec,
    WordStats,
    build_dfa,
    build_diagonal_qfa,
    build_qfa,
    counts_in_language,
    exact_accept_probability,
    is_member,
    is_nerode_automaton,
    minimize_dfa,
    word_stats,
)
from .modular import (
    Factorization,
    factorize,
    quad_exp_sum,
)
from .qfa import (
    LEFT_MARKER,
    RIGHT_MARKER,
    DiagonalQfa,
    QfaSpec,
    RunResult,
    accept_all_words,
    accept_probability,
    initial_superposition,
    run,
    run_many,
    run_sampled,
    step,
    validate,
)

__all__ = [
    "ALPHABET",
    "DENSE_MAX_N",
    "DfaSpec",
    "DiagonalQfa",
    "Factorization",
    "LEFT_MARKER",
    "QfaSpec",
    "RIGHT_MARKER",
    "RunResult",
    "ShiftMatrix",
    "SpecialShiftProfile",
    "WordStats",
    "accept_all_words",
    "accept_probability",
    "build_dfa",
    "build_diagonal_qfa",
    "build_qfa",
    "classify_special",
    "counts_in_language",
    "cyclic_shift_circulant",
    "exact_accept_probability",
    "factorize",
    "initial_superposition",
    "is_member",
    "is_nerode_automaton",
    "minimize_dfa",
    "quad_exp_sum",
    "quadratic_phase_circulant",
    "quadratic_power_rows",
    "run",
    "run_many",
    "run_sampled",
    "step",
    "validate",
    "word_stats",
]
