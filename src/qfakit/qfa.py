"""Measure-many one-way quantum finite automata.

A machine reads its input between a left marker and a right marker,
applies one unitary per symbol, and after every symbol observes the
halting decomposition: amplitude on accepting states is banked as
acceptance probability, amplitude on rejecting states as rejection
probability, and the remaining (non-halting) component continues
unnormalized.  Tracking the unnormalized residual makes the run exact
and deterministic; run_sampled() draws one observed outcome from those
exact totals, for demonstrations.

Amplitude vectors are row vectors: unitaries[symbol][i][j] is the
amplitude for moving from state i to state j, and a step maps psi to
psi @ U before the observation.

Two machines share the simulators.  QfaSpec is the general one, with
one dense unitary per symbol.  DiagonalQfa describes a machine whose
letters are circulants on n counter states and the identity on the
halting block, and whose right marker accepts counter 0 and rejects
the rest; it keeps each letter's eigenvalues and steps the counter
amplitudes in the DFT basis, so a letter is one elementwise product and
the right marker two sums per row, with no inverse FFT.

The simulators read a machine only through its input_alphabet and three
steps: _start() gives its row after the left marker, _apply(rows,
letters) feeds each row a letter, and _close(rows) applies the right
marker and totals (p_acc, p_rej, p_res).  Rows are opaque to them; a
QfaSpec, the only machine that halts mid-word, banks its accept and
reject weights in two trailing entries of each row.  run() steps one
row; _run_codes(), the batch kernel of run_many() and scan, steps words
given as letter codes column by column, longest first; accept_all_words()
walks the prefix tree of every word up to a length, so each prefix is
stepped once.  The batched simulators step at most BLOCK_ROWS rows at a
time, which keeps their memory flat however many words they are given.
Each simulator checks that accept + reject + residual stays 1 within
CONSERVATION_TOL.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

LEFT_MARKER = "^"
RIGHT_MARKER = "$"

UNITARY_TOL = 1e-9
CONSERVATION_TOL = 1e-9

# Rows per block in the batched simulators.  Larger blocks ran no faster on
# a dense QfaSpec or the DFT-basis machine and held more memory: scan at
# n = 1001 peaked at 40 MB with 128 rows and 97 MB with 1024 (1.15 vs 1.84 s).
BLOCK_ROWS = 128


@dataclass(frozen=True, eq=False)
class QfaSpec:
    """Static description of a measure-many one-way automaton.

    Each input symbol is one character.  ``unitaries`` must cover the
    working alphabet: every input symbol plus the two markers.  They are
    stored as read-only complex copies behind a read-only mapping, so a
    built spec cannot be edited in place.  ``logical_state_count``
    optionally records the size of the state set in the source-level
    description when the realized unitaries use extra basis states (e.g.
    parallel rejecting channels added to make a many-to-one end-of-input
    map unitary).
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    rejecting: frozenset[str]
    unitaries: Mapping[str, np.ndarray]
    logical_state_count: int | None = None

    def __post_init__(self) -> None:
        frozen = {}
        for sym, matrix in self.unitaries.items():
            copy = np.array(matrix, dtype=complex)
            copy.flags.writeable = False
            frozen[sym] = copy
        object.__setattr__(self, "unitaries", MappingProxyType(frozen))

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def working_alphabet(self) -> tuple[str, ...]:
        return self.input_alphabet + (LEFT_MARKER, RIGHT_MARKER)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    @cached_property
    def _outcome_weights(self) -> tuple[np.ndarray, np.ndarray]:
        # 0/1 floats: the accepting and rejecting states as two columns, and
        # the non-halting states; products with them are BLAS products
        # rather than masked sums.
        accept = np.array([s in self.accepting for s in self.states], dtype=float)
        reject = np.array([s in self.rejecting for s in self.states], dtype=float)
        return np.stack((accept, reject), axis=-1), (accept + reject == 0).astype(float)

    @cached_property
    def _letter_matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(_matrix(self, sym) for sym in self.input_alphabet)

    # With input_alphabet, all that the simulators read; DiagonalQfa has the same.
    # A row is the residual amplitudes, then the accept and reject weights
    # banked so far as the real parts of two more entries.

    def _start(self) -> np.ndarray:
        """The row after the left marker."""
        return _observe(self, initial_superposition(self) @ _matrix(self, LEFT_MARKER), np.zeros(2))

    def _apply(self, rows: np.ndarray, letters) -> np.ndarray:
        """Each row followed by its letter, observed.

        letters indexes input_alphabet: an int for every row, or an array
        of one per row; a row is a vector or the last axis of a matrix.
        """
        if isinstance(letters, int):
            return _observe(self, rows[..., :-2] @ self._letter_matrices[letters], rows[..., -2:])
        phi = np.empty((len(rows), self.dim), dtype=complex)
        for k, matrix in enumerate(self._letter_matrices):
            hit = letters == k
            phi[hit] = rows[hit, :-2] @ matrix
        return _observe(self, phi, rows[:, -2:])

    def _close(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the right marker to rows and total their outcomes.

        Returns (p_acc, p_rej, p_res): the weights banked on each row,
        with those the marker measures away, and the squared norm left.
        """
        halting, nonhalting = self._outcome_weights
        weights = np.abs(rows[..., :-2] @ _matrix(self, RIGHT_MARKER)) ** 2
        banked = rows[..., -2:].real + weights @ halting
        return banked[..., 0], banked[..., 1], weights @ nonhalting

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "alphabet": list(self.input_alphabet),
            "start": self.start,
            "accept": sorted(self.accepting),
            "reject": sorted(self.rejecting),
            "unitaries": {
                sym: [[[z.real, z.imag] for z in row] for row in matrix]
                for sym, matrix in self.unitaries.items()
            },
            "logical_state_count": self.logical_state_count,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> QfaSpec:
        """Rebuild a spec; raises ValueError listing what validate() finds."""
        if data.get("reject_residual", False) is not False:  # older files carry false
            raise ValueError("reject_residual must be false: the residual is always reported")
        unitaries = {}
        for sym, rows in data["unitaries"].items():
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
            unitaries[sym] = mat
        spec = cls(
            states=tuple(data["states"]),
            input_alphabet=tuple(data["alphabet"]),
            start=data["start"],
            accepting=frozenset(data["accept"]),
            rejecting=frozenset(data["reject"]),
            unitaries=unitaries,
            logical_state_count=data.get("logical_state_count"),
        )
        problems = validate(spec)
        if problems:
            raise ValueError("invalid automaton: " + "; ".join(problems))
        return spec


@dataclass(frozen=True, eq=False)
class DiagonalQfa:
    """A circulant-letter automaton stepped in the DFT basis of its counters.

    The machine it describes has n counter states and starts on counter
    0; the left marker is the identity; each input letter acts on the
    counters as a circulant and as the identity on the halting states, so
    nothing halts before the right marker; the right marker sends counter
    0 to the accepting state and every other counter to its own rejecting
    channel.  Realized unitarily that is n counters, one accepting state
    and n rejecting ones: ``dim`` = 2n + 1.

    ``spectra`` maps each letter to its n eigenvalues, the values of
    np.fft.fft of the circulant's first row, for which psi @ C transforms
    to fft(psi) times the eigenvalues.  They are stored as read-only
    copies behind a read-only mapping and must have unit modulus within
    UNITARY_TOL, or construction raises ValueError.  The right marker
    reads the counters without an inverse FFT, by two sums per row.
    ``logical_state_count`` is the size of the source-level description,
    n counters plus one accepting and one rejecting state: n + 2.
    """

    input_alphabet: tuple[str, ...]
    spectra: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        problems = _alphabet_problems(self.input_alphabet)
        if problems:
            raise ValueError("; ".join(problems))
        if set(self.spectra) != set(self.input_alphabet):
            raise ValueError(
                f"spectra for {sorted(self.spectra)} do not match the input"
                f" alphabet {sorted(self.input_alphabet)}"
            )
        shapes = {sym: np.shape(self.spectra[sym]) for sym in self.input_alphabet}
        if len(set(shapes.values())) > 1:  # np.array would refuse a ragged stack, unnamed
            named = ", ".join(f"{sym!r} has shape {shape}" for sym, shape in shapes.items())
            raise ValueError(f"spectra differ in length: {named}")
        table = np.array([self.spectra[sym] for sym in self.input_alphabet], dtype=complex)
        if table.ndim != 2 or table.shape[1] == 0:
            raise ValueError(f"spectra have shape {table.shape}, expected one length n each")
        for sym, spectrum in zip(self.input_alphabet, table):
            err = np.abs(np.abs(spectrum) ** 2 - 1.0).max()
            if not err <= UNITARY_TOL:  # NaN counts as not unitary
                raise ValueError(f"spectrum of {sym!r} is not unitary (deviation {err:.3e})")
        table.flags.writeable = False
        object.__setattr__(self, "spectra", MappingProxyType(dict(zip(self.input_alphabet, table))))
        object.__setattr__(self, "_table", table)

    @property
    def counters(self) -> int:
        return self._table.shape[1]

    @property
    def dim(self) -> int:
        return 2 * self.counters + 1

    @property
    def logical_state_count(self) -> int:
        return self.counters + 2

    def _start(self) -> np.ndarray:
        # Counter 0 transforms to all ones.
        return np.ones(self.counters, dtype=complex)

    def _apply(self, rows: np.ndarray, letters) -> np.ndarray:
        # One gathered elementwise product; nothing halts mid-word.
        return rows * self._table[letters]

    def _close(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Every counter halts, so nothing is left over.  Counter 0 is the mean
        # of a transformed row and, by Parseval, all counters hold the mean of
        # |row|^2; the clamp keeps a member's p_reject from rounding below 0.
        accept = np.abs(rows.sum(axis=-1) / self.counters) ** 2
        reject = np.maximum((np.abs(rows) ** 2).sum(axis=-1) / self.counters - accept, 0.0)
        return accept, reject, np.zeros(rows.shape[:-1])


@dataclass(frozen=True)
class RunResult:
    """Deterministic outcome probabilities of one run."""

    p_accept: float
    p_reject: float
    p_residual: float


def validate(spec: QfaSpec) -> list[str]:
    """Return a list of structural and numerical violations, empty if sound."""
    problems = []
    if len(set(spec.states)) != len(spec.states):
        problems.append("duplicate state names")
    if spec.start not in spec.states:
        problems.append(f"start state {spec.start!r} not among the states")
    for name in sorted(spec.accepting | spec.rejecting):
        if name not in spec.states:
            problems.append(f"halting state {name!r} not among the states")
    overlap = spec.accepting & spec.rejecting
    if overlap:
        problems.append(f"states marked both accepting and rejecting: {sorted(overlap)}")
    problems += _alphabet_problems(spec.input_alphabet)
    count = spec.logical_state_count
    if count is not None and not (type(count) is int and 1 <= count <= spec.dim):
        problems.append(f"logical_state_count {count!r} is not an int in 1..{spec.dim}")

    expected = set(spec.working_alphabet)
    have = set(spec.unitaries)
    for sym in sorted(expected - have):
        problems.append(f"missing transition matrix for {sym!r}")
    for sym in sorted(have - expected):
        problems.append(f"transition matrix for unknown symbol {sym!r}")

    d = spec.dim
    eye = np.eye(d)
    for sym in sorted(expected & have):
        matrix = spec.unitaries[sym]
        if matrix.shape != (d, d):
            problems.append(f"matrix for {sym!r} has shape {matrix.shape}, expected {(d, d)}")
            continue
        err = np.abs(matrix @ matrix.conj().T - eye).max()
        if not err <= UNITARY_TOL:  # NaN counts as not unitary
            problems.append(f"matrix for {sym!r} is not unitary (deviation {err:.3e})")
    return problems


def _alphabet_problems(alphabet: tuple[str, ...]) -> list[str]:
    problems = []
    if len(set(alphabet)) != len(alphabet):
        problems.append("duplicate input symbols")
    # Words are read one character per letter.
    for sym in alphabet:
        if not (isinstance(sym, str) and len(sym) == 1):
            problems.append(f"input symbol {sym!r} is not one character")
    for sym in (LEFT_MARKER, RIGHT_MARKER):
        if sym in alphabet:
            problems.append(f"marker {sym!r} reused as an input symbol")
    return problems


def _matrix(spec: QfaSpec, symbol: str) -> np.ndarray:
    matrix = spec.unitaries.get(symbol)
    if matrix is None:
        raise ValueError(f"no transition matrix for symbol {symbol!r}")
    return matrix


def _observe(spec: QfaSpec, phi: np.ndarray, banked: np.ndarray) -> np.ndarray:
    """Observe the halting decomposition along the last axis of phi.

    Returns rows of phi with its halting components zeroed, followed by
    the (accept, reject) weights in banked plus those phi halts.
    """
    halting, nonhalting = spec._outcome_weights
    out = np.empty(phi.shape[:-1] + (spec.dim + 2,), dtype=complex)
    np.multiply(phi, nonhalting, out=out[..., :-2])
    np.add(banked, np.abs(phi) ** 2 @ halting, out=out[..., -2:])
    return out


def step(
    spec: QfaSpec, psi: np.ndarray, symbol: str
) -> tuple[np.ndarray, float, float]:
    """Apply one symbol and observe the halting decomposition.

    Returns (residual, accept_increment, reject_increment): the
    projection of psi @ U onto the non-halting states, unnormalized,
    plus the squared norms measured away on this step.
    """
    matrix = _matrix(spec, symbol)
    if psi.shape != (spec.dim,):
        raise ValueError(f"amplitude vector has shape {psi.shape}, expected ({spec.dim},)")
    row = _observe(spec, psi @ matrix, np.zeros(2))
    return row[:-2], float(row[-2].real), float(row[-1].real)


def initial_superposition(spec: QfaSpec) -> np.ndarray:
    psi = np.zeros(spec.dim, dtype=complex)
    psi[spec.state_index[spec.start]] = 1.0
    return psi


# The simulators below run either machine.
Machine = QfaSpec | DiagonalQfa


def _check_word(alphabet: tuple[str, ...], text: str) -> None:
    allowed = set(alphabet)
    if not allowed.issuperset(text):
        ch = next(ch for ch in text if ch not in allowed)
        raise ValueError(f"symbol {ch!r} not in the input alphabet")


def _first_unconserved(p_acc, p_rej, p_res) -> int | None:
    """Flat index of the first run whose outcomes do not sum to 1, if any."""
    slack = np.abs(p_acc + p_rej + p_res - 1.0)
    bad = np.flatnonzero(~(slack <= CONSERVATION_TOL))  # NaN counts as bad
    return int(bad[0]) if bad.size else None


def _unconserved(word: str, total: float) -> ValueError:
    return ValueError(
        f"probability not conserved on word {word!r}: "
        f"accept + reject + residual = {total!r}"
    )


def _spell(alphabet: tuple[str, ...], length: int, index: int) -> str:
    # Word number index of this length in accept_all_words' order, that of
    # itertools.product: index in base len(alphabet), most significant first.
    base = len(alphabet)
    return "".join(alphabet[index // base**k % base] for k in reversed(range(length)))


def run(spec: Machine, word: str) -> RunResult:
    """Feed marker + word + marker through the machine, exactly.

    Probabilities come from accumulating the per-step halting weights of
    the unnormalized residual, so no sampling is involved and repeated
    runs are bit-identical.  Raises ValueError when the outcomes do not
    sum to 1 within CONSERVATION_TOL.
    """
    _check_word(spec.input_alphabet, word)
    index = {sym: k for k, sym in enumerate(spec.input_alphabet)}
    psi = spec._start()
    for symbol in word:
        psi = spec._apply(psi, index[symbol])
    p_accept, p_reject, p_residual = map(float, spec._close(psi))
    if _first_unconserved(p_accept, p_reject, p_residual) is not None:
        raise _unconserved(word, p_accept + p_reject + p_residual)
    return RunResult(p_accept, p_reject, p_residual)


def _run_codes(spec: Machine, letters: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows of (accept, reject, residual) for words given as letter codes.

    Word i is letters[i, :lengths[i]], indices into spec.input_alphabet;
    later entries are ignored.  The words are stepped longest first,
    BLOCK_ROWS at a time as the rows of one matrix: column t feeds letter
    t to the rows whose word is longer than t, which lead, and copies the
    rows whose word has length t aside; each block is closed at once.
    Raises ValueError naming the first word, in input order, whose
    outcomes do not sum to 1 within CONSERVATION_TOL.
    """
    out = np.empty((len(lengths), 3))
    order = np.argsort(-lengths, kind="stable")
    for lo in range(0, len(order), BLOCK_ROWS):
        rows = order[lo : lo + BLOCK_ROWS]
        codes = letters[rows]
        # active[t] rows have a letter t; the lengths descend.
        active = np.searchsorted(-lengths[rows], -np.arange(lengths[rows[0]] + 1)).tolist()
        psi = np.tile(spec._start(), (len(rows), 1))
        ended = np.empty_like(psi)
        for t, (now, live) in enumerate(zip(active, [len(rows)] + active)):
            ended[now:live] = psi[now:live]
            if now:
                psi = spec._apply(psi[:now], codes[:now, t])
        out[rows] = np.column_stack(spec._close(ended))
    bad = _first_unconserved(*out.T)
    if bad is not None:
        word = "".join(spec.input_alphabet[k] for k in letters[bad, : lengths[bad]].tolist())
        raise _unconserved(word, float(out[bad].sum()))
    return out


def run_many(spec: Machine, words: Iterable[str]) -> list[RunResult]:
    """Run a batch of words; the same results as [run(spec, w) for w in words].

    The words may differ in length.  _run_codes steps their letter codes
    as the rows of an amplitude matrix, and each row banks its halting
    weights after every symbol exactly as run() does.  Raises ValueError
    naming the first symbol outside the input alphabet, or the first
    word whose outcomes do not sum to 1 within CONSERVATION_TOL.
    """
    words = list(words)
    _check_word(spec.input_alphabet, joined := "".join(words))
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    # The joined words' codes fill the row-major positions t < length.
    index = {ord(sym): k for k, sym in enumerate(spec.input_alphabet)}
    coded = np.frombuffer(joined.translate(index).encode("utf-32-le"), dtype=np.uint32)
    letters = np.zeros((len(words), lengths.max(initial=0)), dtype=np.min_scalar_type(len(index)))
    letters[np.arange(letters.shape[1]) < lengths[:, None]] = coded
    return [RunResult(*row) for row in _run_codes(spec, letters, lengths).tolist()]


def accept_all_words(spec: Machine, max_len: int) -> list[np.ndarray]:
    """p_accept of every word up to max_len over spec.input_alphabet.

    Entry L holds the words of length L in lexicographic order (the
    order of itertools.product over the alphabet).  The prefix tree is
    walked depth first by recursion, one level per letter, on blocks of
    rows, so each prefix is stepped once and no block has more than
    BLOCK_ROWS rows.  The children of a contiguous run of parents are a
    contiguous run of indices one level down, so each block writes its
    results in place; words are never spelled out, except to name in
    ValueError the first word, in that order, whose outcomes do not sum
    to 1 within CONSERVATION_TOL.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    alphabet = spec.input_alphabet
    fan_out = len(alphabet)
    parents_per_block = max(1, BLOCK_ROWS // max(fan_out, 1))  # an empty alphabet spells only ""
    probs = [np.empty(fan_out**length) for length in range(max_len + 1)]
    # (length, lex index, accept + reject + residual) of unconserved words
    bad: list[tuple[int, int, float]] = []

    def walk(length: int, lo: int, psi: np.ndarray) -> None:
        # psi holds the rows of the words lo, lo + 1, ... of this length.
        p_acc, p_rej, p_res = spec._close(psi)
        probs[length][lo : lo + len(psi)] = p_acc
        i = _first_unconserved(p_acc, p_rej, p_res)
        if i is not None:
            bad.append((length, lo + i, float(p_acc[i] + p_rej[i] + p_res[i])))
        if length == max_len:
            return
        for c in range(0, len(psi), parents_per_block):
            # Row i * fan_out + s is parent row i followed by letter s.
            rows = np.repeat(psi[c : c + parents_per_block], fan_out, axis=0)
            letters = np.arange(len(rows)) % fan_out
            walk(length + 1, (lo + c) * fan_out, spec._apply(rows, letters))

    walk(0, 0, spec._start()[None, :])
    if bad:
        length, index, total = min(bad)
        raise _unconserved(_spell(alphabet, length, index), total)
    return probs


def accept_probability(spec: Machine, word: str) -> float:
    return run(spec, word).p_accept


def run_sampled(spec: Machine, word: str, rng: random.Random) -> str:
    """Observe one trajectory; returns 'accept', 'reject' or 'none'.

    Collapsing after every symbol halts on accept at step t with exactly
    the weight that run() banks at step t, so one trial is one draw from
    run()'s totals: a single rng.random() call per word.  A trajectory
    that outlives the right marker ends on 'none'.
    """
    result = run(spec, word)
    draw = rng.random()
    if draw < result.p_accept:
        return "accept"
    if draw < result.p_accept + result.p_reject:
        return "reject"
    return "none"
