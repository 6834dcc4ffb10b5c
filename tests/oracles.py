"""Second implementations that the tests check qfakit against.

Nothing in the package calls these.  Each recomputes, by its definition
and on plain arrays, a value that the package derives another way or
only needs in tests.  A circulant is its first row here, as a 1-D complex
array; entry (i, j) of the matrix is row[(j - i) mod n].
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from qfakit.circulant import SpecialShiftProfile
from qfakit.divisibility import ALPHABET, DfaSpec
from qfakit.modular import unit_phases


def cyclic_product(x, y) -> np.ndarray:
    """First row of the product of two circulants: their cyclic convolution.

    np.convolve, then the tail folded onto the head: the arithmetic of
    ShiftMatrix.__matmul__, so the two agree bit for bit.
    """
    n = len(x)
    full = np.convolve(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    row = full[:n]
    row[: n - 1] += full[n:]
    return row


def conj_transpose(row) -> np.ndarray:
    """First row of the adjoint: entry j is conj(row[-j mod n])."""
    row = np.asarray(row, dtype=complex)
    return row[-np.arange(len(row)) % len(row)].conj()


def is_unitary(row, tol: float) -> bool:
    """Check A @ A^H == identity entrywise within tol."""
    prod = cyclic_product(row, conj_transpose(row))
    prod[0] -= 1
    return bool(np.abs(prod).max() <= tol)


def iter_powers(row, s_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, first row of A**s) for s = 1..s_max, multiplying incrementally."""
    base = np.asarray(row, dtype=complex)
    acc = base
    for s in range(1, s_max + 1):
        yield s, acc
        if s < s_max:
            acc = cyclic_product(acc, base)


def reconstruct(profile: SpecialShiftProfile) -> np.ndarray:
    """First row of the circulant that a SpecialShiftProfile describes."""
    l, g = profile.l, profile.g
    n = l * g
    j = np.arange(g, dtype=np.int64)
    row = np.zeros(n, dtype=complex)
    row[::l] = profile.c * unit_phases((profile.k * l % n) * (j * j % n), n)
    return row


def shift_invariance_check(c1: int, c2: int, n: int) -> tuple[complex, complex]:
    """Evaluate sum_j exp((2*pi/n)i * c1*j^2) with and without j -> j + c2.

    Returns (unshifted, shifted); the two agree because j + c2 runs over
    the same residues mod n as j does.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    c1 %= n
    j = np.arange(n, dtype=np.int64)
    shifted = (j + c2 % n) % n
    lhs = unit_phases(c1 * (j * j % n), n).sum()
    rhs = unit_phases(c1 * (shifted * shifted % n), n).sum()
    return complex(lhs), complex(rhs)


def dfa_accepts(dfa: DfaSpec, word: str) -> bool:
    """Run the DFA on word, one letter at a time."""
    state = dfa.start_index
    for ch in word:
        if ch not in ALPHABET:
            raise ValueError(f"symbol {ch!r} not in the input alphabet")
        state = dfa.successors[ALPHABET.index(ch), state]
    return bool(dfa.accept_mask[state])


def sampled_word(rng, low: int, high: int) -> tuple[str, str]:
    """One sample of scan: a word with length in low..high and its shuffled copy.

    One getrandbits(32 * (1 + high)) call, read as 1 + high 32-bit
    outputs from the least significant end: output 0 picks the length by
    multiply-shift, output i gives letter i (its top bit) and that
    letter's shuffle key (its low 31 bits).  sorted() is stable, so equal
    keys keep the order of their letters.
    """
    bits = rng.getrandbits(32 * (1 + high))
    out = [bits >> (32 * i) & 0xFFFFFFFF for i in range(1 + high)]
    length = low + (out[0] * (high - low + 1) >> 32)
    letters = [ALPHABET[x >> 31] for x in out[1 : 1 + length]]
    keys = [x & 0x7FFFFFFF for x in out[1 : 1 + length]]
    order = sorted(range(length), key=keys.__getitem__)
    return "".join(letters), "".join(letters[i] for i in order)
