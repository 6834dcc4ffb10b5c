"""Circulant matrices over complex doubles, stored by first row only.

A circulant here is the n x n matrix with entry (i, j) equal to
first_row[(j - i) mod n]: each row is the previous one rotated right.
Products and powers stay in first-row space; the dense expansion exists
for interfacing with generic matrix code and for test oracles, never for
the algebra itself.  A matrix holds nothing but its order n and first_row,
a tuple of Python complex numbers, so equality, hashing, pickling and
copying are those of a frozen dataclass.

The algebra runs on numpy arrays.  A product is a direct cyclic
convolution (np.convolve, then the tail folded onto the head), not an
FFT: at the orders used here it is as fast, and it multiplies rows of
0/1 entries bit-exactly, so permutation powers hit the identity with ==.
The powers of the quadratic-phase circulant are the one exception:
quadratic_power_spectra gives their eigenvalues in closed form,
quadratic_power_rows builds all n of them from it, one inverse FFT per
block of rows, and classify_special judges such a block as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .modular import unit_phases

_DEFAULT_TOL = 1e-9
# Tolerance for re-deriving the phase law of a sparse circulant from its
# entries: per-entry mismatch relative to the common modulus.
_PHASE_FIT_TOL = 1e-8
# quadratic_power_rows yields blocks of about this many entries (1 MB of
# complex doubles), so that its memory stays O(n) at any n.
_BLOCK_ENTRIES = 2**16
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class ShiftMatrix:
    """Circulant of order n, represented by its first row."""

    n: int
    first_row: tuple[complex, ...]

    def __post_init__(self) -> None:
        # A float or a bool order would build a matrix that power() and
        # to_dense() cannot use.
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"order must be a positive int, got {self.n!r}")
        # A copy, so later edits to the caller's array cannot reach it.
        row = np.array(self.first_row, dtype=complex)
        if row.shape != (self.n,):
            raise ValueError(f"first row has shape {row.shape}, expected ({self.n},)")
        object.__setattr__(self, "first_row", tuple(row.tolist()))

    @classmethod
    def identity(cls, n: int) -> ShiftMatrix:
        return cls(n, ((1 + 0j),) + (0j,) * (n - 1))

    def __matmul__(self, other: ShiftMatrix) -> ShiftMatrix:
        """Circulant product: cyclic convolution of the first rows."""
        if not isinstance(other, ShiftMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"order mismatch: {self.n} vs {other.n}")
        n = self.n
        full = np.convolve(np.asarray(self.first_row), np.asarray(other.first_row))
        row = full[:n]
        row[: n - 1] += full[n:]
        return ShiftMatrix(n, row)

    def power(self, s: int) -> ShiftMatrix:
        """s-th power by iterated multiplication, s >= 0."""
        if s < 0:
            raise ValueError(f"exponent must be non-negative, got {s}")
        acc = ShiftMatrix.identity(self.n)
        for _ in range(s):
            acc = acc @ self
        return acc

    def to_dense(self) -> np.ndarray:
        index = np.arange(self.n)
        # entry (i, j) is row[(j - i) mod n]
        return np.asarray(self.first_row)[-np.subtract.outer(index, index) % self.n]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "first_row": [[x.real, x.imag] for x in self.first_row],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ShiftMatrix:
        return cls(data["n"], tuple(complex(re, im) for re, im in data["first_row"]))


def quadratic_phase_circulant(n: int) -> ShiftMatrix:
    """Circulant with first row (1/sqrt n) * exp((2*pi/n)i * j^2).

    Unitary for odd n; this is the letter unitary that mixes counter
    states through quadratic phases.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    scale = 1.0 / math.sqrt(n)
    j = np.arange(n, dtype=np.int64)
    return ShiftMatrix(n, scale * unit_phases(j * j % n, n))


def cyclic_shift_circulant(n: int) -> ShiftMatrix:
    """Permutation circulant sending basis state i to i+1 mod n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return ShiftMatrix.identity(1)
    return ShiftMatrix(n, (0j, 1 + 0j) + (0j,) * (n - 2))


def quadratic_power_spectra(n: int, s: Sequence[int]) -> np.ndarray:
    """One row per exponent: the eigenvalues of quadratic_phase_circulant(n)**s.

    Row i is np.fft.fft of the first row of A**s[i]; n must be odd.  Completing
    the square in Gauss's evaluation of the quadratic Gauss sum gives those of A
        lambda_m = eps_n * exp(-2*pi*i * (4^-1 mod n) * m^2 / n),
    with eps_n = 1 for n = 1 (mod 4) and i for n = 3 (mod 4).  The
    spectrum of A**s is eps_n**s times the root of unity at the integer
    exponent -(s * 4^-1 mod n) * (m^2 mod n), a table lookup, so no
    rounding error builds up with s.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"expected odd n > 0, got {n}")
    s = np.asarray(s, dtype=np.int64)
    m = np.arange(n, dtype=np.int64)
    spectra = unit_phases(-(s * pow(4, -1, n) % n)[:, None] * (m * m % n), n)
    if n % 4 == 3:
        spectra *= _POWERS_OF_I[s % 4, None]
    return spectra


def quadratic_power_rows(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, rows) blocks of the powers of quadratic_phase_circulant(n).

    rows[i] is the first row of A**(s + i); the blocks cover s = 1..n in
    order, each of at most about _BLOCK_ENTRIES entries (at least one
    row), so memory stays O(n).  n must be odd.  Each block is the inverse
    FFT of quadratic_power_spectra.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"expected odd n > 0, got {n}")
    step = max(1, _BLOCK_ENTRIES // n)
    for first in range(1, n + 1, step):
        s = np.arange(first, min(first + step, n + 1))
        yield first, np.fft.ifft(quadratic_power_spectra(n, s), axis=1)


@dataclass(frozen=True)
class SpecialShiftProfile:
    """Parameters of a sparse quadratic-phase circulant.

    The nonzero entries sit exactly at the index multiples of l and obey
    a_{j*l} = c * exp((2*pi/n)i * k*l*j^2) for j = 0..g-1, where l*g = n
    and k is canonical in 0..g-1.
    """

    l: int
    g: int
    k: int
    c: complex


def classify_special(
    a: ShiftMatrix | np.ndarray | Sequence[complex],
) -> SpecialShiftProfile | None | list[SpecialShiftProfile | None]:
    """Fit a SpecialShiftProfile to each circulant of a stack, or None.

    a is a ShiftMatrix, one first row (1-D), or a (k, n) block of first
    rows; a ShiftMatrix or a 1-D row gives a profile or None, a block
    gives a list of them, one per row.  The rows are judged together, as
    arrays.

    Entries of modulus at most _DEFAULT_TOL * max|entry| count as zero.  The
    support must then be exactly the multiples of some divisor l of n
    (l = n when only entry 0 survives), c is read off entry 0, k is
    fitted from the phase of entry l relative to entry 0 and validated
    against every surviving entry.  Any mismatch, a zero row, or a
    vanishing entry 0 means the row is not of this form.
    """
    rows = np.asarray(a.first_row if isinstance(a, ShiftMatrix) else a, dtype=complex)
    if rows.ndim not in (1, 2) or rows.shape[-1] == 0:
        raise ValueError(f"expected a row or a block of rows, got shape {rows.shape}")
    stack = np.atleast_2d(rows)
    count, n = stack.shape
    magnitude = np.abs(stack)
    threshold = _DEFAULT_TOL * magnitude.max(axis=1)
    support = magnitude > threshold[:, None]
    # l is the first surviving index past 0, or n when there is none.
    past_zero = support.copy()
    past_zero[:, 0] = False
    l = np.where(past_zero.any(axis=1), past_zero.argmax(axis=1), n)
    index = np.arange(n)
    ok = support[:, 0] & (n % l == 0)
    ok &= (support == (index % l[:, None] == 0)).all(axis=1)
    g = n // l
    c = stack[:, 0]
    # Rows rejected so far may hold inf or nan; their fit is discarded.
    with np.errstate(all="ignore"):
        # One entry pins k: arg(a_l / c) = 2*pi * k*l / n = 2*pi * k / g.
        turns = np.angle(stack[np.arange(count), l % n] / c) * g / (2 * np.pi)
        k = np.round(np.where(ok, turns, 0)).astype(np.int64) % g
        # c * exp((2*pi/n)i * k*l*j^2) at j = index / l, minus the row, in
        # place, so that a block holds few arrays of its size at once.
        exponent = index // l[:, None]
        exponent *= exponent
        exponent %= n
        exponent *= (k * l % n)[:, None]
        misfit = unit_phases(exponent, n)
        misfit *= c[:, None]
        misfit -= stack
        deviation = np.abs(misfit, out=magnitude).max(axis=1, where=support, initial=0.0)
        ok &= deviation <= _PHASE_FIT_TOL * np.abs(c)
    profiles = [
        SpecialShiftProfile(l_, n // l_, k_, c_) if ok_ else None
        for ok_, l_, k_, c_ in zip(ok.tolist(), l.tolist(), k.tolist(), c.tolist())
    ]
    return profiles if rows.ndim == 2 else profiles[0]
