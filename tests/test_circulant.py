import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from qfakit import circulant
from qfakit.circulant import (
    ShiftMatrix,
    SpecialShiftProfile,
    classify_special,
    cyclic_shift_circulant,
    quadratic_phase_circulant,
    quadratic_power_rows,
    quadratic_power_spectra,
)
from oracles import conj_transpose, is_unitary, iter_powers, reconstruct


def random_row(rng, n):
    return tuple(complex(re, im) for re, im in zip(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)))


def dense_oracle(row):
    # independent dense expansion straight from the definition
    n = len(row)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = row[(j - i) % n]
    return out


def test_construction_and_entry():
    rng = np.random.default_rng(1)
    for n in [1, 2, 5, 8]:
        a = ShiftMatrix(n, random_row(rng, n))
        dense = dense_oracle(a.first_row)
        for i in range(n):
            for j in range(n):
                assert a.first_row[(j - i) % n] == dense[i, j]
        np.testing.assert_allclose(a.to_dense(), dense, atol=0)


def test_row_length_must_match_order():
    with pytest.raises(ValueError):
        ShiftMatrix(3, (1 + 0j, 0j))
    with pytest.raises(ValueError):
        ShiftMatrix(0, ())


def test_order_must_be_an_int():
    # A float order would build a matrix that power() and to_dense() cannot
    # use, and a bool one a matrix equal to ShiftMatrix(1, ...).
    for n, size in ((3.0, 3), (True, 1), (np.int64(3), 3), ("3", 3)):
        with pytest.raises(ValueError, match="positive int"):
            ShiftMatrix.from_json_dict({"n": n, "first_row": [[1.0, 0.0]] * size})
        with pytest.raises(ValueError, match="positive int"):
            ShiftMatrix(n, (1 + 0j,) * size)


def test_a_matrix_holds_only_its_order_and_row():
    a = quadratic_phase_circulant(5)
    assert vars(a) == {"n": 5, "first_row": a.first_row}
    assert type(a.first_row) is tuple and all(type(x) is complex for x in a.first_row)


def test_identity_is_neutral():
    rng = np.random.default_rng(2)
    for n in [1, 4, 9]:
        a = ShiftMatrix(n, random_row(rng, n))
        eye = ShiftMatrix.identity(n)
        assert (eye @ a).first_row == a.first_row
        assert (a @ eye).first_row == a.first_row
        np.testing.assert_allclose(eye.to_dense(), np.eye(n), atol=0)


def test_product_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(1, 17))
        a = ShiftMatrix(n, random_row(rng, n))
        b = ShiftMatrix(n, random_row(rng, n))
        product = (a @ b).to_dense()
        expected = dense_oracle(a.first_row) @ dense_oracle(b.first_row)
        np.testing.assert_allclose(product, expected, atol=1e-12)


def test_products_commute():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(1, 17))
        a = ShiftMatrix(n, random_row(rng, n))
        b = ShiftMatrix(n, random_row(rng, n))
        left = (a @ b).first_row
        right = (b @ a).first_row
        assert max(abs(x - y) for x, y in zip(left, right)) <= 1e-12


def test_order_mismatch_rejected():
    a = ShiftMatrix.identity(3)
    b = ShiftMatrix.identity(4)
    with pytest.raises(ValueError):
        a @ b


def test_product_with_a_non_circulant_is_a_type_error():
    with pytest.raises(TypeError):
        ShiftMatrix.identity(3) @ 3


@pytest.mark.parametrize("build", [quadratic_phase_circulant, cyclic_shift_circulant])
def test_letter_circulants_refuse_order_zero(build):
    with pytest.raises(ValueError, match="order must be positive, got 0"):
        build(0)


def test_conj_transpose_example():
    a = ShiftMatrix(3, (0j, 1 + 0j, 0j))
    assert conj_transpose(a.first_row).tolist() == [0j, 0j, 1 + 0j]


def test_conj_transpose_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for n in [1, 2, 7, 12]:
        a = ShiftMatrix(n, random_row(rng, n))
        np.testing.assert_allclose(
            dense_oracle(conj_transpose(a.first_row)), dense_oracle(a.first_row).conj().T, atol=0
        )


def test_power_by_repeated_product():
    rng = np.random.default_rng(6)
    a = ShiftMatrix(6, random_row(rng, 6))
    assert a.power(0).first_row == ShiftMatrix.identity(6).first_row
    acc = ShiftMatrix.identity(6)
    for s in range(1, 5):
        acc = acc @ a
        np.testing.assert_allclose(a.power(s).first_row, acc.first_row, atol=0)
    with pytest.raises(ValueError):
        a.power(-1)


def test_cyclic_shift_has_order_n():
    for n in [1, 3, 5, 8]:
        f = cyclic_shift_circulant(n)
        assert f.power(n).first_row == ShiftMatrix.identity(n).first_row
        for s in range(1, n):
            assert f.power(s).first_row != ShiftMatrix.identity(n).first_row
    assert cyclic_shift_circulant(3).first_row == (0j, 1 + 0j, 0j)


def test_iter_powers_matches_power():
    a = quadratic_phase_circulant(5)
    for s, p in iter_powers(a.first_row, 7):
        np.testing.assert_allclose(p, a.power(s).first_row, atol=1e-12)


def oracle_power_rows(n):
    return np.array([p for _, p in iter_powers(quadratic_phase_circulant(n).first_row, n)])


def test_quadratic_power_rows_match_iter_powers():
    for n in range(1, 302, 2):
        blocks = list(quadratic_power_rows(n))
        # One block whenever all n powers fit, as at every benchmarked n.
        assert len(blocks) == 1 or n * n > circulant._BLOCK_ENTRIES
        assert blocks[0][0] == 1
        rows = np.concatenate([rows for _, rows in blocks])
        np.testing.assert_allclose(rows, oracle_power_rows(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9, 15, 21, 45, 101])
def test_quadratic_power_spectra_are_the_fft_of_the_powers(n):
    exponents = np.arange(1, n + 1)
    oracle = np.fft.fft(oracle_power_rows(n), axis=1)
    np.testing.assert_allclose(quadratic_power_spectra(n, exponents), oracle, rtol=0, atol=1e-12)
    # Any order and any subset of exponents; s = 0 is the identity.
    picked = [n, 1, 2, n]
    np.testing.assert_allclose(
        quadratic_power_spectra(n, picked), oracle[np.array(picked) - 1], rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(quadratic_power_spectra(n, [0]), np.ones((1, n)))


def test_quadratic_power_spectra_refuse_even_n():
    for n in (0, 2, 10):
        with pytest.raises(ValueError, match="odd"):
            quadratic_power_spectra(n, [1])


def test_quadratic_power_rows_stream_bounded_blocks(monkeypatch):
    # At n = 1001 the powers span several blocks.  Every |entry|^2 is l/n
    # on the multiples of l = gcd(s, n) and 0 elsewhere.
    n = 1001
    index = np.arange(n)
    s_next = 1
    for first, rows in quadratic_power_rows(n):
        assert first == s_next and 1 < len(rows) and rows.size <= circulant._BLOCK_ENTRIES
        l = np.gcd(np.arange(first, first + len(rows)), n)[:, None]
        moduli = np.where(index % l == 0, l / n, 0.0)
        assert np.abs(np.abs(rows) ** 2 - moduli).max() < 1e-14
        s_next += len(rows)
    assert s_next == n + 1
    # The block size does not change the rows.
    whole = next(quadratic_power_rows(45))[1]
    monkeypatch.setattr(circulant, "_BLOCK_ENTRIES", 100)
    split = list(quadratic_power_rows(45))
    assert [first for first, _ in split] == list(range(1, 46, 2))
    np.testing.assert_array_equal(np.concatenate([rows for _, rows in split]), whole)
    with pytest.raises(ValueError, match="odd"):
        next(quadratic_power_rows(10))


def test_quadratic_phase_row_frozen_values():
    m = quadratic_phase_circulant(3)
    w = cmath.exp(2j * math.pi / 3)
    expected = (1 / math.sqrt(3), w / math.sqrt(3), w / math.sqrt(3))
    np.testing.assert_allclose(m.first_row, expected, atol=1e-15)


def test_quadratic_phase_unitary_for_odd_orders():
    for n in range(3, 60, 2):
        assert is_unitary(quadratic_phase_circulant(n).first_row, 1e-9)


def test_quadratic_phase_not_unitary_for_even_orders():
    for n in [2, 4, 6, 10]:
        assert not is_unitary(quadratic_phase_circulant(n).first_row, 1e-9)


def test_is_unitary_rejects_skewed_row():
    bad = ShiftMatrix(3, (1 / math.sqrt(2), 1 / math.sqrt(2), 0j))
    assert not is_unitary(bad.first_row, 1e-9)


def test_is_unitary_accepts_permutation():
    assert is_unitary(cyclic_shift_circulant(7).first_row, 1e-12)


def test_unitarity_closed_under_product():
    # unit-modulus spectrum through an inverse FFT gives a random
    # unitary circulant; products must stay unitary
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 33))
        rows = [
            tuple(np.fft.ifft(np.exp(1j * rng.uniform(0, 2 * np.pi, n))))
            for _ in range(2)
        ]
        a, b = (ShiftMatrix(n, r) for r in rows)
        assert is_unitary(a.first_row, 1e-9) and is_unitary(b.first_row, 1e-9)
        assert is_unitary((a @ b).first_row, 1e-9)


def test_classify_quadratic_phase_base():
    prof = classify_special(quadratic_phase_circulant(3))
    assert (prof.l, prof.g, prof.k) == (1, 3, 1)
    assert abs(prof.c - 1 / math.sqrt(3)) < 1e-12


def test_classify_worked_powers():
    prof = classify_special(quadratic_phase_circulant(5).power(2))
    assert (prof.l, prof.g, prof.k) == (1, 5, 3)
    prof = classify_special(quadratic_phase_circulant(9).power(3))
    assert (prof.l, prof.g, prof.k) == (3, 3, 1)


def test_classify_identity_and_scalars():
    prof = classify_special(ShiftMatrix.identity(9))
    assert (prof.l, prof.g, prof.k) == (9, 1, 0)
    assert prof.c == 1
    prof = classify_special(ShiftMatrix(5, (1j, 0j, 0j, 0j, 0j)))
    assert (prof.l, prof.g, prof.k) == (5, 1, 0)


def test_classify_rejects_shift_and_zero():
    assert classify_special(cyclic_shift_circulant(3)) is None
    assert classify_special(ShiftMatrix(4, (0j, 0j, 0j, 0j))) is None
    # nonzero support that misses index 0
    assert classify_special(ShiftMatrix(4, (0j, 1 + 0j, 0j, 1 + 0j))) is None


def test_classify_rejects_non_quadratic_phases():
    # right support pattern, wrong phase law on the last entry
    base = quadratic_phase_circulant(5)
    row = list(base.first_row)
    row[4] *= cmath.exp(0.1j)
    assert classify_special(ShiftMatrix(5, tuple(row))) is None


def test_classify_reconstruct_roundtrip():
    # every legal profile must classify back to itself
    rng = np.random.default_rng(8)
    for n in [9, 15, 21]:
        for l in [d for d in range(1, n + 1) if n % d == 0]:
            g = n // l
            for k in range(g):
                c = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
                profile = SpecialShiftProfile(l, g, k, c)
                fitted = classify_special(reconstruct(profile))
                assert fitted is not None, (n, l, k)
                assert (fitted.l, fitted.g, fitted.k) == (l, g, k)
                assert abs(fitted.c - c) < 1e-12


def test_classify_tolerates_tiny_noise():
    rng = np.random.default_rng(9)
    base = quadratic_phase_circulant(9).power(3)
    noisy = tuple(
        z + complex(rng.uniform(-1e-12, 1e-12), rng.uniform(-1e-12, 1e-12))
        for z in base.first_row
    )
    prof = classify_special(ShiftMatrix(9, noisy))
    assert prof is not None and (prof.l, prof.g, prof.k) == (3, 3, 1)


def test_classify_block_matches_single_rows():
    # Judging rows together must not let one row's verdict reach another.
    rng = np.random.default_rng(11)
    for n in [9, 15, 45, 105]:
        exact = oracle_power_rows(n)
        shape = exact.shape
        noisy = exact + rng.uniform(-1e-12, 1e-12, shape) + 1j * rng.uniform(-1e-12, 1e-12, shape)
        perturbed = exact.copy()
        size = np.resize([1e-10, 1e-8, 1e-6, 1e-2], n) * np.exp(1j * rng.uniform(0, 7, n))
        perturbed[np.arange(n), rng.integers(0, n, n)] += size
        scaled = exact * np.logspace(0, -12, n)[:, None]
        for stack in (exact, noisy, perturbed, scaled):
            profiles = classify_special(stack)
            assert profiles == [classify_special(row) for row in stack]
            assert profiles == [classify_special(ShiftMatrix(n, row)) for row in stack]
        assert None not in classify_special(noisy) + classify_special(scaled)
        assert 0 < classify_special(perturbed).count(None) < n


def test_classify_accepts_a_matrix_a_row_or_a_block():
    power = quadratic_phase_circulant(9).power(3)
    profile = classify_special(power)
    assert classify_special(power.first_row) == profile
    shift = cyclic_shift_circulant(9).first_row
    assert classify_special(np.stack([power.first_row, shift])) == [profile, None]
    for bad in (1j, np.zeros((3, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="block of rows"):
            classify_special(bad)


def test_json_roundtrip():
    rng = np.random.default_rng(10)
    a = ShiftMatrix(6, random_row(rng, 6))
    again = ShiftMatrix.from_json_dict(a.to_json_dict())
    assert again == a


def test_construction_copies_the_callers_array():
    row = np.array([1, 2j, 3, 4 - 1j])
    a = ShiftMatrix(4, row)
    row[:] = 0
    assert a.first_row == (1 + 0j, 2j, 3 + 0j, 4 - 1j)
    assert a == ShiftMatrix(4, (1, 2j, 3, 4 - 1j))


def test_is_unitary_leaves_the_matrix_unchanged():
    skewed = ShiftMatrix(3, (1 / math.sqrt(2), 1 / math.sqrt(2), 0j))
    for a in (quadratic_phase_circulant(9), skewed):
        row = a.first_row
        first = is_unitary(a.first_row, 1e-9)
        assert is_unitary(a.first_row, 1e-9) == first
        assert a.first_row == row


def test_copies_keep_a_read_only_row():
    a = quadratic_phase_circulant(5)
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a
        assert hash(b) == hash(a)
