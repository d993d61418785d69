"""Packed GF(2) vectors/matrices and transition-matrix extraction."""

from __future__ import annotations

import hashlib
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spectra import get_spec, make_generator
from f2spectra.bitlinalg import (
    BitMatrix,
    BitVector,
    SparseBitMatrix,
    extract_transition_matrix,
    transpose,
    write_matrix,
)
from f2spectra.generators import GENERATOR_NAMES

from _oracles import (
    dense_transition_matrix,
    matmul,
    matpow,
    matvec,
    packed,
    rank_gf2,
    read_matrix,
    sparse,
    write_matrix_unpacked,
)
from _toys import TOY_MELG, TOY_MT8, TOY_WELL_DEAD_TAP

_TOYS = (TOY_MT8, TOY_MELG, TOY_WELL_DEAD_TAP)


def _random_matrix(rows: int, cols: int, rng: random.Random) -> BitMatrix:
    return BitMatrix.from_int_rows(
        (rng.getrandbits(cols) for _ in range(rows)), cols
    )


# -- vectors -----------------------------------------------------------------


def test_vector_constructors_and_access():
    v = BitVector.from_bits([1, 0, 1, 1, 0])
    assert v.length == 5
    assert [v.get(i) for i in range(5)] == [1, 0, 1, 1, 0]
    assert v.popcount() == 3
    assert BitVector.unit(5, 3).value == 1 << 3
    assert BitVector.zeros(4).popcount() == 0


def test_vector_validation():
    with pytest.raises(ValueError):
        BitVector(3, 0b1000)
    with pytest.raises(ValueError):
        BitVector(-1, 0)


def test_vector_xor_and_limbs_roundtrip():
    rng = random.Random(1)
    for length in (1, 63, 64, 65, 130, 607):
        x = BitVector.random(length, rng)
        y = BitVector.random(length, rng)
        assert (x ^ y).value == x.value ^ y.value
        assert BitVector.from_limbs(x.to_limbs(), length) == x


# -- matrices ----------------------------------------------------------------


def test_matrix_constructors_and_access():
    m = BitMatrix.from_int_rows([0b101, 0b010, 0b110], 3)
    assert (m.rows, m.cols) == (3, 3)
    assert m.get(0, 0) == 1 and m.get(0, 1) == 0 and m.get(0, 2) == 1
    assert m.row_int(2) == 0b110
    assert m.row_vector(1) == BitVector.from_bits([0, 1, 0])
    dense = m.to_dense()
    assert dense.tolist() == [[1, 0, 1], [0, 1, 0], [0, 1, 1]]
    assert BitMatrix.from_dense(dense) == m


def test_identity_and_equality():
    eye = BitMatrix.identity(70)
    assert eye == BitMatrix.from_dense(np.eye(70, dtype=np.uint8))
    assert eye != BitMatrix.zeros(70, 70)


def test_matvec_matches_dense():
    rng = random.Random(2)
    for rows, cols in ((5, 5), (7, 70), (64, 64), (65, 3)):
        m = _random_matrix(rows, cols, rng)
        v = BitVector.random(cols, rng)
        expect = (m.to_dense() @ v_dense(v)) % 2
        assert v_dense(matvec(m, v)).tolist() == expect.tolist()


def v_dense(v: BitVector) -> np.ndarray:
    return np.array([v.get(i) for i in range(v.length)], dtype=np.int64)


def test_matmul_matches_dense_and_associates():
    rng = random.Random(3)
    a = _random_matrix(9, 70, rng)
    b = _random_matrix(70, 33, rng)
    c = _random_matrix(33, 5, rng)
    prod = matmul(a, b)
    assert prod.to_dense().tolist() == ((a.to_dense().astype(np.int64) @ b.to_dense()) % 2).tolist()
    assert matmul(prod, c) == matmul(a, matmul(b, c))


def test_matpow():
    rng = random.Random(4)
    m = _random_matrix(20, 20, rng)
    assert matpow(m, 0) == BitMatrix.identity(20)
    assert matpow(m, 1) == m
    acc = BitMatrix.identity(20)
    for _ in range(7):
        acc = matmul(acc, m)
    assert matpow(m, 7) == acc


def test_transpose():
    rng = random.Random(5)
    a = _random_matrix(67, 130, rng)
    b = _random_matrix(130, 40, rng)
    assert transpose(transpose(a)) == a
    assert transpose(matmul(a, b)) == matmul(transpose(b), transpose(a))
    assert transpose(a).to_dense().tolist() == a.to_dense().T.tolist()


_TRANSPOSE_SIZES = (1, 7, 8, 9, 63, 64, 65, 2047, 2048, 2049, 4100)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from(_TRANSPOSE_SIZES),
    cols=st.sampled_from(_TRANSPOSE_SIZES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transpose_kernel_matches_unpacked_oracle(rows, cols, seed):
    # the oracle is numpy's transpose of the unpacked 0/1 array; the sizes
    # straddle byte, limb and _TRANSPOSE_CHUNK boundaries
    dense = np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    m = BitMatrix.from_dense(dense)
    t = transpose(m)
    assert np.array_equal(t.to_dense(), dense.T)
    assert transpose(t) == m


def test_rank():
    assert rank_gf2(BitMatrix.identity(33)) == 33
    assert rank_gf2(BitMatrix.zeros(8, 12)) == 0
    # duplicate rows collapse
    m = BitMatrix.from_int_rows([0b11, 0b11, 0b01], 2)
    assert rank_gf2(m) == 2


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_agrees_with_numpy_gauss(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rows, cols, rng)
    dense = m.to_dense().astype(np.int64)
    # straightforward elimination oracle
    work = dense.copy()
    rank = 0
    for col in range(cols):
        pivots = [i for i in range(rank, rows) if work[i, col]]
        if not pivots:
            continue
        work[[rank, pivots[0]]] = work[[pivots[0], rank]]
        for i in range(rows):
            if i != rank and work[i, col]:
                work[i] ^= work[rank]
        rank += 1
    assert rank_gf2(m) == rank


# -- sparse matrices ---------------------------------------------------------


def test_sparse_matrix_matches_its_packed_form():
    rng = random.Random(7)
    m = _random_matrix(23, 70, rng)
    s = sparse(m.to_dense())
    assert (s.rows, s.cols) == (23, 70)
    assert s.row_index.dtype == s.col_index.dtype == np.int64
    assert packed(s) == m
    assert s == sparse(m.to_dense()) and s != sparse(np.eye(23, 70, dtype=np.uint8))


@pytest.mark.parametrize(
    ("rows", "cols", "message"),
    [
        ([0, 0], [1, 1], "distinct"),
        ([1, 0], [0, 1], "sorted"),
        ([0, 0], [2, 1], "sorted"),
        ([0, 3], [0, 0], "outside"),
        ([0, 1], [0, -1], "outside"),
        ([[0]], [[0]], "1-d"),
        ([0, 1], [0], "1-d"),
    ],
)
def test_sparse_matrix_rejects_non_canonical_nonzeros(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        SparseBitMatrix(3, 3, rows, cols)


# -- serialization -----------------------------------------------------------


class _DigestSink:
    """Text sink that keeps a digest of the text and each write's length,
    so two writers of a k = 19937 matrix compare without holding it."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.digest.update(text.encode("ascii"))
        self.writes.append(len(text))
        return len(text)

    def seen(self) -> tuple[str, list[int]]:
        return self.digest.hexdigest(), self.writes


def _assert_writers_agree(m: SparseBitMatrix) -> None:
    ours, oracle = _DigestSink(), _DigestSink()
    write_matrix(m, ours)
    write_matrix_unpacked(packed(m), oracle)
    assert ours.seen() == oracle.seen()


@pytest.mark.parametrize(
    "spec", [*(get_spec(name) for name in GENERATOR_NAMES), *_TOYS], ids=lambda s: s.name
)
def test_write_matrix_matches_unpacked_oracle(spec):
    _assert_writers_agree(extract_transition_matrix(spec))


def test_write_matrix_matches_unpacked_oracle_on_row_corners():
    # row 1 is empty, rows 0 and 2 hold the first and last columns, and
    # row 3 has nonzeros in the first, a middle, and the last limb
    dense = np.zeros((5, 130), dtype=np.uint8)
    dense[0, 0] = dense[2, 129] = 1
    dense[3, [0, 1, 63, 64, 65, 127, 128, 129]] = 1
    dense[4, 77] = 1
    m = sparse(dense)
    _assert_writers_agree(m)
    sink = io.StringIO()
    write_matrix(m, sink)
    lines = sink.getvalue().split("\n")
    assert lines[1] == "0" * 130
    assert lines[0] == "1" + "0" * 129 and lines[2] == "0" * 129 + "1"
    assert len(lines) == 6 and lines[5] == ""


def test_text_roundtrip():
    rng = random.Random(6)
    m = _random_matrix(19, 67, rng)
    sink = io.StringIO()
    write_matrix(sparse(m.to_dense()), sink)
    assert read_matrix(io.StringIO(sink.getvalue())) == m
    lines = sink.getvalue().strip("\n").split("\n")
    assert len(lines) == 19 and set("".join(lines)) <= {"0", "1"}


def test_read_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("01\n0x1\n"))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("01\n011\n"))


# -- transition-matrix extraction --------------------------------------------


@pytest.mark.parametrize(
    ("name", "trials"),
    [
        pytest.param("well607b", 20, id="well607b"),
        pytest.param("melg607", 20, id="melg607"),
        # full k: 32-bit words with r = 31 dead bits, 64-bit words, two words
        # written per step, and 64-bit words plus the lung
        pytest.param("mt19937", 3, id="mt19937"),
        pytest.param("mt19937-64id1", 3, id="mt19937-64id1"),
        pytest.param("mt19937-64id3", 3, id="mt19937-64id3"),
        pytest.param("well19937a", 3, id="well19937a"),
        pytest.param("melg19937", 3, id="melg19937"),
    ],
)
def test_extracted_matrix_steps_the_generator(name, trials):
    spec = get_spec(name)
    mat = extract_transition_matrix(spec)
    assert mat.rows == mat.cols == spec.k
    dense = packed(mat)
    gen = make_generator(spec)
    rng = random.Random(8)
    for _ in range(trials):
        x = BitVector.random(spec.k, rng)
        gen.set_state_vector(x)
        gen.step()
        assert matvec(dense, x) == gen.state_vector()


@pytest.mark.parametrize(
    "spec", [*(get_spec(name) for name in GENERATOR_NAMES), *_TOYS], ids=lambda s: s.name
)
def test_extraction_matches_dense_oracle(spec):
    assert packed(extract_transition_matrix(spec)) == dense_transition_matrix(spec)


def test_extraction_thread_count_is_irrelevant():
    spec = get_spec("well1024a")
    one, two = extract_transition_matrix(spec), extract_transition_matrix(spec, threads=2)
    assert two == one
    assert packed(two) == packed(one)


def test_transition_matrix_is_invertible():
    # every bundled recurrence permutes its nonzero states
    spec = get_spec("well607b")
    assert rank_gf2(packed(extract_transition_matrix(spec))) == spec.k
