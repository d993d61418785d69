"""Bit-packed vectors and matrices over GF(2).

A BitVector wraps an arbitrary-precision integer; coefficient i is bit i
of ``value``.  A BitMatrix stores one packed row per run of little-endian
64-bit limbs; ``transpose`` and the tests' oracles use it.

A SparseBitMatrix holds a matrix as its nonzeros, sorted by (row, col).
The transition matrix B of every bundled generator is almost a pure
shift, with about k + 600 nonzeros at k = 19937, so in this form it
takes about 320 KB where packed rows would take 50 MB.  The extractor
takes B's nonzeros from one sparse probe of the state grid
(``generators.ensemble.probe_images``), which lists the set bits of the
image of every stored bit's unit vector as (row, col) pairs: it steps
once only the unit vectors in the few words a step reads, and moves
every other one grid word on.  The pairs in canonical rows and columns
are kept.
``B @ x == raw_step(x)`` is the property everything downstream relies
on.  ``write_matrix`` streams each text row straight from the nonzeros:
slices of one all-zeros line joined around the row's "1"s.

``transpose`` unpacks a chunk of rows to one byte per bit at a time and
packs the transposed view, so its working memory beyond the output is
a few copies of one unpacked chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

_LIMB = 64


def _limbs_for(nbits: int) -> int:
    return max(1, (nbits + _LIMB - 1) // _LIMB)


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector of fixed length; bit i of ``value`` is entry i."""

    length: int
    value: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if self.value < 0 or self.value >> self.length:
            raise ValueError("value has bits beyond length")

    @classmethod
    def unit(cls, length: int, index: int) -> "BitVector":
        if not 0 <= index < length:
            raise ValueError(f"unit index {index} outside [0, {length})")
        return cls(length, 1 << index)

    @classmethod
    def random(cls, length: int, rng) -> "BitVector":
        return cls(length, rng.getrandbits(length))

    def get(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        return (self.value >> index) & 1

    def to_limbs(self, nlimbs: int | None = None) -> np.ndarray:
        nlimbs = _limbs_for(self.length) if nlimbs is None else nlimbs
        raw = self.value.to_bytes(nlimbs * 8, "little")
        return np.frombuffer(raw, dtype="<u8").copy()

    @classmethod
    def from_limbs(cls, limbs: np.ndarray, length: int) -> "BitVector":
        value = int.from_bytes(np.ascontiguousarray(limbs, dtype="<u8").tobytes(), "little")
        return cls(length, value & ((1 << length) - 1))


class BitMatrix:
    """GF(2) matrix with packed rows (shape ``(rows, limbs)`` of uint64)."""

    __slots__ = ("rows", "cols", "storage")

    def __init__(self, rows: int, cols: int, storage: np.ndarray) -> None:
        limbs = _limbs_for(cols)
        if storage.shape != (rows, limbs) or storage.dtype != np.uint64:
            raise ValueError("storage shape/dtype mismatch")
        self.rows = rows
        self.cols = cols
        self.storage = storage

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _limbs_for(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls.zeros(n, n)
        idx = np.arange(n)
        m.storage[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        return m

    @classmethod
    def from_int_rows(cls, rows: Iterable[int], cols: int) -> "BitMatrix":
        rows = list(rows)
        m = cls.zeros(len(rows), cols)
        nbytes = _limbs_for(cols) * 8
        view = m.storage.view(np.uint8).reshape(len(rows), nbytes)
        for i, r in enumerate(rows):
            if r < 0 or r >> cols:
                raise ValueError(f"row {i} has bits beyond {cols} columns")
            view[i] = np.frombuffer(r.to_bytes(nbytes, "little"), dtype=np.uint8)
        return m

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense)
        rows, cols = dense.shape
        m = cls.zeros(rows, cols)
        packed = np.packbits(dense.astype(np.uint8) & 1, axis=1, bitorder="little")
        m.storage.view(np.uint8).reshape(rows, -1)[:, : packed.shape[1]] = packed
        return m

    # -- element access ----------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int((self.storage[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def row_int(self, i: int) -> int:
        return int.from_bytes(self.storage[i].tobytes(), "little")

    def row_vector(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_int(i))

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(
            self.storage.view(np.uint8).reshape(self.rows, -1), axis=1, bitorder="little"
        )
        return bits[:, : self.cols]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.storage, other.storage))
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


class SparseBitMatrix:
    """GF(2) matrix held as its nonzeros.

    Entry e says that bit (``row_index[e]``, ``col_index[e]``) is 1.  Both
    are int64 arrays, and the pairs are distinct and sorted by (row, col):
    each row's nonzeros are one run, and equal matrices have equal arrays.
    """

    __slots__ = ("rows", "cols", "row_index", "col_index")

    def __init__(self, rows: int, cols: int, row_index, col_index) -> None:
        row_index = np.asarray(row_index, dtype=np.int64)
        col_index = np.asarray(col_index, dtype=np.int64)
        if row_index.ndim != 1 or row_index.shape != col_index.shape:
            raise ValueError("row and column indices must be 1-d arrays of one length")
        if row_index.size:
            if (row_index.min() < 0 or row_index.max() >= rows
                    or col_index.min() < 0 or col_index.max() >= cols):
                raise ValueError(f"nonzero outside the {rows}x{cols} matrix")
            key = row_index * cols + col_index
            if np.any(key[1:] <= key[:-1]):
                raise ValueError("nonzeros must be distinct and sorted by (row, col)")
        self.rows = rows
        self.cols = cols
        self.row_index = row_index
        self.col_index = col_index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseBitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.row_index, other.row_index))
            and bool(np.array_equal(self.col_index, other.col_index))
        )

    def __repr__(self) -> str:
        return f"SparseBitMatrix({self.rows}x{self.cols}, {self.row_index.size} nonzeros)"


# -- transpose ---------------------------------------------------------

#: Rows ``transpose`` unpacks at a time: 40 MB of bytes at 19937 columns.
_TRANSPOSE_CHUNK = 2048


def transpose(m: BitMatrix) -> BitMatrix:
    """The bit transpose of ``m``.

    ``_TRANSPOSE_CHUNK`` rows at a time are unpacked to one byte per bit,
    and the transposed view is packed into the output's columns; the
    last chunk's final byte is padded with zero bits.
    """
    out = BitMatrix.zeros(m.cols, m.rows)
    out_bytes = out.storage.view(np.uint8).reshape(m.cols, -1)
    src_bytes = m.storage.view(np.uint8).reshape(m.rows, -1)
    for lo in range(0, m.rows, _TRANSPOSE_CHUNK):
        bits = np.unpackbits(src_bytes[lo : lo + _TRANSPOSE_CHUNK], axis=1, bitorder="little")
        packed = np.packbits(bits[:, : m.cols].T, axis=1, bitorder="little")
        out_bytes[:, lo >> 3 : (lo >> 3) + packed.shape[1]] = packed
    return out


# -- serialization -----------------------------------------------------


def write_matrix(m: SparseBitMatrix, sink: TextIO) -> None:
    """Text form: one line of '0'/'1' per row, column index ascending.

    Each line is built from the row's nonzeros alone.  A row with one
    nonzero, a shift row, is one slice of a prebuilt line of k - 1 zeros,
    a "1" and k - 1 zeros; any other row joins slices of one all-zeros
    line with "1"s.  Each line is written before its newline.
    """
    zeros = "0" * m.cols
    unit = zeros[1:] + "1" + zeros[1:]  # unit[cols - 1 - c :][: cols] has its 1 at c
    bounds = np.searchsorted(m.row_index, np.arange(m.rows + 1)).tolist()
    cols = m.col_index.tolist()
    for i in range(m.rows):
        lo, hi = bounds[i], bounds[i + 1]
        if hi - lo == 1:
            start = m.cols - 1 - cols[lo]
            sink.write(unit[start : start + m.cols])
        else:
            pieces, start = [], 0
            for c in cols[lo:hi]:
                pieces.append(zeros[start:c])
                start = c + 1
            pieces.append(zeros[start:])
            sink.write("1".join(pieces))
        sink.write("\n")


# -- transition-matrix extraction --------------------------------------


def extract_transition_matrix(spec) -> SparseBitMatrix:
    """The k-square matrix B with ``B @ x == raw_step(x)`` for every state x.

    One sparse probe of the whole state grid (``ensemble.probe_images``)
    lists B's nonzeros; those in canonical rows and columns, renumbered
    to canonical coordinates, are B.
    """
    from .generators.base import grid_canonical, grid_size
    from .generators.ensemble import probe_images

    rows, cols, _ = probe_images(spec, 0, grid_size(spec))
    canon = grid_canonical(spec)
    rows, cols = canon[rows], canon[cols]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    return SparseBitMatrix(spec.k, spec.k, rows[order], cols[order])
