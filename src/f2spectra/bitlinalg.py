"""Bit-packed vectors and matrices over GF(2).

A BitVector wraps an arbitrary-precision integer; coefficient i is bit i
of ``value``.  A BitMatrix stores one packed row per run of little-endian
64-bit limbs, so a matrix-vector product is a masked popcount per row and
the 19937-square transition matrices stay around 50 MB.

The transition-matrix extractor probes a generator with every canonical
basis vector, steps once, and reads the image back as a matrix column;
``B @ x == raw_step(x)`` is the property everything downstream relies on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from ._util import resolve_threads

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
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def unit(cls, length: int, index: int) -> "BitVector":
        if not 0 <= index < length:
            raise ValueError(f"unit index {index} outside [0, {length})")
        return cls(length, 1 << index)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        value = 0
        n = 0
        for n, b in enumerate(bits, start=1):
            if b:
                value |= 1 << (n - 1)
        return cls(n, value)

    @classmethod
    def random(cls, length: int, rng) -> "BitVector":
        return cls(length, rng.getrandbits(length))

    def get(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        return (self.value >> index) & 1

    def popcount(self) -> int:
        return self.value.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.value ^ other.value)

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


# -- arithmetic --------------------------------------------------------


def matvec(m: BitMatrix, v: BitVector) -> BitVector:
    """Product ``m @ v`` over GF(2): per-row parity of a masked popcount."""
    if v.length != m.cols:
        raise ValueError(f"dimension mismatch: {m.cols} columns vs vector of {v.length}")
    masked = m.storage & v.to_limbs(m.storage.shape[1])[None, :]
    parities = (np.bitwise_count(masked).sum(axis=1) & 1).astype(np.uint8)
    packed = np.packbits(parities, bitorder="little")
    return BitVector(m.rows, int.from_bytes(packed.tobytes(), "little"))


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product ``a @ b`` over GF(2) by XOR-accumulating rows of ``b``."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    out = BitMatrix.zeros(a.rows, b.cols)
    a_bits = a.to_dense().astype(bool)
    for i in range(a.rows):
        idx = np.nonzero(a_bits[i])[0]
        if idx.size:
            out.storage[i] = np.bitwise_xor.reduce(b.storage[idx], axis=0)
    return out


def matpow(m: BitMatrix, e: int) -> BitMatrix:
    """Power ``m**e`` over GF(2) by square-and-multiply."""
    if m.rows != m.cols:
        raise ValueError("matpow needs a square matrix")
    if e < 0:
        raise ValueError("negative exponent")
    result = BitMatrix.identity(m.rows)
    base = m
    while e:
        if e & 1:
            result = matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return result


def transpose(m: BitMatrix, chunk: int = 2048) -> BitMatrix:
    """Bit-transpose via chunked unpack/pack (handles 19937-square in seconds)."""
    out = BitMatrix.zeros(m.cols, m.rows)
    out_bytes = out.storage.view(np.uint8).reshape(m.cols, -1)
    src_bytes = m.storage.view(np.uint8).reshape(m.rows, -1)
    for lo in range(0, m.rows, chunk):
        hi = min(lo + chunk, m.rows)
        bits = np.unpackbits(src_bytes[lo:hi], axis=1, bitorder="little")[:, : m.cols]
        if (hi - lo) % 8:
            pad = np.zeros((8 - (hi - lo) % 8, m.cols), dtype=np.uint8)
            bits = np.vstack([bits, pad])
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        out_bytes[:, lo >> 3 : (lo >> 3) + packed.shape[1]] = packed
    return out


def rank_gf2(m: BitMatrix) -> int:
    """Rank over GF(2) by integer-bitset Gaussian elimination."""
    pivots: dict[int, int] = {}
    rank = 0
    for i in range(m.rows):
        cur = m.row_int(i)
        while cur:
            msb = cur.bit_length() - 1
            if msb in pivots:
                cur ^= pivots[msb]
            else:
                pivots[msb] = cur
                rank += 1
                break
    return rank


# -- serialization -----------------------------------------------------


def write_matrix(m: BitMatrix, sink: TextIO) -> None:
    """Text form: one line of '0'/'1' per row, column index ascending."""
    src_bytes = m.storage.view(np.uint8).reshape(m.rows, -1)
    for i in range(m.rows):
        bits = np.unpackbits(src_bytes[i], bitorder="little")[: m.cols]
        sink.write((bits + ord("0")).astype(np.uint8).tobytes().decode("ascii"))
        sink.write("\n")


def read_matrix(source: TextIO) -> BitMatrix:
    rows: list[int] = []
    cols = -1
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        if cols == -1:
            cols = len(line)
        elif len(line) != cols:
            raise ValueError(f"line {lineno}: expected {cols} characters, got {len(line)}")
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: non-binary character")
        rows.append(int(line[::-1], 2))
    if cols == -1:
        raise ValueError("empty matrix file")
    return BitMatrix.from_int_rows(rows, cols)


# -- transition-matrix extraction --------------------------------------


def extract_transition_matrix(spec, threads: int | None = None) -> BitMatrix:
    """The k-square matrix B with ``B @ x == raw_step(x)`` for every state x.

    Probes every canonical basis vector through one generator step (all
    probes advanced in lockstep by the vectorized ensemble engine) and
    transposes the stacked images into columns.
    """
    from .generators.ensemble import probe_images

    threads = resolve_threads(threads)
    k = spec.k
    if threads <= 1:
        images = probe_images(spec, 0, k)
    else:
        bounds = [(i * k) // threads for i in range(threads + 1)]
        images = np.empty((k, _limbs_for(k)), dtype=np.uint64)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(probe_images, spec, bounds[t], bounds[t + 1])
                for t in range(threads)
            ]
            for t, fut in enumerate(futures):
                images[bounds[t] : bounds[t + 1]] = fut.result()
    probe_matrix = BitMatrix(k, k, images)
    return transpose(probe_matrix)
