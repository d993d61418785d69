"""Reference implementations that only the tests use.

Each one computes a quantity the library computes faster, or checks a
library result, by a plainer route; the tests compare the two.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from f2spectra.bitlinalg import BitMatrix, BitVector, SparseBitMatrix, transpose
from f2spectra.charpoly import BlockSpec, ZPoly
from f2spectra.generators import Generator, GeneratorSpec, make_generator
from f2spectra.generators.base import canonical_grid
from f2spectra.generators.ensemble import Ensemble
from f2spectra.gf2poly import GF2Poly

#: Unit-vector lanes per ensemble block: bounds an oracle's working memory.
_LANES = 2048


# -- GF(2) linear algebra ------------------------------------------------------


def packed(m: SparseBitMatrix) -> BitMatrix:
    """The same matrix as packed rows, each nonzero XORed into its bit."""
    out = BitMatrix.zeros(m.rows, m.cols)
    limbs = out.storage.shape[1]
    bit = np.uint64(1) << (m.col_index & 63).astype(np.uint64)
    np.bitwise_xor.at(out.storage.reshape(-1), m.row_index * limbs + (m.col_index >> 6), bit)
    return out


def sparse(dense) -> SparseBitMatrix:
    """The nonzeros of a 0/1 array, in row-major order."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return SparseBitMatrix(dense.shape[0], dense.shape[1], rows, cols)


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


def _unit_vectors(spec: GeneratorSpec, lo: int, hi: int) -> Ensemble:
    """Ensemble whose member e holds canonical basis vector lo+e."""
    return Ensemble.from_grid_units(spec, canonical_grid(spec)[lo:hi])


def dense_transition_matrix(spec: GeneratorSpec) -> BitMatrix:
    """B by the dense route: every canonical unit vector stepped once in an
    ``Ensemble``, the images packed as rows by ``state_rows``, then
    transposed; the oracle for ``bitlinalg.extract_transition_matrix``."""
    images = np.empty((spec.k, (spec.k + 63) // 64), dtype=np.uint64)
    for lo in range(0, spec.k, _LANES):
        hi = min(lo + _LANES, spec.k)
        ens = _unit_vectors(spec, lo, hi)
        ens.rec.step(ens)
        images[lo:hi] = ens.state_rows()
    return transpose(BitMatrix(spec.k, spec.k, images))


def write_matrix_unpacked(m: BitMatrix, sink: TextIO) -> None:
    """Each packed row unpacked to one byte per bit and written as '0'/'1'
    text, then a newline; the oracle for ``bitlinalg.write_matrix``."""
    src_bytes = m.storage.view(np.uint8).reshape(m.rows, -1)
    for i in range(m.rows):
        bits = np.unpackbits(src_bytes[i], bitorder="little")[: m.cols]
        sink.write((bits + ord("0")).astype(np.uint8).tobytes().decode("ascii"))
        sink.write("\n")


def read_matrix(source: TextIO) -> BitMatrix:
    """Parse the text form ``bitlinalg.write_matrix`` emits."""
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


# -- jump-ahead ------------------------------------------------------------------


def horner_apply(gen: Generator, poly: GF2Poly) -> None:
    """Replace the state x by poly(B) x one coefficient at a time; the
    oracle for ``gf2poly.apply_transition_polynomial``.

    Each Horner stage is one generator step of an accumulator plus, for a
    set coefficient, an XOR of the start state rotated to the
    accumulator's cursor.
    """
    spec = gen.spec
    n = spec.n
    x0 = gen.st[gen.cursor :] + gen.st[: gen.cursor]  # cursor-0 storage order
    x_lung = gen.lung
    acc = make_generator(spec)  # zero state
    for i in range(poly.degree, -1, -1):
        acc.step()
        if poly.coeff(i):
            c = n - acc.cursor
            acc.st = [a ^ b for a, b in zip(acc.st, x0[c:] + x0[:c])]
            if spec.has_lung:
                acc.lung ^= x_lung
    gen.set_raw_state(acc.get_raw_state())


# -- zeroland --------------------------------------------------------------------


def ensemble_weight_totals(spec: GeneratorSpec, steps: int) -> np.ndarray:
    """Total output weight of the k unit-vector lanes after 1..steps steps,
    by stepping all k lanes in ensembles; the oracle for the adjoint sweep
    of ``zeroland.unit_seed_sweep``."""
    totals = np.zeros(steps, dtype=np.int64)
    for lo in range(0, spec.k, _LANES):
        ens = _unit_vectors(spec, lo, min(lo + _LANES, spec.k))
        for i in range(steps):
            ens.rec.step(ens)
            totals[i] += int(np.bitwise_count(ens.rec.output(ens)).sum(dtype=np.int64))
    return totals


# -- twisted-GFSR block structure ---------------------------------------------


def mt_step_matrix(spec: BlockSpec) -> BitMatrix:
    """One-step transition matrix in canonical coordinates, (nw - r)-square.

    Block j holds the j-th newest word, most significant coordinate
    first; the last block is the oldest word truncated to its w - r live
    coordinates.  Rows are output coordinates, so this matrix times a
    canonical state vector is the stepped state — it must agree with the
    probe-extracted matrix of a generator running the same recurrence.
    """
    n, m, w, r, a = spec.n, spec.m, spec.w, spec.r, spec.a
    dim = spec.dim
    rows = [0] * dim

    def z_col(p: int) -> int:
        # w-coordinate splice feeding the twist: top w-r coordinates from
        # the oldest block, low r coordinates from the second-oldest.
        if p < w - r:
            return (n - 1) * w + p
        return (n - 2) * w + p

    # new block 0: twist of the splice plus the tap block n-1-m
    for q in range(w):
        row = 1 << ((n - 1 - m) * w + q)
        if q >= 1:
            row ^= 1 << z_col(q - 1)
        if (a >> (w - 1 - q)) & 1:
            row ^= 1 << z_col(w - 1)
        rows[q] = row
    # blocks 1..n-2 shift down
    for j in range(1, n - 1):
        for q in range(w):
            rows[j * w + q] = 1 << ((j - 1) * w + q)
    # the new oldest block keeps the top w-r coordinates of block n-2
    for q in range(w - r):
        rows[(n - 1) * w + q] = 1 << ((n - 2) * w + q)
    return BitMatrix.from_int_rows(rows, dim)


# -- integer matrices ----------------------------------------------------------


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in mat]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for rr in range(c + 1, n):
                if m[rr][c]:
                    m[c], m[rr] = m[rr], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        for i in range(c + 1, n):
            mic = m[i][c]
            row_i = m[i]
            row_c = m[c]
            for j in range(c + 1, n):
                row_i[j] = (row_i[j] * pivot - mic * row_c[j]) // prev
            row_i[c] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def fl_charpoly(mat: Sequence[Sequence[int]]) -> ZPoly:
    """det(tI - M) by the same Faddeev-LeVerrier recurrence as
    ``charpoly.brute_charpoly``, but with dense products over every entry
    of M; the reference for the library's sparse indexing (cost grows as
    dim^4)."""
    mat = [[int(x) for x in row] for row in mat]
    dim = len(mat)
    coeffs = [0] * (dim + 1)
    coeffs[dim] = 1
    aux = [[0] * dim for _ in range(dim)]  # M_0 = 0
    for kk in range(1, dim + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I ; c_{n-k} = -tr(A M_k) / k
        for i in range(dim):
            aux[i][i] += coeffs[dim - kk + 1]
        prod = [
            [sum(mat[i][l] * aux[l][j] for l in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        tr = sum(prod[i][i] for i in range(dim))
        if tr % kk:
            raise ArithmeticError("non-integer trace step")
        coeffs[dim - kk] = -tr // kk
        aux = prod
    return ZPoly.from_dense(coeffs)
