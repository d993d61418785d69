"""Eigenvalue spectra and entropy statistics of transition matrices.

A k-bit linear generator advances its state with a 0/1 matrix B.  Seen
as a real matrix, B has k complex eigenvalues; the positive part of the
log-modulus sum (equivalently, minus the sum over the contracting ones
— the matrix has |det| = 1 in the invertible full-period case) measures
how fast state-space volume is stretched per step.  This module
computes full dense spectra, the entropy

    h = - sum over |lambda| < 1 of ln |lambda|,

as the ``entropy`` command's report dict, and the spectrum CSV.

The eigensolver is a standard dense nonsymmetric solve (balancing +
Hessenberg reduction + shifted QR), LAPACK's ``dgeev`` through
``numpy.linalg.eigvals``; the tests check it on small matrices with
known spectra.  numpy always solves a copy of its input, so a solve
holds two k-square float64 matrices (16 MB at k = 1024).

The last digits of the eigenvalues, so of h and of the spectrum CSV,
depend on OpenBLAS's thread count; ``OPENBLAS_NUM_THREADS=1``, the
benchmark's setting, reproduces them, and the run manifest records the
setting as ``openblas_threads``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .bitlinalg import SparseBitMatrix

#: The ``entropy`` command refuses eigensolves above this dimension
#: unless ``--extended`` is given (dense O(k^3) work: 19937 takes hours).
DEFAULT_EIGEN_CAP = 4096

#: Moduli at or below this are treated as numerically singular.
SINGULAR_MODULUS = 1e-12

#: Half-width of the exclusion band around modulus 1: eigenvalues with
#: |lambda| >= 1 - BOUNDARY_TOL do not count as contracting.
BOUNDARY_TOL = 1e-12


class SingularSpectrumError(ValueError):
    """An eigenvalue modulus is ~0: the matrix is numerically singular.

    Full-period transition matrices are invertible, so this signals a
    broken matrix (extraction or assembly bug), not a property of the
    generator.
    """


@dataclass(frozen=True)
class Spectrum:
    """Full complex spectrum of a transition matrix."""

    eigenvalues: np.ndarray
    source: str = ""

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)


def to_real_matrix(mat: SparseBitMatrix) -> np.ndarray:
    """The 0/1 matrix as float64, column-major (LAPACK's layout, so the
    eigensolver's copy of it is a plain block copy): the nonzeros are
    scattered into a zeroed matrix."""
    out = np.zeros((mat.rows, mat.cols), dtype=np.float64, order="F")
    out[mat.row_index, mat.col_index] = 1.0
    return out


def eigenvalues(mat: SparseBitMatrix, source: str = "") -> Spectrum:
    """Full complex spectrum of a square 0/1 matrix, read as a real matrix.

    The dense solve is O(k^3) and holds two k-square float64 matrices;
    callers decide which dimensions are worth it (``entropy`` refuses
    k > ``DEFAULT_EIGEN_CAP`` without ``--extended``).
    """
    if mat.rows != mat.cols:
        raise ValueError("matrix must be square")
    vals = np.linalg.eigvals(to_real_matrix(mat)).astype(np.complex128, copy=False)
    spectrum = Spectrum(eigenvalues=vals, source=source)
    if spectrum.k and float(np.min(np.abs(vals))) <= SINGULAR_MODULUS:
        raise SingularSpectrumError(
            "eigenvalue modulus at or below 1e-12: matrix is numerically singular"
        )
    return spectrum


def entropy(spectrum: Spectrum, w: int, name: str | None = None) -> dict:
    """Entropy report: h = - sum of ln|lambda| over contracting eigenvalues.

    ``w`` is the generator's word size, used for the per-bit rate.  The
    report is the ``entropy`` command's payload, with the keys ``name``
    (default: the spectrum's source), ``k``, ``w``, ``h``, ``h_per_bit``,
    ``min_modulus`` and ``max_modulus`` in that order.  Eigenvalues within
    BOUNDARY_TOL of modulus 1 do not count as contracting.
    """
    if spectrum.k == 0:
        raise ValueError("spectrum is empty")
    if w < 1:
        raise ValueError("word size must be >= 1")
    moduli = spectrum.moduli()
    if float(np.min(moduli)) <= SINGULAR_MODULUS:
        raise SingularSpectrumError(
            "eigenvalue modulus at or below 1e-12: entropy diverges"
        )
    inside = moduli < 1.0 - BOUNDARY_TOL
    h = float(-np.sum(np.log(moduli[inside]))) if np.any(inside) else 0.0
    return {
        "name": name if name is not None else spectrum.source,
        "k": spectrum.k,
        "w": w,
        "h": h,
        "h_per_bit": h / w,
        "min_modulus": float(np.min(moduli)),
        "max_modulus": float(np.max(moduli)),
    }


# -- tabular views ----------------------------------------------------------


def spectrum_csv(spectrum: Spectrum, sink: TextIO) -> None:
    """CSV with one eigenvalue per row: re, im, modulus."""
    sink.write("re,im,modulus\n")
    vals = spectrum.eigenvalues
    moduli = np.abs(vals)
    for v, m in zip(vals, moduli):
        sink.write(f"{float(v.real)!r},{float(v.imag)!r},{float(m)!r}\n")
