"""Real eigenvalue spectra and the contraction-entropy report."""

from __future__ import annotations

import io
import json
import math
import random

import numpy as np
import pytest

from f2spectra import get_spec
from f2spectra.bitlinalg import BitMatrix, SparseBitMatrix, extract_transition_matrix
from f2spectra.spectral import (
    BOUNDARY_TOL,
    SingularSpectrumError,
    Spectrum,
    entropy,
    eigenvalues,
    spectrum_csv,
    to_real_matrix,
)

from _oracles import dense_transition_matrix, sparse


def _random_bitmatrix(dim: int, seed: int) -> BitMatrix:
    rng = random.Random(seed)
    return BitMatrix.from_int_rows((rng.getrandbits(dim) for _ in range(dim)), dim)


def _identity(dim: int) -> SparseBitMatrix:
    return SparseBitMatrix(dim, dim, np.arange(dim), np.arange(dim))


# -- dense conversion ----------------------------------------------------------


def test_to_real_matrix_roundtrip():
    m = _random_bitmatrix(70, 13)
    dense = to_real_matrix(sparse(m.to_dense()))
    assert dense.dtype == np.float64
    assert dense.flags["F_CONTIGUOUS"]
    assert dense.astype(np.uint8).tolist() == m.to_dense().tolist()


@pytest.mark.parametrize("name", ["well607b", "well1024a", "melg607"])
def test_to_real_matrix_matches_dense_oracle(name):
    spec = get_spec(name)
    real = to_real_matrix(extract_transition_matrix(spec))
    assert np.array_equal(real, dense_transition_matrix(spec).to_dense().astype(np.float64))


# -- eigensolves ----------------------------------------------------------------


def test_swap_matrix_spectrum():
    spec = eigenvalues(sparse([[0, 1], [1, 0]]), source="swap")
    assert sorted(v.real for v in spec.eigenvalues) == pytest.approx([-1.0, 1.0])
    assert spec.source == "swap" and spec.k == 2


def test_golden_ratio_entropy():
    # [[1,1],[1,0]] contracts along one direction at rate 1/phi
    spec = eigenvalues(sparse([[1, 1], [1, 0]]))
    report = entropy(spec, w=2)
    golden = (1 + math.sqrt(5)) / 2
    assert report["h"] == pytest.approx(math.log(golden), abs=1e-12)
    assert report["h_per_bit"] == pytest.approx(math.log(golden) / 2, abs=1e-12)
    assert report["min_modulus"] == pytest.approx(1 / golden, abs=1e-12)
    assert report["max_modulus"] == pytest.approx(golden, abs=1e-12)


def test_identity_has_zero_entropy_and_empty_tails():
    report = entropy(eigenvalues(_identity(8)), w=1)
    assert report["h"] == 0.0
    assert report["min_modulus"] == pytest.approx(1.0)
    assert report["max_modulus"] == pytest.approx(1.0)


def test_singular_matrix_is_rejected():
    with pytest.raises(SingularSpectrumError):
        eigenvalues(SparseBitMatrix(3, 3, [], []))


# -- report ----------------------------------------------------------------------


def test_entropy_resolves_word_size_from_known_source():
    gen_spec = get_spec("well607b")
    spec = eigenvalues(extract_transition_matrix(gen_spec), source="well607b")
    report = entropy(spec, w=gen_spec.w)
    assert report["name"] == "well607b"
    assert report["w"] == 32
    assert report["k"] == 607
    assert report["h"] == pytest.approx(report["h_per_bit"] * 32, rel=1e-12)


def test_entropy_json_fields():
    report = entropy(eigenvalues(_identity(4)), w=2, name="eye")
    assert list(report) == ["name", "k", "w", "h", "h_per_bit", "min_modulus", "max_modulus"]
    assert report["name"] == "eye" and report["k"] == 4 and report["w"] == 2
    assert json.loads(json.dumps(report)) == report


def test_entropy_boundary_band_is_excluded():
    values = np.array([1.0 - BOUNDARY_TOL / 2, 1.0 + BOUNDARY_TOL / 2, 0.5, 2.0])
    spec = Spectrum(eigenvalues=values.astype(np.complex128), source="")
    report = entropy(spec, w=1)
    # ln(1 - BOUNDARY_TOL / 2) would move h by 5e-13, 7e-13 of it
    assert report["h"] == pytest.approx(-math.log(0.5), rel=1e-15)


# -- tabular output ---------------------------------------------------------------


def test_spectrum_csv_parses_back():
    spec = eigenvalues(sparse(_random_bitmatrix(10, 9).to_dense()))
    sink = io.StringIO()
    spectrum_csv(spec, sink)
    lines = sink.getvalue().strip().split("\n")
    assert lines[0] == "re,im,modulus"
    assert len(lines) == 11
    re, im, mod = map(float, lines[1].split(","))
    assert mod == pytest.approx(math.hypot(re, im), rel=1e-12)
