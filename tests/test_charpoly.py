"""Integer characteristic polynomials of the block recurrence matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spectra.bitlinalg import extract_transition_matrix, transpose
from f2spectra.charpoly import (
    ORACLE_DIM_LIMIT,
    BlockSpec,
    ZPoly,
    assemble_block_matrix,
    binomial_power,
    brute_charpoly,
    mt_charpoly,
    phi_A,
    tgfsr_charpoly,
    twist_companion_matrix,
)

from _oracles import det_int, fl_charpoly, mt_step_matrix, packed
from _toys import TOY_MT8


# -- integer polynomials ------------------------------------------------------


def x_power(e: int) -> ZPoly:
    return ZPoly.from_dict({e: 1})


def evaluate(p: ZPoly, x: int) -> int:
    return sum(c * x**d for d, c in p.terms)


def to_dense(p: ZPoly) -> list[int]:
    """Coefficient list, lowest degree first (empty for the zero poly)."""
    out = [0] * (p.degree + 1)
    for d, c in p.terms:
        out[d] = c
    return out


def test_zpoly_basic_algebra():
    x = x_power(1)
    p = x * x - ZPoly.constant(2)  # x^2 - 2
    assert evaluate(p, 3) == 7
    assert p.coeff(2) == 1 and p.coeff(0) == -2 and p.coeff(1) == 0
    assert p.degree == 2
    assert p + (-p) == ZPoly()
    assert p.scale(3).coeff(0) == -6


def test_zpoly_pow_and_substitute():
    base = x_power(1) + ZPoly.constant(1)
    assert to_dense(base * base * base) == [1, 3, 3, 1]
    assert binomial_power(1, 0, 3, sign=+1) == base * base * base


def test_zpoly_dense_roundtrip_and_gf2():
    p = ZPoly.from_dense([5, 0, -3, 2])
    assert to_dense(p) == [5, 0, -3, 2]
    gf2 = p.to_gf2()
    assert [gf2.coeff(i) for i in range(4)] == [1, 0, 1, 0]


def test_binomial_power():
    # (x^4 - x)^3 = x^12 - 3x^9 + 3x^6 - x^3
    assert to_dense(binomial_power(4, 1, 3)) == [0, 0, 0, -1, 0, 0, 3, 0, 0, -3, 0, 0, 1]
    # plus-sign variant
    assert to_dense(binomial_power(2, 1, 2, sign=+1)) == [0, 0, 1, 2, 1]
    assert binomial_power(3, 2, 0) == ZPoly.constant(1)


# -- block specs and displayed matrices ---------------------------------------


def test_blockspec_validation():
    with pytest.raises(ValueError):
        BlockSpec(n=2, m=2, w=3, r=0, a=1)  # tap outside the ring
    with pytest.raises(ValueError):
        BlockSpec(n=3, m=1, w=3, r=3, a=1)  # no live bit in the oldest word
    with pytest.raises(ValueError):
        BlockSpec(n=3, m=1, w=3, r=0, a=8)  # twist constant too wide
    assert BlockSpec(n=3, m=1, w=3, r=2, a=5).dim == 7


def test_twist_companion_charpoly_is_phi_a():
    for w, a in ((1, 1), (3, 0b101), (4, 0b1001), (5, 0)):
        mat = twist_companion_matrix(a, w)
        assert brute_charpoly(mat) == phi_A(a, w)


def test_phi_a_examples():
    # w=3, a=0b101: x^3 - x^2 - 1  (top twist bit feeds the high coeff)
    assert to_dense(phi_A(0b101, 3)) == [-1, 0, -1, 1]
    assert phi_A(0, 4) == x_power(4)


def test_assembled_matrix_has_expected_shape_and_entries():
    spec = BlockSpec(n=3, m=1, w=3, r=1, a=0b110)
    mat = assemble_block_matrix(spec)
    assert len(mat) == spec.dim and all(len(row) == spec.dim for row in mat)
    flat = [entry for row in mat for entry in row]
    assert min(flat) >= 0 and max(flat) <= 2  # tap overlap may stack to 2


# -- closed forms against the exact oracle ------------------------------------


def test_tgfsr_form_exhaustive_small():
    for n in (2, 3, 4):
        for m in range(1, n):
            for w in (1, 2, 3):
                for a in range(1 << w):
                    spec = BlockSpec(n=n, m=m, w=w, r=0, a=a)
                    assert tgfsr_charpoly(n, m, phi_A(a, w)) == brute_charpoly(
                        assemble_block_matrix(spec)
                    )


def test_narrowed_form_exhaustive_tap_one():
    # m=1 makes the tap block straddle the narrowed row of the layout
    n, w = 4, 3
    for r in (1, 2):
        for m in (1, 2, 3):
            for a in range(1 << w):
                spec = BlockSpec(n=n, m=m, w=w, r=r, a=a)
                assert mt_charpoly(spec) == brute_charpoly(assemble_block_matrix(spec))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_narrowed_form_random_configs(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    w = rng.randint(2, 8)
    r = rng.randint(1, w - 1)
    n = rng.randint(2, (ORACLE_DIM_LIMIT - 16 + r) // w)
    m = rng.randint(1, n - 1)
    a = rng.randrange(1 << w)
    spec = BlockSpec(n=n, m=m, w=w, r=r, a=a)
    assert mt_charpoly(spec) == brute_charpoly(assemble_block_matrix(spec))


def test_r_zero_reduces_to_tgfsr_form():
    for a in (0, 0b101, 0b111):
        spec = BlockSpec(n=5, m=2, w=3, r=0, a=a)
        assert mt_charpoly(spec) == tgfsr_charpoly(5, 2, phi_A(a, 3))


def test_plus_sign_variant_agrees_only_mod_2():
    spec = BlockSpec(n=4, m=1, w=3, r=0, a=0b011)
    minus = tgfsr_charpoly(4, 1, phi_A(0b011, 3))
    plus = tgfsr_charpoly(4, 1, phi_A(0b011, 3), sign=+1)
    assert plus != minus
    assert plus.to_gf2() == minus.to_gf2()


def test_assembled_matrix_is_dynamics_transpose_mod_2():
    rng = random.Random(10)
    for _ in range(12):
        w = rng.randint(2, 6)
        r = rng.randint(0, w - 1)
        n = rng.randint(2, 6)
        m = rng.randint(1, n - 1)
        a = rng.randrange(1 << w)
        spec = BlockSpec(n=n, m=m, w=w, r=r, a=a)
        assembled_mod2 = np.array(assemble_block_matrix(spec), dtype=np.int64) % 2
        dynamics = transpose(mt_step_matrix(spec)).to_dense()
        assert assembled_mod2.tolist() == dynamics.tolist()


def test_step_matrix_drives_the_recurrence():
    # the dynamics matrix must agree with probing the actual generator
    spec = TOY_MT8
    block = BlockSpec(n=spec.n, m=spec.m, w=spec.w, r=spec.r, a=spec.a)
    assert mt_step_matrix(block) == packed(extract_transition_matrix(spec))


# -- exact determinant oracle --------------------------------------------------


def test_det_int_matches_fraction_elimination():
    rng = random.Random(11)
    for dim in (1, 2, 5, 8):
        mat = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
        work = [[Fraction(x) for x in row] for row in mat]
        det = Fraction(1)
        for col in range(dim):
            pivot = next((i for i in range(col, dim) if work[i][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det *= work[col][col]
            inv = 1 / work[col][col]
            for i in range(col + 1, dim):
                factor = work[i][col] * inv
                for j in range(col, dim):
                    work[i][j] -= factor * work[col][j]
        assert det.denominator == 1
        assert det_int(mat) == det.numerator


def test_brute_charpoly_known_cases():
    assert to_dense(brute_charpoly([[0, 1], [1, 0]])) == [-1, 0, 1]
    assert to_dense(brute_charpoly([[2]])) == [-2, 1]
    eye3 = [[int(i == j) for j in range(3)] for i in range(3)]
    assert to_dense(brute_charpoly(eye3)) == [-1, 3, -3, 1]


def test_brute_charpoly_agrees_with_fl():
    rng = random.Random(12)
    for dim in (2, 4, 7):
        mat = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        assert brute_charpoly(mat) == fl_charpoly(mat)
    for dim in (5, 9):  # mostly zeros: rows with no nonzero, or one
        mat = [[rng.choice((0, 0, 0, 0, 1, -2)) for _ in range(dim)] for _ in range(dim)]
        assert brute_charpoly(mat) == fl_charpoly(mat)


def test_brute_charpoly_matches_determinants_at_integer_points():
    rng = random.Random(13)
    for dim in (0, 1, 3, 6, 10):
        mat = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        poly = brute_charpoly(mat)
        assert poly.degree == dim
        for t in range(dim + 1):
            shifted = [[t * (i == j) - mat[i][j] for j in range(dim)] for i in range(dim)]
            assert evaluate(poly, t) == det_int(shifted)


def test_brute_charpoly_dimension_cap():
    dim = ORACLE_DIM_LIMIT + 1
    with pytest.raises(ValueError):
        brute_charpoly([[0] * dim for _ in range(dim)])


def test_charpoly_is_monic_of_full_degree():
    spec = BlockSpec(n=6, m=5, w=4, r=3, a=0b1010)
    poly = mt_charpoly(spec)
    assert poly.degree == spec.dim
    assert poly.coeff(spec.dim) == 1
