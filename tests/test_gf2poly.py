"""GF(2) polynomial arithmetic, Berlekamp-Massey, jump-ahead."""

from __future__ import annotations

import random

import numpy as np
import pytest
from _oracles import horner_apply
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spectra import get_spec, make_generator
from f2spectra.bitlinalg import BitVector
from f2spectra.cli import main
from f2spectra.gf2poly import (
    _FFT_THRESHOLD_BITS,
    GF2Poly,
    _Barrett,
    _fft_length,
    _mul_bits,
    _window_table,
    apply_transition_polynomial,
    berlekamp_massey,
    format_minpoly,
    jump_ahead,
    jump_polynomial,
    minimal_polynomial,
    output_bit_sequence,
    parse_minpoly,
)

N1_TABLE = {
    "mt19937": 135,
    "mt19937-64id1": 285,
    "mt19937-64id3": 5795,
    "well607b": 313,
    "well1024a": 407,
    "well19937a": 8585,
    "melg607": 313,
    "melg19937": 9603,
}


def _poly_from_int(bits: int) -> GF2Poly:
    return GF2Poly.from_degrees(i for i in range(bits.bit_length()) if (bits >> i) & 1)


# -- polynomial algebra -------------------------------------------------------


def test_constructors_and_coeffs():
    p = GF2Poly.from_degrees([0, 3, 5])
    assert p.degree == 5
    assert p.weight == 3
    assert [p.coeff(i) for i in range(6)] == [1, 0, 0, 1, 0, 1]
    assert GF2Poly.x_power(4).degree == 4
    assert not GF2Poly.from_degrees([])


def test_add_mul_are_gf2():
    a = GF2Poly.from_degrees([0, 1, 4])
    assert a + a == GF2Poly.from_degrees([])
    b = GF2Poly.from_degrees([1, 2])
    # (1+x+x^4)(x+x^2) = x + x^3 + x^5 + x^6
    assert a * b == GF2Poly.from_degrees([1, 3, 5, 6])


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=2**96 - 1),
    b=st.integers(min_value=1, max_value=2**96 - 1),
)
def test_divmod_identity(a, b):
    pa, pb = _poly_from_int(a), _poly_from_int(b)
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert (not r) or r.degree < pb.degree
    assert pa % pb == r and pa // pb == q


def test_square_and_pow_mod():
    rng = random.Random(9)
    mod = _poly_from_int(rng.getrandbits(40) | (1 << 40) | 1)
    p = _poly_from_int(rng.getrandbits(39) | 1)
    assert p.square() == p * p
    naive = GF2Poly.from_degrees([0])
    for _ in range(13):
        naive = (naive * p) % mod
    assert p.pow_mod(13, mod) == naive
    assert p.pow_mod(0, mod) == GF2Poly.from_degrees([0])


def _schoolbook_product(a: int, b: int) -> int:
    """a * b from slices of ``a`` short enough for the shift-XOR loop."""
    acc, offset = 0, 0
    while a:
        acc ^= _mul_bits(a & ((1 << _FFT_THRESHOLD_BITS) - 1), b) << offset
        a >>= _FFT_THRESHOLD_BITS
        offset += _FFT_THRESHOLD_BITS
    return acc


# Bit lengths on both sides of the FFT threshold, at the k = 19937 working
# size, and past 65536 bits.
_PRODUCT_SIZES = [
    1,
    _FFT_THRESHOLD_BITS - 1,
    _FFT_THRESHOLD_BITS,
    _FFT_THRESHOLD_BITS + 1,
    5000,
    19937,
    2 * 19937,
    70_000,
]


@settings(max_examples=30, deadline=None)
@given(
    la=st.sampled_from(_PRODUCT_SIZES),
    lb=st.sampled_from(_PRODUCT_SIZES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_product_equals_schoolbook(la, lb, seed):
    rng = random.Random(seed)
    a = rng.getrandbits(la) | (1 << (la - 1))
    b = rng.getrandbits(lb) | (1 << (lb - 1))
    assert _mul_bits(a, b) == _schoolbook_product(a, b)


def test_fft_length_is_the_smallest_smooth_size():
    smooth = sorted({f << e for f in (1, 3, 5) for e in range(20)})
    for n in list(range(1, 3000)) + [2 * 19937, 140_000]:
        assert _fft_length(n) == next(m for m in smooth if m >= n)
    assert _fft_length(2 * 19937) == 40960


def test_barrett_reduce_matches_long_division_at_full_degree(monkeypatch):
    mod = minimal_polynomial(get_spec("mt19937"))
    d = mod.degree
    ctx = _Barrett(mod)
    lengths: list[int] = []
    exact = np.fft.irfft

    def recording(spectrum, n, *args, **kw):
        lengths.append(n)
        return exact(spectrum, n, *args, **kw)

    monkeypatch.setattr(np.fft, "irfft", recording)
    ctx.reduce(GF2Poly(random.Random(2).getrandbits(2 * d)))
    # the quotient product needs its high half unwrapped; the remainder
    # product only its low d coefficients
    assert lengths == [_fft_length(2 * d), _fft_length(d + 1)]
    assert _fft_length(d + 1) < _fft_length(2 * d)
    rng = random.Random(19937)
    samples = [rng.getrandbits(2 * d) for _ in range(3)]
    samples += [
        rng.getrandbits(d + _FFT_THRESHOLD_BITS // 2),  # short quotient: schoolbook
        rng.getrandbits(3 * d),  # beyond the cached transforms: long division
        mod.bits,
        1,
    ]
    for bits in samples:
        p = GF2Poly(bits)
        assert ctx.reduce(p) == p % mod


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=_FFT_THRESHOLD_BITS + 1, max_value=1100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_barrett_reduce_matches_long_division_just_above_the_fft_threshold(d, seed):
    rng = random.Random(seed)
    mod = GF2Poly(1 << d | rng.getrandbits(d) | 1)
    ctx = _Barrett(mod)
    assert ctx.n  # both products run on the FFT
    for bits in (rng.getrandbits(2 * d), rng.getrandbits(2 * d - 1) | 1 << (2 * d - 2)):
        p = GF2Poly(bits)
        assert ctx.reduce(p) == p % mod


def _skewed_irfft(monkeypatch):
    exact = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: exact(*args, **kw) + 0.3)


def test_rounding_guard_rejects_an_inexact_product(monkeypatch):
    _skewed_irfft(monkeypatch)
    with pytest.raises(ArithmeticError, match="rounding residual"):
        _mul_bits((1 << 5000) - 1, (1 << 3000) - 1)


def test_rounding_guard_checks_the_half_length_product(monkeypatch):
    mod = minimal_polynomial(get_spec("mt19937"))
    d = mod.degree
    ctx = _Barrett(mod)
    exact = np.fft.irfft
    half = _fft_length(d + 1)

    def skew_half_length(spectrum, n, *args, **kw):
        out = exact(spectrum, n, *args, **kw)
        return out + 0.3 if n == half else out

    monkeypatch.setattr(np.fft, "irfft", skew_half_length)
    with pytest.raises(ArithmeticError, match=f"length {half} is not exact"):
        ctx.reduce(GF2Poly(random.Random(3).getrandbits(2 * d)))


def test_rounding_guard_failure_is_an_error_line(monkeypatch, capsys):
    _skewed_irfft(monkeypatch)
    code = main(["jump", "--spec", "mt19937", "--steps", str(2**64 - 1)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: FFT product") and "rounding residual" in captured.err


def test_reciprocal():
    p = GF2Poly.from_degrees([0, 2, 5])
    assert p.reciprocal() == GF2Poly.from_degrees([5, 3, 0])
    assert p.reciprocal().reciprocal() == p


def test_hex_roundtrip():
    p = GF2Poly.from_degrees([0, 1, 64, 129])
    assert GF2Poly.from_hex(p.to_hex()) == p


# -- Berlekamp-Massey ---------------------------------------------------------


def test_bm_recovers_short_lfsr():
    # s[n] = s[n-3] ^ s[n-4], seeded 1,0,0,0 -> maximal 15-periodic sequence
    seq = [1, 0, 0, 0]
    for n in range(4, 60):
        seq.append(seq[n - 3] ^ seq[n - 4])
    packed = sum(bit << i for i, bit in enumerate(seq))
    conn = berlekamp_massey(packed, len(seq))
    assert conn.degree == 4
    assert conn.coeff(0) == 1
    # the reciprocal annihilates the sequence at every offset
    annihilator = conn.reciprocal()
    taps = [i for i in range(5) if annihilator.coeff(i)]
    for t in range(0, 40):
        assert sum(seq[t + i] for i in taps) % 2 == 0


def test_bm_handles_all_zero_prefix():
    # the zero sequence needs no taps: the connection polynomial is 1
    assert berlekamp_massey(0, 32) == GF2Poly.from_degrees([0])


@pytest.mark.parametrize("name", ["well607b", "melg607"])
def test_minimal_polynomial_fresh_equals_bundled(name):
    spec = get_spec(name)
    bundled = minimal_polynomial(spec)
    fresh = minimal_polynomial(spec, seed=12346)  # the bundled files serve seed 12345 only
    assert bundled == fresh
    assert fresh.degree == spec.k
    assert fresh.weight == N1_TABLE[name]


@pytest.mark.parametrize("name", ["well1024a", "melg607"])
def test_minimal_polynomial_annihilates_lsb_stream(name):
    spec = get_spec(name)
    poly = minimal_polynomial(spec)
    nbits = spec.k + poly.degree + 50
    packed = output_bit_sequence(spec, nbits, seed=2021)
    seq = [(packed >> i) & 1 for i in range(nbits)]
    taps = [i for i in range(poly.degree + 1) if poly.coeff(i)]
    for t in range(0, nbits - poly.degree, 97):
        assert sum(seq[t + i] for i in taps) % 2 == 0


def test_minpoly_file_roundtrip(tmp_path):
    spec = get_spec("well607b")
    poly = minimal_polynomial(spec)
    text = format_minpoly(spec.name, 12345, poly)
    header, parsed = parse_minpoly(text)
    assert parsed == poly
    assert header["generator"] == spec.name
    assert header["seed"] == 12345


def test_minpoly_file_roundtrip_of_the_widest_seeds():
    # a seed is a w-bit word, so the header holds at most 20 decimal digits
    poly = minimal_polynomial(get_spec("well607b"))
    for seed in (0, 2**32 - 1, 2**64 - 1):
        text = format_minpoly("well607b", seed, poly)
        assert f" seed={seed} " in text
        header, parsed = parse_minpoly(text)
        assert header["seed"] == seed and parsed == poly


# -- jump-ahead ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["well607b", "melg607"])
@pytest.mark.parametrize("steps", [0, 1, 2, 607, 12345])
def test_jump_matches_stepping(name, steps):
    spec = get_spec(name)
    jumper = make_generator(spec, seed=31)
    walker = make_generator(spec, seed=31)
    jump_ahead(jumper, steps)
    for _ in range(steps):
        walker.next_word()
    assert [jumper.next_word() for _ in range(5)] == [walker.next_word() for _ in range(5)]


def test_jump_is_additive_far_beyond_stepping_range():
    spec = get_spec("well1024a")
    a = make_generator(spec, seed=8)
    b = make_generator(spec, seed=8)
    jump_ahead(a, 2**97 + 11)
    jump_ahead(a, 2**40 + 3)
    jump_ahead(b, 2**97 + 2**40 + 14)
    assert a.state_vector() == b.state_vector()


def test_jump_is_additive_at_full_k():
    spec = get_spec("mt19937")
    rng = random.Random(64)
    a, b = rng.getrandbits(64) | 1 << 63, rng.getrandbits(64) | 1 << 63
    twice = make_generator(spec, seed=5)
    once = make_generator(spec, seed=5)
    jump_ahead(twice, a)
    jump_ahead(twice, b)
    jump_ahead(once, a + b)
    assert twice.state_vector() == once.state_vector()


def test_jump_matches_stepping_just_above_k():
    # one generator per family: WELL writes two words per step, MELG has a lung
    for name in ["mt19937", "well19937a", "melg19937"]:
        spec = get_spec(name)
        steps = spec.k + 3
        jumper = make_generator(spec, seed=21)
        walker = make_generator(spec, seed=21)
        jump_ahead(jumper, steps)
        for _ in range(steps):
            walker.step()
        assert jumper.state_vector() == walker.state_vector(), name


def test_jump_polynomial_reduces_mod_minpoly():
    spec = get_spec("well607b")
    poly = jump_polynomial(spec, 2**80)
    assert poly.degree < spec.k


def _window_width(gen, degree: int) -> int:
    return len(_window_table(gen, degree)).bit_length() - 1


def _apply_cases(spec, gen) -> list[GF2Poly]:
    """0, 1, t, degrees around the full-size window width q, a top window
    of one coefficient and a full one, windows that are all zero between
    the top and the bottom ones, and a random polynomial of degree k - 1.

    Only the last is dense at full degree: the oracle's cost grows with
    the weight.
    """
    k = spec.k
    q = _window_width(gen, k - 1)
    rng = random.Random(k)
    top = k - 1 - (k - 1) % q  # a multiple of q: its window holds one coefficient
    degrees = [q - 1, q, q + 1, top, top - 1]
    cases = [0, 1, 2] + [1 << e | rng.getrandbits(min(e, 3 * q)) for e in degrees]
    cases.append(1 << (k - 1) | rng.getrandbits(q))
    cases.append(rng.getrandbits(k - 1) | 1 << (k - 1))
    return [GF2Poly(bits) for bits in cases]


def _stepped(spec):
    gen = make_generator(spec, seed=17)
    for _ in range(3):  # a non-zero cursor, and a lung that has moved
        gen.step()
    return gen


@pytest.mark.parametrize("name", sorted(N1_TABLE))
def test_window_apply_matches_horner_oracle(name):
    spec = get_spec(name)
    assert _stepped(spec).cursor != 0
    for poly in _apply_cases(spec, _stepped(spec)):
        fast, slow = _stepped(spec), _stepped(spec)
        apply_transition_polynomial(fast, poly)
        horner_apply(slow, poly)
        assert fast.get_raw_state() == slow.get_raw_state(), poly


def test_window_width_follows_the_degree():
    gen = make_generator(get_spec("mt19937"), seed=1)
    assert _window_width(gen, -1) == 1
    assert _window_width(gen, 0) == 1
    widths = [_window_width(gen, e) for e in (10, 100, 1000, 19936)]
    assert widths == sorted(widths) and widths[-1] == 9
    assert _window_table(gen, 19936).nbytes < 1.5e6


def test_apply_polynomial_x_is_one_step():
    spec = get_spec("melg607")
    gen = make_generator(spec, seed=77)
    twin = make_generator(spec, seed=77)
    apply_transition_polynomial(gen, GF2Poly.x_power(1))
    twin.step()
    assert gen.state_vector() == twin.state_vector()


# -- backward jumps -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(N1_TABLE))
@pytest.mark.parametrize("offset", [1, "k+3"])
def test_backward_jump_then_stepping_returns(name, offset):
    spec = get_spec(name)
    d = spec.k + 3 if offset == "k+3" else offset
    gen = make_generator(spec, seed=41)
    start = gen.state_vector()
    jump_ahead(gen, -d)
    assert gen.state_vector() != start
    for _ in range(d):
        gen.step()
    assert gen.state_vector() == start


def test_backward_jump_undoes_a_forward_jump_at_full_k():
    spec = get_spec("mt19937")
    a = random.Random(65).getrandbits(64) | 1 << 63
    gen = make_generator(spec, seed=6)
    start = gen.state_vector()
    jump_ahead(gen, -a)
    jump_ahead(gen, a)
    assert gen.state_vector() == start


def test_backward_jump_reaches_the_unit_corner():
    spec = get_spec("well607b")
    d = 120
    gen = make_generator(spec)
    gen.set_state_vector(BitVector.unit(spec.k, 0))
    jump_ahead(gen, -d)
    for _ in range(d):
        gen.step()
    assert gen.state_vector() == BitVector.unit(spec.k, 0)
