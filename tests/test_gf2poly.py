"""GF(2) polynomial arithmetic, Berlekamp-Massey, jump-ahead."""

from __future__ import annotations

import operator
import random
from itertools import cycle

import numpy as np
import pytest
from _oracles import berlekamp_massey_prefix, horner_apply, square
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2spectra import get_spec, gf2poly, make_generator
from f2spectra.bitlinalg import BitVector
from f2spectra.cli import main
from f2spectra.generators.melg import Melg
from f2spectra.generators.mt import Mt
from f2spectra.gf2poly import (
    _BM_WINDOW,
    _FFT_THRESHOLD_BITS,
    GF2Poly,
    _Barrett,
    _barrett_quotient,
    _exponents,
    _fft_length,
    _mul_bits,
    _product_bits,
    _shift_plan,
    _shifted_sum,
    _spectrum,
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
#: The paper-size generators (k = 19937).
BIG = ("mt19937", "mt19937-64id1", "mt19937-64id3", "well19937a", "melg19937")
#: The ``_Barrett`` engine each bundled minimal polynomial takes.
ENGINES = {
    "mt19937": "shift",
    "mt19937-64id1": "shift",
    "mt19937-64id3": "spectra",
    "well607b": "shift",
    "well1024a": "shift",
    "well19937a": "spectra",
    "melg607": "shift",
    "melg19937": "spectra",
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
    assert square(p) == p * p
    naive = GF2Poly.from_degrees([0])
    for _ in range(13):
        naive = (naive * p) % mod
    assert p.pow_mod(13, mod) == naive
    assert p.pow_mod(0, mod) == GF2Poly.from_degrees([0])


def _schoolbook_product(a: int, b: int) -> int:
    """a * b by a shift-XOR loop of its own: a shifted to each set bit of
    the shorter b, found as b & -b, with no transform and no library call."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
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
    ones=st.just(False),
)
# All-ones operands fill the packed fields the most: 2^15 - 2 coefficients
# is the longest shorter operand that packs, and from 2^15 - 1 on a 15-bit
# field would overflow without a trace in the rounding residual.
@example(la=2**15 - 2, lb=2**15 - 2, seed=0, ones=True)
@example(la=2**15 - 1, lb=2**15 - 1, seed=0, ones=True)
@example(la=2**15 + 1, lb=2**15 + 1, seed=0, ones=True)
@example(la=65_536, lb=65_536, seed=0, ones=True)
@example(la=70_000, lb=70_000, seed=0, ones=True)
def test_fft_product_equals_schoolbook(la, lb, seed, ones):
    rng = random.Random(seed)
    a = (1 << la) - 1 if ones else rng.getrandbits(la) | (1 << (la - 1))
    b = (1 << lb) - 1 if ones else rng.getrandbits(lb) | (1 << (lb - 1))
    assert _mul_bits(a, b) == _schoolbook_product(a, b)


def test_packed_product_checks_its_field_width():
    spectrum = np.fft.rfft(np.zeros(16))
    assert not _product_bits(spectrum, 16, 2**15 - 2).any()
    with pytest.raises(ArithmeticError, match="overflows its 15-bit fields"):
        _product_bits(spectrum, 16, 2**15 - 1)


def test_product_bits_decodes_any_range_of_coefficients():
    # The product wraps (5499 coefficients modulo t^3072 - 1), so the top
    # element's high field feeds coefficient 0.  A range reads only the
    # elements its coefficients need, the previous one's high field too.
    rng = random.Random(2)
    a, b = rng.getrandbits(3000) | 1 << 2999, rng.getrandbits(2500) | 1 << 2499
    n = 1536
    size = 2 * n
    product = _schoolbook_product(a, b)
    cyclic = (product ^ product >> size) & ((1 << size) - 1)
    spectrum = _spectrum(a, n) * _spectrum(b, n)
    full = _product_bits(spectrum, n, 2500)
    assert full.tolist() == [cyclic >> i & 1 for i in range(size)]
    for start, stop in [(0, 1), (0, 2), (1, 2), (2, 3), (0, 2001), (1, 2000),
                        (1000, 2999), (1001, 3000), (2998, size), (size - 1, size)]:
        part = _product_bits(spectrum, n, 2500, start, stop)
        assert part.tolist() == full[start:stop].tolist(), (start, stop)


def test_fft_length_is_the_smallest_smooth_size():
    smooth = sorted({f << e for f in (1, 3, 5) for e in range(20)})
    for n in list(range(1, 3000)) + [2 * 19937, 140_000]:
        assert _fft_length(n) == next(m for m in smooth if m >= n)
    assert _fft_length(2 * 19937) == 40960


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=_FFT_THRESHOLD_BITS + 1, max_value=1100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_barrett_reduce_matches_long_division_just_above_the_fft_threshold(d, seed):
    rng = random.Random(seed)
    mod = GF2Poly(1 << d | rng.getrandbits(d) | 1)
    ctx = _Barrett(mod)
    assert ctx.engine == "spectra"  # a random modulus is dense
    for x in (rng.getrandbits(d), rng.getrandbits(d - 1) | 1 << (d - 1)):
        assert GF2Poly(ctx.square(x)) == square(GF2Poly(x)) % mod


def _pow_mod_oracle(base: GF2Poly, e: int, mod: GF2Poly) -> GF2Poly:
    """Square-and-multiply with every reduction by long division, and every
    product by ``_schoolbook_product``."""
    result = GF2Poly(1) % mod
    for ch in format(e, "b"):
        result = square(result) % mod
        if ch == "1":
            result = GF2Poly(_schoolbook_product(result.bits, base.bits)) % mod
    return result


def _fft_calls(monkeypatch) -> list[str]:
    """Names of every forward and inverse real FFT from now on."""
    calls: list[str] = []
    for name in ("rfft", "irfft"):
        exact = getattr(np.fft, name)

        def recording(*args, _name=name, _exact=exact, **kw):
            calls.append(_name)
            return _exact(*args, **kw)

        monkeypatch.setattr(np.fft, name, recording)
    return calls


def test_sparse_barrett_makes_no_fft_call_and_matches_long_division(monkeypatch):
    # mt19937's q and modulus have weights 161 and 135, and every modulus
    # up to the FFT threshold takes shifts whatever its weights: both
    # products are shift-XOR loops over their set bits
    cases = []
    for name in ("mt19937", "well607b", "well1024a", "melg607"):
        mod = minimal_polynomial(get_spec(name))
        rng = random.Random(name)
        d = mod.degree
        squares = [rng.getrandbits(d) for _ in range(3)] + [(1 << d) - 1, 1 << (d // 2), 1]
        cases.append((name, mod, squares, [square(GF2Poly(x)) % mod for x in squares]))
    calls = _fft_calls(monkeypatch)
    for name, mod, squares, expect_squares in cases:
        ctx = _Barrett(mod)
        assert ctx.engine == "shift", name
        assert [GF2Poly(ctx.square(x)) for x in squares] == expect_squares, name
        assert GF2Poly(2).pow_mod(random.Random(5).getrandbits(64), mod).degree < mod.degree
    assert calls == []


def test_barrett_plans_no_shifts_up_to_the_fft_threshold(monkeypatch):
    # A plan costs more to build than the few squares of a small-k jump
    # save, so up to the threshold q's and the modulus's exponents stay
    # plain lists; just above it a sparse modulus is planned.
    def refuse(shifts):
        raise AssertionError(f"planned {len(shifts)} shifts")

    monkeypatch.setattr(gf2poly, "_shift_plan", refuse)
    rng = random.Random(_FFT_THRESHOLD_BITS)
    d = _FFT_THRESHOLD_BITS
    mods = [minimal_polynomial(get_spec(name)) for name in ("well607b", "well1024a", "melg607")]
    mods += [GF2Poly.from_degrees([d, 1, 0]), GF2Poly(1 << d | rng.getrandbits(d) | 1)]
    for mod in mods:
        ctx = _Barrett(mod)
        assert ctx.engine == "shift"
        assert ctx.operands == ([mod.degree - e for e in _exponents(ctx.q)], _exponents(mod.bits))
        x = rng.getrandbits(mod.degree)
        assert GF2Poly(ctx.square(x)) == square(GF2Poly(x)) % mod
    with pytest.raises(AssertionError, match="planned"):
        _Barrett(GF2Poly.from_degrees([d + 1, 1, 0]))


def _plan_shifts(plan) -> int:
    """Shifts a ``_shift_plan`` takes: one per leaf entry and per pairing."""
    if isinstance(plan, list):
        return len(plan)
    _, pairs, rest = plan
    return 1 + _plan_shifts(pairs) + _plan_shifts(rest)


@settings(max_examples=60, deadline=None)
@given(
    scattered=st.lists(st.integers(min_value=0, max_value=3000), max_size=40),
    start=st.integers(min_value=0, max_value=3000),
    step=st.integers(min_value=1, max_value=500),
    run=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shift_plan_xors_each_shift_once(scattered, start, step, run, seed):
    # an arithmetic run gives the plan pairs to find, scattered shifts break them up
    shifts = sorted(set(scattered) | {start + i * step for i in range(run)})
    plan = _shift_plan(shifts)
    y = random.Random(seed).getrandbits(4000)
    for shift in (operator.rshift, operator.lshift):
        expect = 0
        for x in shifts:
            expect ^= shift(y, x)
        assert _shifted_sum(y, plan, shift) == expect
    assert _plan_shifts(plan) <= len(shifts)
    if run >= 4 and not scattered:
        assert _plan_shifts(plan) < len(shifts)


def test_sparse_barrett_operands_take_fewer_shifts_than_set_bits():
    # the shift plans pay only through structure the bundled operands have
    for name in ("mt19937", "mt19937-64id1"):
        mod = minimal_polynomial(get_spec(name))
        ctx = _Barrett(mod)
        q_plan, mod_plan = ctx.operands
        assert _plan_shifts(q_plan) < ctx.q.bit_count() / 2, name
        assert _plan_shifts(mod_plan) < mod.weight / 2, name


def _sparse_quotient_modulus(d: int) -> GF2Poly:
    """A dense modulus with p(0) = 1 whose q = t^(2d) // p is sparse.

    q = t^(2d) // p and p = t^(2d) // q determine each other (each is the
    reversed inverse power series of the other), so q is chosen first."""
    return GF2Poly.x_power(2 * d) // GF2Poly.from_degrees([d, d - 1, 2, 0])


# (modulus, its engine), at odd and even degree: only a modulus whose q
# and itself are both sparse takes shifts
_PAIRINGS = {
    "sparse q, sparse modulus": (GF2Poly.from_degrees([3001, 2401, 0]), "shift"),
    "sparse q, dense modulus": (_sparse_quotient_modulus(3000), "spectra"),
    "dense q, sparse modulus": (GF2Poly.from_degrees([3001, 3000, 0]), "spectra"),
    "dense q, dense modulus": (GF2Poly(1 << 3000 | random.Random(3000).getrandbits(3000) | 1),
                               "spectra"),
}


@pytest.mark.parametrize("mod,engine", _PAIRINGS.values(), ids=_PAIRINGS.keys())
def test_pow_mod_matches_the_oracle_on_each_pairing_of_engines(mod, engine):
    d = mod.degree
    ctx = _Barrett(mod)
    assert ctx.engine == engine
    assert ctx.q == (GF2Poly.x_power(2 * d) // mod).bits
    rng = random.Random(d)
    # t^e's last square first crosses degree d at e = d + 1 (odd d) or d (even d)
    exponents = [*range(d - 2, d + 3), 2 * d - 1, 2 * d, 2 * d + 1, rng.getrandbits(40)]
    bases = [GF2Poly(2), GF2Poly(rng.getrandbits(d) | 1 << (d - 1))]
    if mod.bits & 1:
        bases.append(GF2Poly(mod.bits >> 1))  # t^-1
    for base in bases:
        for e in exponents:
            assert base.pow_mod(e, mod) == _pow_mod_oracle(base, e, mod), (base, e)


@pytest.mark.parametrize("d", [2600, 2601, 2**15 - 2, 2**15 - 1])
def test_half_length_square_matches_long_division_on_random_moduli(d):
    # delta = 2 ceil(d/2) - d is 0 at even d and 1 at odd d; from 2^15 - 1
    # on, the packed fields could overflow, and the shift engine runs on
    # plain exponent lists
    rng = random.Random(d)
    mod = GF2Poly(1 << d | rng.getrandbits(d) | 1)
    ctx = _Barrett(mod)
    assert ctx.engine == ("spectra" if d < 2**15 - 1 else "shift")
    assert ctx.q == (GF2Poly.x_power(2 * d) // mod).bits  # Newton's iteration
    half = (d + 1) // 2
    squares = [rng.getrandbits(d) for _ in range(4)]
    squares += [1 << (half - 1), 1 << half, (1 << half) - 1, (1 << d) - 1, 1 << (d - 1), 1, 0]
    for x in squares:
        assert GF2Poly(ctx.square(x)) == square(GF2Poly(x)) % mod, x.bit_length()


@pytest.mark.parametrize("name", ENGINES)
def test_chained_squares_match_long_division_on_the_dense_moduli(name):
    # Each bundled modulus takes the engine its weights pick, so a moved
    # threshold cannot move a generator onto another path unseen.  On the
    # spectra, each square decodes only the quotient coefficients it
    # keeps, packs them into the remainder's transform without a round
    # trip through an int, and feeds the next square, as in pow_mod.
    mod = minimal_polynomial(get_spec(name))
    ctx = _Barrett(mod)
    assert ctx.engine == ENGINES[name]
    x = random.Random(name).getrandbits(mod.degree)
    for i in range(60):
        y = ctx.square(x)
        assert GF2Poly(y) == square(GF2Poly(x)) % mod, i
        x = y


@pytest.mark.parametrize("name", BIG)
def test_pow_mod_matches_square_and_multiply_at_full_k(name):
    mod = minimal_polynomial(get_spec(name))
    e = random.Random(name).getrandbits(40) | 1 << 39
    forward = GF2Poly(2).pow_mod(e, mod)
    assert forward == _pow_mod_oracle(GF2Poly(2), e, mod)
    backward = GF2Poly(mod.bits >> 1).pow_mod(e, mod)
    assert (forward * backward) % mod == GF2Poly(1)
    assert _barrett_quotient(mod) == (GF2Poly.x_power(2 * mod.degree) // mod).bits


def test_backward_jump_costs_a_forward_jump_but_its_free_squares(monkeypatch):
    # well19937a's q and modulus are dense: each reduced square makes the
    # same FFT products, and a set bit of the count makes none, in either
    # direction.  Only a forward jump squares t^j for free while 2j < d;
    # a backward one squares only its starting 1 for free.
    spec = get_spec("well19937a")
    d = minimal_polynomial(spec).degree
    x = random.Random(6).getrandbits(d)
    calls = _fft_calls(monkeypatch)

    def products(steps: int) -> int:
        """FFT products (inverse transforms) of one jump polynomial."""
        calls.clear()
        jump_polynomial(spec, steps)
        return calls.count("irfft")

    ctx = _Barrett(minimal_polynomial(spec))
    calls.clear()
    ctx.square(x)
    per_square = calls.count("irfft")
    rng = random.Random(64)
    s = 1 << 63 | sum(1 << b for b in rng.sample(range(63), 31))
    forward, backward = products(s), products(-s)
    few_bits = s >> 50 << 50  # the same squares, 27 fewer set bits
    assert products(few_bits) == forward and products(-few_bits) == backward
    free = sum(2 * (s >> k) < d for k in range(1, 65))  # squares of t^(s >> k)
    assert free == 15
    assert backward - forward == per_square * (free - 1)


def _skewed_irfft(monkeypatch):
    exact = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: exact(*args, **kw) + 0.3)


def test_rounding_guard_rejects_an_inexact_product(monkeypatch):
    _skewed_irfft(monkeypatch)
    with pytest.raises(ArithmeticError, match="rounding residual"):
        _mul_bits((1 << 5000) - 1, (1 << 3000) - 1)


def test_rounding_guard_checks_the_half_length_product(monkeypatch):
    mod = minimal_polynomial(get_spec("well19937a"))
    d = mod.degree
    ctx = _Barrett(mod)
    exact = np.fft.irfft
    half = _fft_length((d + 2) // 2)  # d + 1 coefficients, two to an element

    def skew_half_length(spectrum, n, *args, **kw):
        out = exact(spectrum, n, *args, **kw)
        return out + 0.3 if n == half else out

    monkeypatch.setattr(np.fft, "irfft", skew_half_length)
    with pytest.raises(ArithmeticError, match=f"length {half} is not exact"):
        ctx.square(random.Random(3).getrandbits(d))


def test_rounding_guard_failure_is_an_error_line(monkeypatch, capsys):
    _skewed_irfft(monkeypatch)
    code = main(["jump", "--spec", "well19937a", "--steps", str(2**64 - 1)])
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


def _lfsr_prefix(rng: random.Random, degree: int, nbits: int) -> int:
    """``nbits`` bits of a random LFSR of the given degree, from a random fill."""
    taps = rng.getrandbits(degree) | 1 << (degree - 1)  # bit i - 1 is c_i
    bits = rng.getrandbits(degree)
    recent = int(f"{bits:0{degree}b}"[::-1], 2)  # bit i - 1 is s_(j-i)
    for j in range(degree, nbits):
        s = (recent & taps).bit_count() & 1
        bits |= s << j
        recent = (recent << 1 | s) & ((1 << degree) - 1)
    return bits


_BM_RNG = random.Random(64)
_BM_CASES = {
    "empty": (_BM_RNG.getrandbits(8), 0),
    "one bit": (1, 1),
    "one zero bit": (0, 1),
    "all zero": (0, 300),
    "not a multiple of 64": (_BM_RNG.getrandbits(1000), 1000),
    "bits wider than nbits": (_BM_RNG.getrandbits(500), 333),
    # L jumps from 0 to 700 at the lone 1, which D_b = S meets 700 steps on
    "zeros then a one": (1 << 699, 1500),
    "zeros, a one, then noise": ((_BM_RNG.getrandbits(800) << 900) | (1 << 450), 1700),
    # L = 2 for 1000 steps, then jumps to 999: D_b's frame stays 1000 steps
    # behind t, across windows that hold no discrepancy
    "periodic prefix, then noise": (int("01" * 500, 2) | (_BM_RNG.getrandbits(500) << 1000), 1500),
    # the first window holds only zeros, twice over, before L jumps to 1201
    "zeros for over two windows, then a one": (1 << 1200, 2000),
    # the first discrepancy, a length change, is the top bit of the first
    # window; then the first bit after an empty window
    "a one on a window's last step, then noise": (
        (1 << (_BM_WINDOW - 1)) | (_BM_RNG.getrandbits(2 * _BM_WINDOW) << _BM_WINDOW),
        3 * _BM_WINDOW),
    "a one just past an empty window, then noise": (
        (1 << _BM_WINDOW) | (_BM_RNG.getrandbits(2 * _BM_WINDOW) << (_BM_WINDOW + 1)),
        3 * _BM_WINDOW),
    "nbits a window multiple": (_BM_RNG.getrandbits(2 * _BM_WINDOW), 2 * _BM_WINDOW),
    "nbits a window multiple - 1": (_BM_RNG.getrandbits(2 * _BM_WINDOW), 2 * _BM_WINDOW - 1),
    "nbits a window multiple + 1": (_BM_RNG.getrandbits(2 * _BM_WINDOW + 1), 2 * _BM_WINDOW + 1),
    "all ones": ((1 << 2000) - 1, 2000),
    "degree-300 LFSR prefix, then noise": (
        _lfsr_prefix(_BM_RNG, 300, 800) | (_BM_RNG.getrandbits(700) << 800), 1500),
}


@pytest.mark.parametrize("bits,nbits", _BM_CASES.values(), ids=_BM_CASES.keys())
def test_bm_matches_prefix_oracle(bits, nbits):
    assert berlekamp_massey(bits, nbits) == berlekamp_massey_prefix(bits, nbits)


def test_bm_matches_prefix_oracle_at_every_short_length():
    rng = random.Random(65)
    near_windows = [m * _BM_WINDOW + d for m in range(1, 5) for d in range(-2, 3)]
    for nbits in [*range(1, 140), *near_windows]:
        bits = rng.getrandbits(nbits)
        assert berlekamp_massey(bits, nbits) == berlekamp_massey_prefix(bits, nbits), nbits


@pytest.mark.parametrize("name", ["mt19937", "melg607"])
def test_output_bit_sequence_packs_the_low_bits(name):
    words = make_generator(name, 31).words(1000)
    assert output_bit_sequence(get_spec(name), 1000, seed=31) == sum(
        (word & 1) << i for i, word in enumerate(words))


@pytest.mark.parametrize("name", BIG)
def test_bm_matches_prefix_oracle_at_full_k(name):
    spec = get_spec(name)
    nbits = 2 * spec.k + 64
    bits = output_bit_sequence(spec, nbits, seed=404)
    conn = berlekamp_massey(bits, nbits)
    assert conn == berlekamp_massey_prefix(bits, nbits)
    assert conn.degree == spec.k


@pytest.mark.parametrize("name", sorted(N1_TABLE))
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
    walker.step(steps)
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
    rng = random.Random(64)
    for name in sorted(N1_TABLE):
        spec = get_spec(name)
        if spec.k != 19937:
            continue
        a, b = rng.getrandbits(64) | 1 << 63, rng.getrandbits(64) | 1 << 63
        twice = make_generator(spec, seed=5)
        once = make_generator(spec, seed=5)
        jump_ahead(twice, a)
        jump_ahead(twice, b)
        jump_ahead(once, a + b)
        assert twice.state_vector() == once.state_vector(), name


def test_jump_matches_stepping_just_above_k():
    # one generator per family: WELL writes two words per step, MELG has a lung
    for name in ["mt19937", "well19937a", "melg19937"]:
        spec = get_spec(name)
        steps = spec.k + 3
        jumper = make_generator(spec, seed=21)
        walker = make_generator(spec, seed=21)
        jump_ahead(jumper, steps)
        # the per-step loop on one list stream, not the block path the walk takes
        stream = walker.window + [0] * steps
        walker.lung = walker.rec.run(stream, steps, walker.lung)
        walker.window = stream[steps:]
        assert jumper.state_vector() == walker.state_vector(), name


def test_jump_polynomial_reduces_mod_minpoly():
    spec = get_spec("well607b")
    poly = jump_polynomial(spec, 2**80)
    assert poly.degree < spec.k


def _window_shape(gen, degree: int) -> tuple[int, int]:
    """(q, J) of the walk's table for a polynomial of ``degree``: J
    sub-tables of 2^q rows, W = q J coefficients per window."""
    subtables, rows, _ = _window_table(gen, degree).shape
    return rows.bit_length() - 1, subtables


def _apply_cases(spec, gen) -> list[GF2Poly]:
    """0, 1, t; degrees W - 1, W and W + 1 around the full-size window of
    W = q J coefficients; a top window of one coefficient and a full one,
    each over windows that are all zero down to a random bottom one; a
    window whose set coefficients all fall in one sub-table; and a random
    polynomial of degree k - 1.

    Only the last is dense at full degree: the oracle's cost grows with
    the weight.
    """
    k = spec.k
    q, subtables = _window_shape(gen, k - 1)
    width = q * subtables
    rng = random.Random(k)
    top = k - 1 - (k - 1) % width  # a multiple of W: its window holds one coefficient
    cases = [0, 1, 2] + [1 << e | rng.getrandbits(e) for e in (width - 1, width, width + 1)]
    cases += [1 << e | rng.getrandbits(width) for e in (top, top - 1)]
    one_subtable = (rng.getrandbits(q) | 1) << (width + 5 * q)  # window 1, sub-table 5 only
    cases.append(1 << (k - 1) | one_subtable)
    cases.append(rng.getrandbits(k - 1) | 1 << (k - 1))
    return [GF2Poly(bits) for bits in cases]


def _stepped(spec, lead=3):
    """A seeded generator stepped ``lead`` times; the lung has moved."""
    gen = make_generator(spec, seed=17)
    gen.step(lead)
    return gen


@pytest.mark.parametrize("name", sorted(N1_TABLE))
def test_window_apply_matches_horner_oracle(name):
    # The cases cycle through inputs 0, 1, n - 1 and n steps past seeding.
    spec = get_spec(name)
    leads = cycle((0, 1, spec.n - 1, spec.n))
    for poly in _apply_cases(spec, _stepped(spec)):
        lead = next(leads)
        fast, slow = _stepped(spec, lead), _stepped(spec, lead)
        apply_transition_polynomial(fast, poly)
        horner_apply(slow, poly)
        assert fast.get_raw_state() == slow.get_raw_state(), (lead, poly)


@pytest.mark.parametrize(
    "name", ["mt19937", "well607b", "well19937a", "melg607", "melg19937"]
)
def test_window_table_rows_are_shifted_window_polynomials(name):
    # row v of sub-table j is v(B) B^(q j) x0, up to the dead bits; the rows
    # come from one stream, where WELL's newest words and MELG's lungs are
    # not plain windows of it, on the per-step and the block path
    spec = get_spec(name)
    gen = _stepped(spec)
    table = _window_table(gen, spec.k - 1)
    subtables, rows, cols = table.shape
    q = rows.bit_length() - 1
    assert cols == spec.n + (1 if spec.has_lung else 0)
    rng = random.Random(3)
    for j in (0, 1, subtables - 1):
        for v in (1, rows - 1, rng.randrange(1, rows)):
            expect = _stepped(spec)
            horner_apply(expect, GF2Poly(v << (q * j)))
            got = make_generator(spec)
            got.window = table[j, v, : spec.n].tolist()  # oldest word first
            if spec.has_lung:
                got.lung = int(table[j, v, -1])
            assert got.state_vector() == expect.state_vector(), (j, v)


def test_window_width_follows_the_degree():
    gen = make_generator(get_spec("mt19937"), seed=1)
    table = _window_table(gen, 19936)
    q, subtables = _window_shape(gen, 19936)
    assert table.shape == (subtables, 1 << q, gen.spec.n)
    assert subtables << q <= 1 << 9 and table.nbytes < 1.5e6
    shapes = [_window_shape(gen, e) for e in (-1, 0, 1, 2, 3, 10, 100, 1000, 19936)]
    assert shapes[0] == shapes[1] == (1, 1)
    qs, js = zip(*shapes)
    assert list(qs) == sorted(qs) and list(js) == sorted(js)
    assert q * subtables >= 64  # many coefficients per ring XOR at full degree


def test_the_walk_forms_no_output_words(monkeypatch):
    # Neither the table nor the accumulator needs an output word, so the
    # walk never runs MT's or MELG's output map, on either path.
    def refuse(*args):
        raise AssertionError("output map called")

    monkeypatch.setattr(Mt, "temper", refuse)
    monkeypatch.setattr(Melg, "temper", refuse)
    for name in ("mt19937", "mt19937-64id3", "melg607", "melg19937"):
        spec = get_spec(name)
        with pytest.raises(AssertionError, match="output map called"):
            make_generator(spec, seed=5).words(1)
        jumped, stepped = make_generator(spec, seed=5), make_generator(spec, seed=5)
        apply_transition_polynomial(jumped, jump_polynomial(spec, 1000))
        stepped.step(1000)
        assert jumped.state_vector() == stepped.state_vector(), name


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
    gen.step(d)
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
