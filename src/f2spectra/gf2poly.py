"""Polynomials over GF(2), minimal polynomials, and jump-ahead.

A GF2Poly is an int-backed bitset: coefficient i of the polynomial is
bit i of ``bits``.  Small products XOR shifts (``_shifted_sum``).
Products whose shorter operand exceeds ``_FFT_THRESHOLD_BITS`` are an
exact float64 FFT convolution of the coefficient vectors: every
coefficient of the integer product is a count no larger than the
shorter operand's length, so it is recovered by rounding, and its low
bit is the GF(2) coefficient.  The transforms carry two coefficients per
element, c_2j + c_(2j+1) 2^15, so they run at half the length: a product
element is then lo + mid 2^15 + hi 2^30, and coefficient 2j is the
parity of lo_j + hi_(j-1), coefficient 2j + 1 that of mid_j.  That holds
while no field reaches 2^15, which bounds the shorter operand at
``_PACKED_LIMIT`` = 2^15 - 2 coefficients; longer products, which no
bundled generator makes, take the shifts.  Lengths below count
elements, not coefficients.  Each FFT product checks its own rounding
residual and its fields' width, and raises ``ArithmeticError`` rather
than return a wrong bit.  At degree 19937 the residual measured at most
0.001 on reduced squares of random operands and 0.0047 on all-ones
operands, against the guard of 0.25.

Squaring respaces bits, and ``_Barrett``, which ``pow_mod`` builds once
per call, reduces the square modulo a fixed polynomial of degree d with
two products by fixed operands, q = t^(2d) // mod and the modulus.  It
picks one engine per modulus for both.  Small and very large moduli, and
the sparse moduli of MT at k = 19937 (mt19937 and mt19937-64id1, whose q
and modulus have a few hundred set bits), take shifts and XORs over the
set bits, paired at a common distance on the sparse ones so that a pair
costs one shift.  The dense ones (mt19937-64id3, WELL and MELG) take
spectra computed once.  There the quotient takes three transforms of
half the full product's length, not two of the full length: the high
half of x^2 is x's upper half respaced, so it meets q's even and odd
halves in two half-length products.  With the remainder's two, a dense
reduced square at k = 19937 makes five transforms of 10240 elements.
Around them, each inverse transform rounds and decodes only the
elements whose coefficients the square keeps, about half of them for
the quotient, and the quotient's two halves are packed straight into
the remainder's transform.

``berlekamp_massey`` recovers the minimal LFSR connection polynomial of
a bit sequence; fed 2k+64 output bits of a k-dimensional generator it
returns the full characteristic polynomial p of the transition matrix B.
Massey's iteration there carries the products of its two connection
polynomials C and B with the sequence S, updated by the same XORs, so
each discrepancy is one bit of C S, not a dot product with the reversed
sequence.  C S is kept from the current step t up and B S from the step
t0 of the last length change up, both cut at the sequence's length.  An
update adds B shifted by t - t0, and t0 is fixed between length changes,
so bit j of B S, coefficient t0 + j, lands on bit j of C S: one XOR, no
shift.  A run of zero discrepancies costs one shift of C S, found from
the lowest set bit of a window of it.

``jump_ahead`` moves any generator by a signed step count: it evaluates
g = t^steps mod p at B on the state by a sliding-window Horner walk.  Its
table holds J sub-tables of 2^q rows of n words, oldest first like the
generator's ring (plus the lung), row v of sub-table j being
v(B) B^(q j) x for a polynomial v of degree below q; their q J powers
of B are the first states of one stream run
(``generators.base.stream_states``).  One XOR of J rows, one per
sub-table, thus adds W = q J coefficients at once, in place on one word
stream, which ``generators.base.advance_stream`` moves W steps per
window on every generator without forming output words.  The rows each
window selects, one per nibble of g, are found for all windows at once.
q = 4 and J = 32 give W = 128 from 2^9 rows, 1.3 MB at k = 19937; the
wider q = 9 of a single table would need the same 2^9 rows for W = 9.
A backward jump needs only that B is invertible, which p(0) = 1 states:
t^-1 mod p is then (p + 1)/t, and ``pow_mod`` multiplies by it with one
shift and at most one XOR, as it multiplies by t.  No period is assumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .generators import Generator, GeneratorSpec

#: Arbitrary-precision unsigned integers are plain Python ints.
BigUint = int

#: Products whose shorter operand is longer than this use the FFT.  The two
#: are level near 512 bits; at 1024 every reduction for k <= 1024 stays on
#: plain shifts and never loads ``numpy.fft`` (about 1 MB of RSS).
_FFT_THRESHOLD_BITS = 1024
#: Largest accepted distance of an FFT coefficient from its integer.
_ROUNDING_GUARD = 0.25
#: Width of each field of a packed transform element, c_2j + c_(2j+1) 2^15.
_FIELD_BITS = 15
#: Longest shorter operand, in coefficients, of an FFT product.  Packed
#: operands of L and L' elements give product element j =
#: lo_j + mid_j 2^15 + hi_j 2^30, where lo_j (even times even
#: coefficients) and hi_j (odd times odd) count at most min(L, L') terms
#: and mid_j (the cross terms) at most twice that.  So the fields stay
#: apart while 2 ceil(short / 2) < 2^15, up to 2^15 - 2 coefficients.
_PACKED_LIMIT = (1 << _FIELD_BITS) - 2
#: A Barrett modulus of degree above the FFT threshold takes the shift
#: engine (``_shift_plan``) when q has fewer set bits than the first and
#: the modulus fewer than the second, and its cached spectra otherwise.
#: At k = 19937 a plain loop over the set bits measured as fast as the
#: packed transforms at about 1200 bits of q and 400 of the modulus, whose
#: loop shifts left into twice as many words; the paired plans make the
#: shift side cheaper still.  The bundled moduli lie far to either side
#: (see ``_Barrett``).
_SPARSE_QUOTIENT_WEIGHT = 1024
_SPARSE_MODULUS_WEIGHT = 384


def _fft_length(n: int) -> int:
    """Smallest 2^a, 3*2^a or 5*2^a that is >= n (all fast pocketfft sizes)."""
    best = 1 << max(0, (n - 1).bit_length())
    for odd in (3, 5):
        m = odd
        while m < n:
            m <<= 1
        best = min(best, m)
    return best


def _bytes_of(x: int) -> np.ndarray:
    """The little-endian bytes of ``x``, as a uint8 array."""
    return np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)


@lru_cache(maxsize=1)
def _pack_table() -> np.ndarray:
    """Byte value -> its four packed elements c_2i + c_(2i+1) 2^15."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    return bits[:, 0::2] + bits[:, 1::2] * float(1 << _FIELD_BITS)


def _interleaved(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The transform elements of the polynomial whose even and odd
    coefficients are the bit arrays ``even`` and ``odd``, which is no
    longer: element j is even_j + odd_j 2^15."""
    elements = even.astype(np.float64)
    elements[: len(odd)] += odd * float(1 << _FIELD_BITS)
    return elements


def _spectrum(x: int, n: int) -> np.ndarray:
    """Real FFT of the coefficients of ``x``, two to an element,
    zero-padded to n elements."""
    return np.fft.rfft(_pack_table()[_bytes_of(x)].reshape(-1), n)


def _product_bits(
    spectrum: np.ndarray, n: int, short: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Invert a product spectrum of n elements and round it to GF(2)
    coefficients ``start`` .. ``stop`` - 1 of the cyclic product modulo
    t^(2n) - 1, all 2n of them by default.

    Only the elements those coefficients read are rounded and decoded.
    ``short`` is the shorter operand's coefficient count.  Raises
    ``ArithmeticError`` when any element read lies ``_ROUNDING_GUARD`` or
    further from an integer, as the rounding could then pick the wrong
    parity, and when the product's fields could overflow into each other
    (``short`` above ``_PACKED_LIMIT``), which no rounding check can see.
    Coefficient 2j is the parity of element j's low field plus element
    j - 1's high field (cyclically), and coefficient 2j + 1 that of
    element j's middle field.
    """
    if short > _PACKED_LIMIT:
        raise ArithmeticError(
            f"packed FFT product of length {n} is not exact: "
            f"a {short}-coefficient operand overflows its {_FIELD_BITS}-bit fields"
        )
    if stop is None:
        stop = 2 * n
    c = np.fft.irfft(spectrum, n)
    first, last = start // 2, (stop + 1) // 2
    # elements first - 1 (for its high field) .. last - 1
    c = c[first - 1 : last] if first else np.concatenate((c[-1:], c[:last]))
    counts = np.rint(c)
    c -= counts
    residual = float(np.abs(c, out=c).max())
    if residual >= _ROUNDING_GUARD:
        raise ArithmeticError(
            f"FFT product of length {n} is not exact: rounding residual {residual:.3g}"
        )
    fields = counts.astype(np.int64)
    low = fields[1:]
    low ^= fields[:-1] >> 2 * _FIELD_BITS
    low &= 1 | 1 << _FIELD_BITS
    low |= low >> _FIELD_BITS - 8  # coefficient 2j + 1 to bit 8
    bits = low.astype("<u2").view(np.uint8) & 1  # coefficients 2 first .. 2 last - 1
    return bits[start - 2 * first : stop - 2 * first]


def _exponents(x: int) -> list[int]:
    """Exponents of the set bits of ``x``, ascending."""
    return np.flatnonzero(np.unpackbits(_bytes_of(x), bitorder="little")).tolist()


def _shift_plan(shifts: list[int]):
    """How to XOR an operand shifted by each of ``shifts`` with fewer
    shifts: ``shifts`` sorted, or (delta, pairs, rest).

    y shifted by x and by x + delta XOR to y ^ (y shifted by delta),
    shifted by x, so after one shared shift each pair costs one shift, not
    two.  delta is the most common difference between two of the shifts;
    ``pairs`` plans the x paired off with x + delta, in ascending order,
    and ``rest`` the others, each in turn the same way.  A plan pairs
    while that saves a shift, at two pairs or more.
    """
    xs = sorted(shifts)
    if len(xs) < 4:  # two pairs need four shifts
        return xs
    delta = _common_difference(xs)
    members, partners, pairs, rest = set(xs), set(), [], []
    for x in xs:
        if x in partners:
            continue
        if x + delta in members:
            partners.add(x + delta)
            pairs.append(x)
        else:
            rest.append(x)
    if len(pairs) < 2:
        return xs
    return delta, _shift_plan(pairs), _shift_plan(rest)


def _common_difference(xs: list[int]) -> int:
    """The most common difference between two of the ascending ``xs``."""
    values = np.array(xs)
    counts = np.zeros(xs[-1] - xs[0] + 1, dtype=np.int32)
    for i in range(len(xs) - 1):  # one row at a time, whose differences are distinct
        counts[values[i + 1 :] - values[i]] += 1
    return int(counts.argmax())


def _shifted_sum(y: int, plan, shift) -> int:
    """The XOR of ``shift(y, x)`` over the shifts x of a ``_shift_plan``."""
    if isinstance(plan, list):
        acc = 0
        for x in plan:
            acc ^= shift(y, x)
        return acc
    delta, pairs, rest = plan
    return _shifted_sum(y ^ shift(y, delta), pairs, shift) ^ _shifted_sum(y, rest, shift)


def _from_bit_vector(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _mul_bits(a: int, b: int) -> int:
    """Carryless product of two coefficient bitsets: the FFT product, or
    the longer operand shifted to each set bit of the shorter and XORed."""
    if a == 0 or b == 0:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    short = min(la, lb)
    if _FFT_THRESHOLD_BITS < short <= _PACKED_LIMIT:
        n = _fft_length(-(-(la + lb - 1) // 2))
        spectrum = _spectrum(a, n)
        spectrum *= _spectrum(b, n)
        return _from_bit_vector(_product_bits(spectrum, n, short))
    if la < lb:
        a, b = b, a
    return _shifted_sum(a, _exponents(b), operator.lshift)


@lru_cache(maxsize=1)
def _spread2_table() -> np.ndarray:
    """Byte value -> uint16 with bit i moved to bit 2i (for squaring)."""
    vals = np.arange(256)
    out = np.zeros(256, dtype="<u2")
    for i in range(8):
        out |= (((vals >> i) & 1) << (2 * i)).astype("<u2")
    return out


def _square_bits(x: int) -> int:
    if x == 0:
        return 0
    return int.from_bytes(_spread2_table()[_bytes_of(x)].tobytes(), "little")


@dataclass(frozen=True)
class GF2Poly:
    """Dense polynomial over GF(2); coefficient i is bit i of ``bits``."""

    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("negative coefficient bitset")

    @classmethod
    def x_power(cls, e: int) -> "GF2Poly":
        return cls(1 << e)

    @classmethod
    def from_degrees(cls, degrees) -> "GF2Poly":
        bits = 0
        for d in degrees:
            bits ^= 1 << d
        return cls(bits)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return self.bits.bit_count()

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: "GF2Poly") -> tuple["GF2Poly", "GF2Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        ob = other.bits
        q, r = 0, self.bits
        while r.bit_length() - 1 >= d:
            s = r.bit_length() - 1 - d
            r ^= ob << s
            q |= 1 << s
        return GF2Poly(q), GF2Poly(r)

    def __floordiv__(self, other: "GF2Poly") -> "GF2Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "GF2Poly") -> "GF2Poly":
        return divmod(self, other)[1]

    def pow_mod(self, e: BigUint, mod: "GF2Poly") -> "GF2Poly":
        """self**e mod ``mod`` by square-and-multiply (e may be huge).

        The squares go through ``_Barrett.square``.  ``jump_polynomial``
        passes a base of t or, as mod(0) = 1, of t^-1 = (mod + 1)/t, and
        each multiplies with one shift and at most one XOR: x t is
        x << 1, less mod when it reaches degree d, and x t^-1 is
        (x + x_0 mod) >> 1, with x_0 the constant term of x.  Any other
        base, which no command passes, multiplies by a product and long
        division.
        """
        if e < 0:
            raise ValueError("negative exponent")
        ctx = _Barrett(mod)
        base = (self % mod).bits
        d, mb = ctx.d, mod.bits
        if base == 2:  # t: one shift, and one XOR when the degree reaches d

            def times(x: int) -> int:
                x <<= 1
                return x ^ mb if x >> d else x

        elif base == mb >> 1 and mb & 1:  # t^-1 = (mod + 1)/t

            def times(x: int) -> int:
                return (x ^ mb) >> 1 if x & 1 else x >> 1

        else:

            def times(x: int) -> int:
                return (GF2Poly(_mul_bits(x, base)) % mod).bits

        result = 1  # the modulus has positive degree
        for ch in format(e, "b"):
            result = ctx.square(result)
            if ch == "1":
                result = times(result)
        return GF2Poly(result)

    def reciprocal(self) -> "GF2Poly":
        """t^degree * p(1/t): the coefficient sequence reversed in place."""
        if not self:
            return self
        return GF2Poly(int(format(self.bits, "b")[::-1], 2))

    def to_hex(self) -> str:
        return format(self.bits, "x")

    @classmethod
    def from_hex(cls, text: str) -> "GF2Poly":
        return cls(int(text, 16))

    def __repr__(self) -> str:
        return f"GF2Poly(degree={self.degree}, weight={self.weight})"


def _barrett_quotient(mod: GF2Poly) -> int:
    """t^(2d) // mod, for mod of degree d.

    Long division costs one XOR per set bit of the quotient, so above the
    FFT threshold a modulus of ``_SPARSE_MODULUS_WEIGHT`` bits or more
    takes Newton's iteration instead.  With P the reciprocal of mod
    (P(0) = 1), the quotient is P^-1 mod t^(d+1), reversed.  A pass
    W <- P W^2 mod t^j, which in characteristic 2 is W (2 - P W), lifts W
    from P^-1 mod t^ceil(j/2) to P^-1 mod t^j.  As in ``_Barrett.square``,
    W^2 is W(t^2), so with P = P0(t^2) + t P1(t^2) the pass is two
    products of halves, W P0 and W P1, each at half the transform length.
    """
    d = mod.degree
    if d <= _FFT_THRESHOLD_BITS or mod.weight < _SPARSE_MODULUS_WEIGHT:
        return (GF2Poly.x_power(2 * d) // mod).bits
    coeffs = np.unpackbits(_bytes_of(mod.reciprocal().bits), bitorder="little")
    halves = (_from_bit_vector(coeffs[0::2]), _from_bit_vector(coeffs[1::2]))
    lengths = [d + 1]
    while lengths[-1] > 1:
        lengths.append((lengths[-1] + 1) // 2)
    w = 1
    for j in reversed(lengths[:-1]):
        mask = (1 << (j + 1) // 2) - 1
        a, b = (_mul_bits(w, half & mask) & mask for half in halves)
        w = (_square_bits(a) | _square_bits(b) << 1) & ((1 << j) - 1)
    return int(format(w, f"0{d + 1}b")[::-1], 2)


class _Barrett:
    """Reduction of squares modulo a fixed polynomial of degree d, by
    Barrett's method.

    ``q = t^(2d) // mod`` is found once (``_barrett_quotient``).  A
    square r = x^2, x of degree below d, then reduces with two products
    by the fixed operands q and the modulus, and no division: ``qhat =
    ((r >> d) * q) >> d`` is the exact quotient r // mod, and the low d
    coefficients of ``r - qhat * mod`` the remainder.  ``engine`` names
    how both products are taken, chosen once per modulus:

    - ``"shift"``: shifts and XORs over the set bits, exact and free of
      transforms (``_shifted_sum``): the quotient is the XOR of
      ``hi >> (d - e)`` over q's exponents e, and the remainder the XOR
      of ``qhat << e`` over the modulus's exponents into r.  Every
      modulus takes it on plain exponent lists at d up to
      ``_FFT_THRESHOLD_BITS``, where a ``_shift_plan`` costs 7 to 15 ms,
      more than a jump's few squares save, and above ``_PACKED_LIMIT``,
      which the spectra's fields cannot hold.  In between, a modulus
      takes it when q has fewer than ``_SPARSE_QUOTIENT_WEIGHT`` set
      bits and the modulus fewer than ``_SPARSE_MODULUS_WEIGHT``, on
      planned lists that pair exponents at a common distance: 48 and 34
      shifts for mt19937's 161 and 135 set bits, 147 and 58 for
      mt19937-64id1's 579 and 285.
    - ``"spectra"``: for every other modulus, the spectra of q's even
      and odd halves and of the modulus, computed once, all of
      m = ``_fft_length(ceil((d + 1) / 2))`` elements, so M = 2m >= d + 1
      coefficients; 10240 elements at d = 19937:

      - q = q0(t^2) + t q1(t^2).  The high half of x^2 is
        t^delta u(t^2), where u = x >> ceil(d/2) holds x's upper
        coefficients and delta = 2 ceil(d/2) - d.  So ``hi * q`` is
        t^delta (a(t^2) + t b(t^2)) with a = u q0 and b = u q1, two
        products of halves that fit in M coefficients without wrapping,
        and the quotient's even and odd coefficients are a's and b's from
        index (d - delta)/2 on: one forward and two inverse transforms of
        m elements, where the full product needs two of twice that.  Each
        inverse decodes only the quotient coefficients it yields, and
        ``_interleaved`` packs the two halves into the remainder's
        transform elements directly.
      - ``qhat * mod`` has fewer than 2d coefficients, so at M of them its
        coefficients j + M wrap onto j.  Only the low d are needed, and
        the wrapped ones are known: the remainder has degree below d, so
        from d up the product equals r itself.  The low half is thus the
        wrapped result XOR ``r >> M``, masked to d bits.

    The bundled minimal polynomials take these engines:

    ==============  =====  ==============  ========  ========
    generator       d      modulus weight  q weight  engine
    ==============  =====  ==============  ========  ========
    well607b        607    313             298       shift
    melg607         607    313             298       shift
    well1024a       1024   407             495       shift
    mt19937         19937  135             161       shift
    mt19937-64id1   19937  285             579       shift
    mt19937-64id3   19937  5795            7774      spectra
    well19937a      19937  8585            9872      spectra
    melg19937       19937  9603            9800      spectra
    ==============  =====  ==============  ========  ========

    A square of degree below d needs no reduction at all.
    """

    def __init__(self, mod: GF2Poly) -> None:
        if mod.degree < 1:
            raise ValueError("modulus must have positive degree")
        d = self.d = mod.degree
        self.low_mask = (1 << d) - 1
        q = self.q = _barrett_quotient(mod)
        fft_range = _FFT_THRESHOLD_BITS < d <= _PACKED_LIMIT
        sparse = q.bit_count() < _SPARSE_QUOTIENT_WEIGHT and mod.weight < _SPARSE_MODULUS_WEIGHT
        if fft_range and not sparse:
            self.m = m = _fft_length(-(-(d + 1) // 2))
            halves = np.unpackbits(_bytes_of(q), bitorder="little")
            q0, q1 = (_spectrum(_from_bit_vector(half), m) for half in (halves[0::2], halves[1::2]))
            self.engine, self.operands = "spectra", (q0, q1, _spectrum(mod.bits, m))
        else:
            shifts = [d - e for e in _exponents(q)], _exponents(mod.bits)
            self.engine = "shift"
            self.operands = tuple(map(_shift_plan, shifts)) if fft_range else shifts

    def square(self, x: int) -> int:
        """x^2 mod the modulus, for x of degree below d."""
        d = self.d
        r = _square_bits(x)
        hi = r >> d
        if not hi:
            return r
        if self.engine == "shift":
            q_plan, mod_plan = self.operands
            r ^= _shifted_sum(_shifted_sum(hi, q_plan, operator.rshift), mod_plan, operator.lshift)
        else:
            m, lo = self.m, d // 2
            q0, q1, mod = self.operands
            upper = x >> (d + 1) // 2
            u, short = _spectrum(upper, m), upper.bit_length()
            even = _product_bits(u * q0, m, short, lo, lo + (d + 1) // 2)
            odd = _product_bits(u * q1, m, short, lo, lo + d // 2)
            spectrum = np.fft.rfft(_interleaved(even, odd), m)
            spectrum *= mod
            r ^= (r >> 2 * m) ^ _from_bit_vector(_product_bits(spectrum, m, d, 0, d))
        return r & self.low_mask


#: Bits of D_c that ``berlekamp_massey`` searches at once for the next
#: discrepancy, and the steps between two trims of both products.
_BM_WINDOW = 256


def berlekamp_massey(bits: int, nbits: int) -> GF2Poly:
    """Minimal connection polynomial of the sequence (bit i of ``bits``).

    Only the low ``nbits`` bits are read.  Returns C with C.coeff(0) == 1
    and degree L such that c_0 s_j = sum_{i=1..L} c_i s_{j-i} for all
    covered j.

    Massey's iteration, with the products D_c = C S and D_b = B S carried
    beside C and B: S is the sequence as a polynomial and B the C before
    the last length change, made at step t0.  The discrepancy at step t is
    coefficient t of C S, one bit of D_c, and each update C ^= B t^gap,
    gap = t - t0, is mirrored by D_c ^= D_b t^gap.

    Both products are truncated.  D_c is kept from the last step read, t,
    up (bit j is coefficient t + j), and D_b from t0 up (bit j is
    coefficient t0 + j), so the coefficients below are shifted out.
    Coefficients of D_c from ``nbits`` up are never read, and those of
    D_b from nbits - gap up only ever land there, as gap only grows until
    D_b is replaced.  So both are cut to their low nbits - t bits once
    per ``_BM_WINDOW`` steps, which keeps them near nbits - t bits long.

    Coefficient t + j of D_b t^gap is coefficient t - gap + j = t0 + j of
    D_b, and t - gap = t0 stays constant between length changes, as gap
    grows one step with t.  So bit j of D_b lines up with bit j of D_c,
    and an update is a plain XOR, with no shift.  A length change at t
    makes the old D_c the new D_b, whose frame is then already t0 = t.

    The next discrepancy is the lowest set bit w & -w of the window w of
    D_c's bits 1 .. ``_BM_WINDOW``.  One right shift of D_c by its
    ``bit_length()`` - 1 skips the whole run of zero discrepancies before
    it, and an empty window skips ``_BM_WINDOW`` steps at once.
    """
    if nbits <= 0:
        return GF2Poly(1)
    window = ((1 << _BM_WINDOW) - 1) << 1
    # t = t0 = -1: bit 0 of both frames is coefficient -1, which is 0
    dc = db = (bits & ((1 << nbits) - 1)) << 1
    c = b = 1
    length = 0
    t = t0 = trimmed = -1
    while True:
        w = dc & window
        if not w:
            t += _BM_WINDOW
            if t >= nbits:
                break
            dc >>= _BM_WINDOW
            continue
        run = (w & -w).bit_length() - 1
        t += run
        if t >= nbits:
            break
        dc >>= run
        if t - trimmed >= _BM_WINDOW:
            kept = (1 << (nbits - t)) - 1
            dc &= kept
            db &= kept
            trimmed = t
        if 2 * length <= t:
            c, b = c ^ (b << (t - t0)), c
            dc, db = dc ^ db, dc
            length = t + 1 - length
            t0 = t
        else:
            c ^= b << (t - t0)
            dc ^= db
    return GF2Poly(c)


def output_bit_sequence(spec: "GeneratorSpec", nbits: int, seed: int = 12345) -> int:
    """Low bit of each of the first ``nbits`` outputs, packed bit i = step i.

    The words come from one ``Generator.word_array`` call; their low
    bits are packed into the int once, not shifted in one at a time.
    """
    from .generators import make_generator

    low = (make_generator(spec, seed).word_array(nbits) & 1).astype(np.uint8)
    return int.from_bytes(np.packbits(low, bitorder="little").tobytes(), "little")


def minimal_polynomial(spec: "GeneratorSpec", seed: int = 12345) -> GF2Poly:
    """Minimal polynomial of the transition matrix, via 2k+64 output bits.

    The returned polynomial is oriented so that it annihilates the
    transition matrix B (monic in t, constant term 1): it is the
    reciprocal of the degree-k connection polynomial ``berlekamp_massey``
    recovers, whose own constant term is 1.  It has full degree k for
    every bundled generator (their characteristic polynomials are
    primitive), so it is simultaneously the characteristic polynomial and
    annihilates every state.  Results for the bundled generators at seed
    12345 ship as hex files; any other seed recomputes.
    """
    cached = _bundled_minpoly(spec.name, seed)
    if cached is not None:
        return cached
    nbits = 2 * spec.k + 64
    conn = berlekamp_massey(output_bit_sequence(spec, nbits, seed), nbits)
    if conn.degree != spec.k:
        raise RuntimeError(
            f"recovered degree {conn.degree} != k={spec.k} for {spec.name}; "
            f"seed {seed} generates a degenerate bit sequence"
        )
    return conn.reciprocal()


# -- minimal-polynomial files ------------------------------------------


def format_minpoly(name: str, seed: int, poly: GF2Poly) -> str:
    """File text: a header, then the coefficients in hex."""
    return (
        "# minimal polynomial over GF(2); hex bit i = coefficient of t^i\n"
        f"# generator={name} seed={seed} degree={poly.degree} weight={poly.weight}\n"
        f"{poly.to_hex()}\n"
    )


def parse_minpoly(text: str) -> tuple[dict[str, int | str], GF2Poly]:
    meta: dict[str, int | str] = {}
    poly = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    meta[key] = int(value) if value.lstrip("-").isdigit() else value
            continue
        if poly is not None:
            raise ValueError("multiple polynomial payload lines")
        poly = GF2Poly.from_hex(line)
    if poly is None:
        raise ValueError("no polynomial payload line")
    if "degree" in meta and poly.degree != meta["degree"]:
        raise ValueError(f"degree mismatch: payload {poly.degree}, header {meta['degree']}")
    if "weight" in meta and poly.weight != meta["weight"]:
        raise ValueError(f"weight mismatch: payload {poly.weight}, header {meta['weight']}")
    return meta, poly


def _bundled_minpoly(name: str, seed: int) -> GF2Poly | None:
    entry = resources.files("f2spectra") / "data" / "minpoly" / f"{name.replace('-', '_')}.hex"
    try:
        text = entry.read_text()
    except (FileNotFoundError, OSError):
        return None
    meta, poly = parse_minpoly(text)
    if meta.get("generator") != name or meta.get("seed") != seed:
        return None
    return poly


# -- jump-ahead ---------------------------------------------------------


def jump_polynomial(spec: "GeneratorSpec", steps: int) -> GF2Poly:
    """t^steps mod p, the minimal polynomial of the transition matrix B.

    ``steps`` may be negative.  ``minimal_polynomial`` returns p with
    p(0) = 1, so B is invertible and t^-1 mod p = (p + 1)/t; a backward
    jump raises that to the power -steps.  Both bases multiply with a
    shift and an XOR, so either jump costs one ``_Barrett.square`` per
    bit of the count, save that a forward jump squares t^j for free while
    its degree j is below d/2: a 64-bit count takes about 50 reduced
    squares forward and 63 backward at k = 19937.
    """
    p = minimal_polynomial(spec)
    base = GF2Poly.from_degrees([1]) if steps >= 0 else GF2Poly((p.bits ^ 1) >> 1)
    return base.pow_mod(abs(steps), p)


def _window_table(gen: "Generator", degree: int) -> np.ndarray:
    """The Horner walk's table for a polynomial of ``degree``: J sub-tables
    of 2^q rows, where row v of sub-table j holds v(B) B^(q j) x0 for every
    polynomial v of degree below q.

    x0 is the state of ``gen``, its ring oldest word first and its lung,
    if any, as the last column, so the array has shape (J, 2^q, cols).
    Row 2^b of sub-table j is B^(q j + b) x0, one of the first q J states
    that ``generators.base.stream_states`` takes from one stream; the rows
    between 2^b and 2^(b+1) are the rows below 2^b, each XORed with it, in
    q passes over all J sub-tables at once.

    A window of the walk is W = q J coefficients, and it costs one XOR of
    J selected rows, so the table's J 2^q rows buy W coefficients per
    window at a gather of cols/q words per coefficient.  q = 4 and
    J = 32 hold the table at 2^9 rows (1.3 MB at k = 19937) and give
    W = 128; a larger q gathers fewer words but fits fewer sub-tables,
    a smaller q the opposite.  Shorter polynomials take fewer sub-tables,
    one per q coefficients, and q shrinks below 4 coefficients.
    """
    from .generators.base import stream_states

    coeffs = max(1, degree + 1)
    q = min(4, coeffs)
    subtables = min(32, -(-coeffs // q))
    powers = stream_states(gen, q * subtables)
    cols = powers.shape[1]
    powers = powers.reshape(subtables, q, 1, cols)
    table = np.zeros((subtables, 1 << q, cols), dtype=powers.dtype)
    for b in range(q):
        np.bitwise_xor(table[:, : 1 << b], powers[:, b], out=table[:, 1 << b : 2 << b])
    return table


def apply_transition_polynomial(gen: "Generator", poly: GF2Poly) -> None:
    """Replace the generator state x by poly(B) x, by a sliding-window Horner
    walk (Haramoto et al., INFORMS J. Comput. 2008, section 3).

    The walk takes the coefficients of ``poly`` W = q J at a time from the
    top, where ``_window_table`` holds J sub-tables of 2^q rows: W generator
    steps of an accumulator, then one XOR of the J rows the window's q-bit
    digits select, one row per sub-table, XOR-reduced into the
    accumulator, whose words are in the table's order.  So the cost is
    deg(poly) steps plus one row gather per W coefficients, regardless of
    the jump count encoded in ``poly``; W = 128 from degree 127 up, with a
    table of at most 2^9 rows (1.3 MB at k = 19937).

    The digits of every window are found once, as one (windows, J) array
    of rows of the flattened table: q is 4 wherever there is more than one
    sub-table, so a digit is a nibble of ``poly``, and below 4
    coefficients the one window's one digit is all of ``poly``.  The
    accumulator is one word stream, zero at first, with room for 8
    windows past the ring, whose ring is copied back to the front when
    the room runs out.  Each window after the top one advances the ring W
    steps by one ``advance_stream`` call that forms no output words (the
    block path on the five k = 19937 generators, the per-step loop on the
    others), and XORs its row into the new ring in place.  Dead bits
    introduced by whole-word XORs never feed live coordinates and are
    cleared at the end.
    """
    from .generators.base import advance_stream

    spec = gen.spec
    n, rec, has_lung = spec.n, gen.rec, spec.has_lung
    table = _window_table(gen, poly.degree)
    subtables, rows, cols = table.shape
    width = subtables * (rows.bit_length() - 1)
    windows = poly.degree // width + 1  # none for the zero polynomial
    packed = np.frombuffer(poly.bits.to_bytes(-(-windows * subtables // 2), "little"), np.uint8)
    nibbles = np.stack((packed & 15, packed >> 4), axis=1).reshape(-1)[: windows * subtables]
    selected = nibbles.reshape(windows, subtables)[::-1] + np.arange(subtables) * rows
    flat = table.reshape(-1, cols)
    room = 8 * width
    buf = np.zeros(n + room, dtype=table.dtype)
    j, lung = 0, 0 if has_lung else None
    for i, select in enumerate(selected):
        if i:
            if j == room:
                buf[:n] = buf[room:]
                j = 0
            _, lung = advance_stream(rec, buf[j : j + n + width], width, lung, emit=False)
            j += width
        row = np.bitwise_xor.reduce(flat[select])
        buf[j : j + n] ^= row[:n]
        if has_lung:
            lung ^= int(row[n])
    ring = buf[j : j + n].tolist()
    ring[0] &= spec.upper_mask  # the oldest word's dead bits
    gen.window, gen.lung = ring, lung


def jump_ahead(gen: "Generator", steps: int) -> None:
    """Move ``gen`` by exactly ``steps`` recurrence steps in O(k) work,
    backward when ``steps`` is negative (see ``jump_polynomial``)."""
    apply_transition_polynomial(gen, jump_polynomial(gen.spec, steps))
