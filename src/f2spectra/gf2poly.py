"""Polynomials over GF(2), minimal polynomials, and jump-ahead.

A GF2Poly is an int-backed bitset: coefficient i of the polynomial is
bit i of ``bits``.  Small products use a shift-XOR schoolbook loop.
Products whose shorter operand exceeds ``_FFT_THRESHOLD_BITS`` are an
exact float64 FFT convolution of the 0/1 coefficient vectors: every
coefficient of the integer product is a count no larger than the
shorter operand's length, so it is recovered by rounding, and its low
bit is the GF(2) coefficient.  Each FFT product checks its own rounding
residual and raises ``ArithmeticError`` rather than return a wrong bit.
Squaring only respaces bits.  ``_Barrett`` reduces modulo a fixed
polynomial with the transforms of its two fixed operands computed once,
the second at half length; ``pow_mod`` builds one per call.

``berlekamp_massey`` recovers the minimal LFSR connection polynomial of
a bit sequence; fed 2k+64 output bits of a k-dimensional generator it
returns the full characteristic polynomial p of the transition matrix B.
``jump_ahead`` moves any generator by a signed step count: it evaluates
g = t^steps mod p at B on the state by a sliding-window Horner walk.  A
table of v(B) x for the 2^q polynomials v of degree below q (2^q * n
words) lets the walk take q coefficients per ring XOR; q minimises the
table's 2^q row XORs plus the walk's deg(g)/q, which gives q = 9 and
1.3 MB at k = 19937.  A backward jump needs only that B
is invertible, which p(0) = 1 states: t^-1 mod p is then (p + 1)/t, and
raising it to the power -steps costs as many squarings as a forward
jump of the same length.  No period is assumed.
"""

from __future__ import annotations

from array import array
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
#: the schoolbook loop and never loads ``numpy.fft`` (about 1 MB of RSS).
_FFT_THRESHOLD_BITS = 1024
#: Largest accepted distance of an FFT coefficient from its integer.
_ROUNDING_GUARD = 0.25


def _fft_length(n: int) -> int:
    """Smallest 2^a, 3*2^a or 5*2^a that is >= n (all fast pocketfft sizes)."""
    best = 1 << max(0, (n - 1).bit_length())
    for odd in (3, 5):
        m = odd
        while m < n:
            m <<= 1
        best = min(best, m)
    return best


def _spectrum(x: int, n: int) -> np.ndarray:
    """Real FFT of the 0/1 coefficient vector of ``x``, zero-padded to length n."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    return np.fft.rfft(np.unpackbits(raw, bitorder="little"), n)


def _product_bits(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Invert a product spectrum and round it to its GF(2) coefficients.

    Raises ``ArithmeticError`` when any coefficient lies ``_ROUNDING_GUARD``
    or further from an integer, as the rounding could then pick the wrong
    parity.
    """
    c = np.fft.irfft(spectrum, n)
    counts = np.rint(c)
    c -= counts
    residual = float(np.abs(c, out=c).max())
    if residual >= _ROUNDING_GUARD:
        raise ArithmeticError(
            f"FFT product of length {n} is not exact: rounding residual {residual:.3g}"
        )
    parity = counts.astype(np.int64)
    parity &= 1
    return parity.astype(np.uint8)


def _from_bit_vector(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _mul_bits(a: int, b: int) -> int:
    """Carryless product of two coefficient bitsets."""
    if a == 0 or b == 0:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    if min(la, lb) > _FFT_THRESHOLD_BITS:
        n = _fft_length(la + lb - 1)
        spectrum = _spectrum(a, n)
        spectrum *= _spectrum(b, n)
        return _from_bit_vector(_product_bits(spectrum, n))
    if la < lb:
        a, b = b, a
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


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
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    return int.from_bytes(_spread2_table()[raw].tobytes(), "little")


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

    def square(self) -> "GF2Poly":
        return GF2Poly(_square_bits(self.bits))

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
        """self**e mod ``mod`` by square-and-multiply (e may be huge)."""
        if e < 0:
            raise ValueError("negative exponent")
        ctx = _Barrett(mod)
        result = ctx.reduce(GF2Poly(1))
        if e == 0:
            return result
        base = ctx.reduce(self)
        for ch in format(e, "b"):
            result = ctx.reduce(result.square())
            if ch == "1":
                result = ctx.reduce(result * base)
        return result

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


class _Barrett:
    """Reduction modulo a fixed polynomial of degree d, by Barrett's method.

    ``q = t^(2d) // mod`` is found once by long division.  A polynomial p
    of degree below 2d then reduces with two products and no division:
    ``qhat = ((p >> d) * q) >> d`` is the exact quotient p // mod, and
    ``p - qhat * mod`` the remainder.  Above ``_FFT_THRESHOLD_BITS`` the
    spectra of q and of the modulus are computed once, each at the one
    length its product needs, so a reduce costs two forward and two
    inverse transforms:

    - ``(p >> d) * q`` has fewer than 2d coefficients and its high half
      is wanted, so it runs at length ``_fft_length(2d)``, where the
      cyclic convolution never wraps around.
    - ``qhat * mod`` runs at the shorter length m = ``_fft_length(d + 1)``,
      so its coefficients j + m wrap onto j.  Only the low d are needed,
      and the wrapped ones are known: the remainder has degree below d,
      so from d up the product equals p itself.  The low half is thus
      the wrapped result XOR ``p >> m``, masked to d bits.

    A quotient no longer than the threshold (after a product by t, say)
    stays on the schoolbook loop, and inputs of degree 2d or more fall
    back to long division.
    """

    def __init__(self, mod: GF2Poly) -> None:
        if mod.degree < 1:
            raise ValueError("modulus must have positive degree")
        self.mod = mod
        self.d = mod.degree
        self.q = (GF2Poly.x_power(2 * self.d) // mod).bits
        self.n = 0
        if self.d > _FFT_THRESHOLD_BITS:
            self.n = _fft_length(2 * self.d)
            self.m = _fft_length(self.d + 1)
            self.q_spectrum = _spectrum(self.q, self.n)
            self.mod_spectrum = _spectrum(mod.bits, self.m)

    def reduce(self, p: GF2Poly) -> GF2Poly:
        d = self.d
        mb = self.mod.bits
        r = p.bits
        if r.bit_length() > 2 * d:
            return p % self.mod
        hi = r >> d
        if self.n and hi.bit_length() > _FFT_THRESHOLD_BITS:
            n, m = self.n, self.m
            spectrum = _spectrum(hi, n)
            spectrum *= self.q_spectrum
            qhat = _product_bits(spectrum, n)[d : 2 * d]
            spectrum = np.fft.rfft(qhat, m)
            spectrum *= self.mod_spectrum
            low = _from_bit_vector(_product_bits(spectrum, m)) ^ (r >> m)
            return GF2Poly((r ^ low) & ((1 << d) - 1))
        if hi:
            qhat = _mul_bits(hi, self.q) >> d
            r ^= _mul_bits(qhat, mb)
        while r.bit_length() - 1 >= d:
            r ^= mb << (r.bit_length() - 1 - d)
        return GF2Poly(r)


def berlekamp_massey(bits: int, nbits: int) -> GF2Poly:
    """Minimal connection polynomial of the sequence (bit i of ``bits``).

    Runs the iterative discrepancy update in a reversed-alignment frame:
    while processing step t, the working register holds coefficient c_i
    at bit (t+1-i), so the discrepancy is one AND + popcount; the +1
    offset keeps the initial backup (snapshot conceptually at step -1)
    representable.  Returns C with C.coeff(0) == 1 and degree L such
    that c_0 s_j = sum_{i=1..L} c_i s_{j-i} for all covered j.
    """
    seqs = bits << 1
    ca, ba, length = 2, 1, 0
    for t in range(nbits):
        if (ca & seqs).bit_count() & 1:
            if 2 * length <= t:
                ca, ba = ca ^ ba, ca
                length = t + 1 - length
            else:
                ca ^= ba
        ca <<= 1
    c = 0
    for i in range(length + 1):
        c |= ((ca >> (nbits + 1 - i)) & 1) << i
    return GF2Poly(c)


def output_bit_sequence(spec: "GeneratorSpec", nbits: int, seed: int = 12345) -> int:
    """Low bit of each of the first ``nbits`` outputs, packed bit i = step i."""
    from .generators import make_generator

    gen = make_generator(spec, seed)
    seq = 0
    for j in range(nbits):
        seq |= (gen.next_word() & 1) << j
    return seq


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
    jump raises that to the power -steps, at the cost of a forward jump
    of the same length.
    """
    p = minimal_polynomial(spec)
    base = GF2Poly.from_degrees([1]) if steps >= 0 else GF2Poly((p.bits ^ 1) >> 1)
    return base.pow_mod(abs(steps), p)


def _window_table(gen: "Generator", degree: int) -> np.ndarray:
    """Row v holds v(B) x0 for every polynomial v of degree below q, the
    window width for applying a polynomial of ``degree``.

    x0 is the state of ``gen``, in cursor-0 storage order with the lung,
    if any, as the last column.  Row 2^j is B^j x0, taken from q steps of
    a copy; the rows between 2^j and 2^(j+1) are the rows below 2^j, each
    XORed with it.  The table costs 2^q row XORs and the walk one ring XOR
    per window, (degree + 1)/q of them; q minimises the sum.
    """
    from .generators import make_generator
    from .generators.base import word_dtype

    spec = gen.spec
    dtype = np.dtype(word_dtype(spec))
    cols = spec.n + (1 if spec.has_lung else 0)
    q = min(range(1, 17), key=lambda q: (1 << q) + (degree + 1) / q)
    walker = make_generator(spec)
    walker.set_raw_state(gen.get_raw_state())
    table = np.zeros((1 << q, cols), dtype=dtype)
    for j in range(q):
        c = walker.cursor
        row = walker.st[c:] + walker.st[:c] + ([walker.lung] if spec.has_lung else [])
        np.bitwise_xor(table[: 1 << j], np.array(row, dtype=dtype), out=table[1 << j : 2 << j])
        walker.step()
    return table


def apply_transition_polynomial(gen: "Generator", poly: GF2Poly) -> None:
    """Replace the generator state x by poly(B) x, by a sliding-window Horner
    walk (Haramoto et al., INFORMS J. Comput. 2008, section 3).

    ``_window_table`` holds v(B) x for every v of degree below q, 2^q rows
    of one ring (plus lung) each: 2^q * n words, about 1.3 MB at
    k = 19937.  The walk takes the coefficients of ``poly`` q at a time
    from the top: q ordinary generator steps of an accumulator, then one
    XOR of the table row the window selects, rotated to the accumulator's
    cursor.  So the cost is deg(poly) steps plus deg(poly)/q ring XORs,
    regardless of the jump count encoded in ``poly``; q grows with the
    degree of ``poly``.  Dead bits introduced by whole-word XORs never feed
    live coordinates and are cleared at the end.
    """
    from .generators import make_generator

    spec = gen.spec
    n = spec.n
    table = _window_table(gen, poly.degree)
    window = len(table) - 1
    q = window.bit_length()
    bits = poly.bits
    acc = make_generator(spec)  # zero state
    for i in range(poly.degree // q * q, -1, -q):
        for _ in range(q):
            acc.step()
        v = (bits >> i) & window
        if v:
            # A ring at cursor c holds its cursor-0 form rotated right by c:
            # every family keeps consecutive logical words consecutive in storage.
            c = n - acc.cursor
            row = table[v]
            ring = np.concatenate((row[c:n], row[:c]))
            # array.array reads a list of ints about twice as fast as np.array
            ring ^= np.frombuffer(array(table.dtype.char, acc.st), dtype=table.dtype)
            acc.st = ring.tolist()
            if spec.has_lung:
                acc.lung ^= int(row[n])
    gen.set_raw_state(acc.get_raw_state())  # normalizes the cursor, clears dead bits


def jump_ahead(gen: "Generator", steps: int) -> None:
    """Move ``gen`` by exactly ``steps`` recurrence steps in O(k) work,
    backward when ``steps`` is negative (see ``jump_polynomial``)."""
    apply_transition_polynomial(gen, jump_polynomial(gen.spec, steps))
