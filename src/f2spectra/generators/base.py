"""Generator specs, the state-bit layout and its codec.

Every generator here updates a ring of n w-bit words (plus, for the MELG
family, one extra w-bit "lung" word) by an F2-linear recurrence, so the
full state is a vector over GF(2).  The package reads it in one order,
the *state grid*:

    newest ring word first, oldest ring word last, then the lung when
    present; w bits per word, most-significant bit first.

That is (n + 1 if lung else n) * w coordinates.  The r low bits of the
oldest word, grid coordinates n*w - r .. n*w - 1 (``dead_bits``), are
dead: the recurrence never reads them.  The *canonical coordinates* are
the grid with that one range left out, k = n*w - r (+ w with a lung) of
them; ``canonical_grid`` and ``grid_canonical`` map between the two.  No
bundled recurrence reads the dead bits, but an output map may (a MELG
lag of 1 reads the whole oldest word), so the one-step probes of
``ensemble`` work on the grid.

``grid_bits`` and its inverse ``set_grid_bits`` are the one codec
between word arrays and grid coordinates.  They act on an (n, E) ring of
E states; ``Generator.state_vector``/``set_state_vector`` pass the
scalar ring as a 1-member array, and ``canonical_rows`` turns grid bits
into packed canonical vectors for them and for ``Ensemble.state_rows``.

Each family's recurrence (its step, output and logical-word index) is a
``Recurrence`` subclass in ``mt.py``, ``well.py`` or ``melg.py``.  It runs
unchanged on the scalar ``Generator`` below, whose ring ``st`` is a list
of ints, and on ``ensemble.Ensemble``, whose ring is an (n, E) word
array; the storage classes hold only storage-specific code.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..bitlinalg import BitVector

_INV32 = 1.0 / 4294967296.0  # 2^-32
_INV53 = 1.0 / 9007199254740992.0  # 2^-53


class Family(enum.Enum):
    MT32 = "MT32"
    MT64_ID1 = "MT64_ID1"
    MT64_ID3 = "MT64_ID3"
    WELL = "WELL"
    MELG = "MELG"


_WELL = Family.WELL  # bound once: enum attribute lookups are slow on the next_real path


@dataclass(frozen=True)
class GeneratorSpec:
    """Complete parameter set of one generator (loaded from a .params file)."""

    name: str
    family: Family
    w: int
    n: int
    r: int  # dead low bits of the oldest ring word
    init_f: int
    init_shift: int
    a: int | None = None  # twist constant (MT, MELG)
    m: int | None = None  # single feedback tap (MT32, MT64_ID1, MELG)
    m1: int | None = None  # multi-tap feedback (MT64_ID3, WELL)
    m2: int | None = None
    m3: int | None = None
    temper: tuple[int, int, int, int, int, int, int] | None = None  # (u,d,s,b,t,c,l)
    transforms: tuple[tuple[str, int], ...] | None = None  # WELL T0..T7
    lag: int | None = None  # MELG output lag
    s1: int | None = None  # MELG lung/feedback shifts
    s2: int | None = None
    s3: int | None = None
    b: int | None = None  # MELG tempering mask

    @property
    def has_lung(self) -> bool:
        return self.family is Family.MELG

    @property
    def k(self) -> int:
        """State dimension over GF(2)."""
        return self.n * self.w - self.r + (self.w if self.has_lung else 0)

    @property
    def word_mask(self) -> int:
        return (1 << self.w) - 1

    @property
    def upper_mask(self) -> int:
        """The w - r high bits: the live bits of the oldest ring word."""
        return self.word_mask ^ self.lower_mask

    @property
    def lower_mask(self) -> int:
        """The r low bits the recurrence splices in from the next-oldest word."""
        return (1 << self.r) - 1


@dataclass(frozen=True)
class GeneratorState:
    """Raw ring snapshot: storage-order words, cursor, and optional lung."""

    words: tuple[int, ...]
    cursor: int
    lung: int | None = None


def word_dtype(spec: GeneratorSpec) -> type:
    """Array word type of a spec's ring words."""
    return np.uint32 if spec.w == 32 else np.uint64


def grid_size(spec: GeneratorSpec) -> int:
    """Number of state-grid coordinates: every bit of every word, k + r."""
    return (spec.n + (1 if spec.has_lung else 0)) * spec.w


def dead_bits(spec: GeneratorSpec) -> slice:
    """State-grid coordinates of the r dead bits: the low bits of the
    oldest ring word, which sits last among the ring words."""
    return slice(spec.n * spec.w - spec.r, spec.n * spec.w)


@lru_cache(maxsize=None)
def canonical_grid(spec: GeneratorSpec) -> np.ndarray:
    """State-grid coordinate of each canonical coordinate: the grid
    without its dead bits."""
    grid = np.delete(np.arange(grid_size(spec)), dead_bits(spec))
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def grid_canonical(spec: GeneratorSpec) -> np.ndarray:
    """Canonical coordinate of each state-grid coordinate, -1 for a dead bit."""
    canon = np.full(grid_size(spec), -1, dtype=np.int64)
    canon[canonical_grid(spec)] = np.arange(spec.k)
    canon.flags.writeable = False
    return canon


def grid_bits(
    rec: Recurrence, st: np.ndarray, cursor: int, lung: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """(state-grid coordinate, member) of every set bit of E states.

    ``st`` is an (n, E) ring at ``cursor``, laid out by ``rec.index``, and
    ``lung`` an (E,) row, or None without a lung.
    """
    n, w = rec.n, rec.spec.w
    grid_word = np.empty(n, dtype=np.int64)  # storage row -> grid word
    grid_word[rec.index(cursor, np.arange(n))] = np.arange(n - 1, -1, -1)
    # flatnonzero of a bool mask is several times faster than nonzero of words
    row, member = np.divmod(np.flatnonzero(st != 0), st.shape[1])
    word, values = grid_word[row], st[row, member]
    if lung is not None:
        lung_members = np.flatnonzero(lung)
        word = np.concatenate((word, np.full(len(lung_members), n)))
        member = np.concatenate((member, lung_members))
        values = np.concatenate((values, lung[lung_members]))
    msb_first = values.astype(values.dtype.newbyteorder(">")).view(np.uint8)
    bits = np.unpackbits(msb_first.reshape(-1, values.dtype.itemsize), axis=1)
    which, pos = np.nonzero(bits)  # pos counts from the storage word's top bit
    pad = values.dtype.itemsize * 8 - w
    return word[which] * w + pos - pad, member[which]


def set_grid_bits(
    rec: Recurrence, st: np.ndarray, lung: np.ndarray | None,
    grid: np.ndarray, member: np.ndarray,
) -> None:
    """Inverse of ``grid_bits``: set bit ``grid[i]`` of member ``member[i]``.

    ``st`` is a C-contiguous (n, E) ring at cursor 0; a member may take
    any number of bits.
    """
    n, w = rec.n, rec.spec.w
    word, bit = np.divmod(grid, w)
    ones = st.dtype.type(1) << (w - 1 - bit).astype(st.dtype)
    ring = word < n
    flat = rec.index(0, n - 1 - word[ring]) * st.shape[1] + member[ring]
    np.bitwise_or.at(st.reshape(-1), flat, ones[ring])
    if lung is not None:
        np.bitwise_or.at(lung, member[~ring], ones[~ring])


def canonical_rows(
    rec: Recurrence, st: np.ndarray, cursor: int, lung: np.ndarray | None
) -> np.ndarray:
    """Canonical state vectors of E states, one packed uint64-limb row each.

    The arguments are those of ``grid_bits``.  Rows use the BitMatrix
    format: canonical bit c is bit c % 64 of limb c // 64.
    """
    grid, member = grid_bits(rec, st, cursor, lung)
    canon = grid_canonical(rec.spec)[grid]
    live = canon >= 0
    canon, member = canon[live], member[live]
    rows = np.zeros((st.shape[1], (rec.spec.k + 63) // 64), dtype=np.uint64)
    ones = np.uint64(1) << (canon & 63).astype(np.uint64)
    np.bitwise_or.at(rows.reshape(-1), member * rows.shape[1] + (canon >> 6), ones)
    return rows


class Recurrence(ABC):
    """One family's F2-linear recurrence, on either kind of ring.

    ``step`` and ``output`` act on a ring holder with attributes ``st``
    (a list of n ints, or an (n, E) array whose rows are ring words),
    ``cursor`` and ``lung``.  Every constant is cast once by ``cast``
    (``int``, or the array's word type) so one set of expressions serves
    both; left shifts are masked explicitly because ints do not wrap.
    """

    def __init__(self, spec: GeneratorSpec, cast: Callable[[int], object]) -> None:
        self.spec = spec
        self.n = spec.n
        self.mask = cast(spec.word_mask)
        self.upper = cast(spec.upper_mask)
        self.lower = cast(spec.lower_mask)

    def index(self, cursor: int, j):
        """Storage slot of logical word j (0 = oldest); j may be an int array.

        By default the oldest word sits at the cursor and newer words follow.
        """
        return (cursor + j) % self.n

    @abstractmethod
    def step(self, ring) -> None:
        """Advance the ring one step in place, moving its cursor."""

    @abstractmethod
    def output(self, ring):
        """Output word(s) of the ring's current (already advanced) state."""


class Generator:
    """Scalar (single-stream) generator: a ring of plain Python ints."""

    def __init__(self, rec: Recurrence, seed: int | None = None) -> None:
        self.rec = rec
        self.spec = spec = rec.spec
        self.st: list[int] = [0] * spec.n
        self.cursor = 0
        self.lung: int | None = 0 if spec.has_lung else None
        if seed is not None:
            self.seed(seed)

    # -- seeding -------------------------------------------------------

    def seed(self, seed: int) -> None:
        """Knuth-style multiplicative fill from a w-bit seed; the lung continues it."""
        spec = self.spec
        mask = spec.word_mask
        if not 0 <= seed <= mask:
            raise ValueError(
                f"{spec.name} seeds are {spec.w}-bit words in [0, 2^{spec.w}), got {seed:#x}"
            )
        st = self.st
        st[0] = seed
        for i in range(1, spec.n):
            prev = st[i - 1]
            st[i] = (spec.init_f * (prev ^ (prev >> spec.init_shift)) + i) & mask
        self.cursor = 0
        if spec.has_lung:
            prev = st[spec.n - 1]
            self.lung = (spec.init_f * (prev ^ (prev >> spec.init_shift)) + spec.n) & mask

    # -- stepping --------------------------------------------------------

    def step(self) -> None:
        """Advance the recurrence one step (no output)."""
        self.rec.step(self)

    def next_word(self) -> int:
        rec = self.rec
        rec.step(self)
        return rec.output(self)

    def next_real(self) -> float:
        """Float in [0, 1) using the family's published conversion."""
        spec = self.spec
        if spec.family is _WELL:
            return self.next_word() * _INV32
        if spec.w == 32:
            hi = self.next_word() >> 5
            lo = self.next_word() >> 6
            return (hi * 67108864.0 + lo) * _INV53
        return (self.next_word() >> 11) * _INV53

    # -- state access ----------------------------------------------------

    def get_raw_state(self) -> GeneratorState:
        return GeneratorState(tuple(self.st), self.cursor, self.lung)

    def set_raw_state(self, state: GeneratorState) -> None:
        spec = self.spec
        n = spec.n
        if len(state.words) != n:
            raise ValueError(f"expected {n} words, got {len(state.words)}")
        if spec.has_lung != (state.lung is not None):
            raise ValueError("lung presence does not match the generator family")
        mask = spec.word_mask
        # Rotate so the cursor lands on zero; logical order is preserved
        # because every family keeps consecutive logical words consecutive
        # in storage.
        self.st = [state.words[(state.cursor + t) % n] & mask for t in range(n)]
        self.cursor = 0
        self.st[self.rec.index(0, 0)] &= spec.upper_mask
        self.lung = (state.lung & mask) if spec.has_lung else None

    def state_vector(self) -> BitVector:
        spec = self.spec
        dt = word_dtype(spec)
        st = np.array(self.st, dtype=dt)[:, None]  # the ring as a 1-member ensemble
        lung = np.array([self.lung], dtype=dt) if spec.has_lung else None
        return BitVector.from_limbs(canonical_rows(self.rec, st, self.cursor, lung)[0], spec.k)

    def set_state_vector(self, v: BitVector) -> None:
        spec = self.spec
        if v.length != spec.k:
            raise ValueError(f"expected {spec.k} bits, got {v.length}")
        dt = word_dtype(spec)
        st = np.zeros((spec.n, 1), dtype=dt)
        lung = np.zeros(1, dtype=dt) if spec.has_lung else None
        bits = np.unpackbits(v.to_limbs().view(np.uint8), count=spec.k, bitorder="little")
        grid = canonical_grid(spec)[np.flatnonzero(bits)]
        set_grid_bits(self.rec, st, lung, grid, np.zeros(len(grid), dtype=np.int64))
        self.st = st[:, 0].tolist()
        self.cursor = 0
        self.lung = int(lung[0]) if spec.has_lung else None
