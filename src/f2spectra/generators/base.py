"""Generator specs, the canonical state-bit layout and its codec.

Every generator here updates a ring of n w-bit words (plus, for the MELG
family, one extra w-bit "lung" word) by an F2-linear recurrence, so the
full state is a vector over GF(2).  The canonical coordinates used
throughout the package enumerate that vector as:

    newest ring word first, oldest ring word last, most-significant bit
    first within each word; the r dead low bits of the oldest word (the
    bits the recurrence never reads) are skipped; the lung, when
    present, contributes its w bits last.

That yields exactly k coordinates, k = n*w - r (+ w when there is a
lung).  ``canonical_layout`` is that definition; ``pack_rows`` and
``unpack_rows`` beside it are the one codec between word arrays and
canonical vectors, used by ``Ensemble.state_rows`` and, one lane at a
time, by ``Generator.state_vector``/``set_state_vector``.

The *state grid* is the same enumeration with the dead bits kept: k + r
coordinates, of which the canonical ones are ``canonical_grid``.  No
bundled recurrence reads the dead bits, but an output map may (a MELG
lag of 1 reads the whole oldest word), so the one-step probes of
``ensemble`` work on the grid.

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

#: Sentinel "logical word index" marking lung coordinates in the layout.
LUNG_WORD = -1

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


@lru_cache(maxsize=None)
def canonical_layout(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Map canonical index -> (logical word, bit position), as two arrays.

    Logical word 0 is the oldest ring word and n-1 the newest; LUNG_WORD
    marks lung coordinates.  Both arrays have length ``spec.k``.
    """
    words: list[int] = []
    bits: list[int] = []
    for j in range(spec.n - 1, -1, -1):
        low = spec.r if j == 0 else 0
        for bpos in range(spec.w - 1, low - 1, -1):
            words.append(j)
            bits.append(bpos)
    if spec.has_lung:
        for bpos in range(spec.w - 1, -1, -1):
            words.append(LUNG_WORD)
            bits.append(bpos)
    assert len(words) == spec.k
    return np.array(words, dtype=np.int64), np.array(bits, dtype=np.int64)


def _grid_positions(spec: GeneratorSpec, width: int) -> np.ndarray:
    """Position of each canonical coordinate in a grid of ``width``-bit
    slots: the logical words newest first, then the lung, each most
    significant bit first."""
    wds, bts = canonical_layout(spec)
    return np.where(wds == LUNG_WORD, spec.n, spec.n - 1 - wds) * width + (width - 1 - bts)


def grid_size(spec: GeneratorSpec) -> int:
    """Number of state-grid coordinates: every bit of every word, k + r."""
    return (spec.n + (1 if spec.has_lung else 0)) * spec.w


@lru_cache(maxsize=None)
def canonical_grid(spec: GeneratorSpec) -> np.ndarray:
    """State-grid coordinate of each canonical coordinate.

    The state grid holds every bit of every word, dead bits included: the
    logical words newest first, then the lung, w bits each, most
    significant bit first.  Canonical order is grid order with the r dead
    bits (grid coordinates n*w - r .. n*w - 1) left out.
    """
    return _grid_positions(spec, spec.w)


@lru_cache(maxsize=None)
def _grid_runs(spec: GeneratorSpec) -> tuple[tuple[int, int], ...]:
    """Where the canonical coordinates sit in the bit grid of all storage words.

    That grid is the state grid of ``canonical_grid`` with each word
    widened to its storage word.  Canonical order follows grid order, so
    the coordinates fill a few runs [start, stop) of consecutive grid
    bits: one gap for the dead bits, plus one per word when words are
    narrower than their storage.
    """
    pos = _grid_positions(spec, np.dtype(word_dtype(spec)).itemsize * 8)
    cuts = np.flatnonzero(np.diff(pos) != 1) + 1
    starts = pos[np.r_[0, cuts]]
    stops = pos[np.r_[cuts - 1, len(pos) - 1]] + 1
    return tuple(zip(starts.tolist(), stops.tolist()))


def pack_rows(spec: GeneratorSpec, words: np.ndarray, lung: np.ndarray | None) -> np.ndarray:
    """Canonical state vectors of E states, one packed uint64-limb row each.

    ``words`` is an (n, E) array whose row j is logical word j (0 = oldest)
    of every state; ``lung`` is an (E,) array, or None without a lung.
    Rows use the BitMatrix format: canonical bit c is bit c % 64 of limb
    c // 64.
    """
    cols = list(words[::-1]) + ([lung] if spec.has_lung else [])
    grid = np.stack(cols, axis=1).astype(np.dtype(word_dtype(spec)).newbyteorder(">"))
    size = grid.shape[0]
    bits = np.unpackbits(grid.view(np.uint8).reshape(size, -1), axis=1)
    k = 0
    for a, b in _grid_runs(spec):  # close the gaps in place, left to right
        if a != k:
            bits[:, k : k + b - a] = bits[:, a:b]
        k += b - a
    packed = np.packbits(bits[:, :k], axis=1, bitorder="little")
    limbs = (spec.k + 63) // 64
    rows = np.zeros((size, limbs), dtype=np.uint64)
    rows.view(np.uint8)[:, : packed.shape[1]] = packed
    return rows


def unpack_rows(spec: GeneratorSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of ``pack_rows``: (words, lung) holding the states in ``rows``."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    size = rows.shape[0]
    canon = np.unpackbits(rows.view(np.uint8), axis=1, count=spec.k, bitorder="little")
    dt = np.dtype(word_dtype(spec))
    slots = spec.n + (1 if spec.has_lung else 0)
    bits = np.zeros((size, slots * dt.itemsize * 8), dtype=np.uint8)
    c = 0
    for a, b in _grid_runs(spec):
        bits[:, a:b] = canon[:, c : c + b - a]
        c += b - a
    grid = np.packbits(bits, axis=1).view(dt.newbyteorder(">")).astype(dt)
    return grid[:, spec.n - 1 :: -1].T, (grid[:, spec.n] if spec.has_lung else None)


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
        """Knuth-style multiplicative fill; the lung continues the fill."""
        spec = self.spec
        mask = spec.word_mask
        st = self.st
        st[0] = seed & mask
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
        order = self.rec.index(self.cursor, np.arange(spec.n))
        words = np.array(self.st, dtype=dt)[order, None]
        lung = np.array([self.lung], dtype=dt) if spec.has_lung else None
        return BitVector.from_limbs(pack_rows(spec, words, lung)[0], spec.k)

    def set_state_vector(self, v: BitVector) -> None:
        spec = self.spec
        if v.length != spec.k:
            raise ValueError(f"expected {spec.k} bits, got {v.length}")
        words, lung = unpack_rows(spec, v.to_limbs()[None, :])
        st = np.empty(spec.n, dtype=words.dtype)
        st[self.rec.index(0, np.arange(spec.n))] = words[:, 0]
        self.st = st.tolist()
        self.cursor = 0
        self.lung = int(lung[0]) if spec.has_lung else None
