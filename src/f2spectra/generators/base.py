"""Generator specs, the state-bit layout and its codec.

Every generator here updates a ring of n w-bit words (plus, for the MELG
family, one extra w-bit "lung" word) by an F2-linear recurrence, so the
full state is a vector over GF(2).  Every ring is held in *logical order*,
oldest word first: the scalar ``Generator`` below holds a list of n ints,
and ``ensemble.Ensemble`` an (n, E) word array, one column per member.
Steps run along a *stream* of n + count words whose first n words are
the ring: the step from window start c reads its operands at fixed
offsets from c and writes the new newest word at c + n, so the last n
words of the stream are the advanced ring.

The package reads the state in one order, the *state grid*:

    newest ring word first, oldest ring word last, then the lung when
    present; w bits per word, most-significant bit first.

So grid word g is logical word n - 1 - g, and the grid has
(n + 1 if lung else n) * w coordinates.  The r low bits of the oldest
word, grid coordinates n*w - r .. n*w - 1 (``dead_bits``), are dead: the
recurrence never reads them.  The *canonical coordinates* are the grid with that one range left
out, k = n*w - r (+ w with a lung) of them; ``canonical_grid`` and
``grid_canonical`` map between the two.  No bundled recurrence reads the
dead bits, but an output map may (a MELG lag of 1 reads the whole oldest
word), so the one-step probes of ``ensemble`` work on the grid.

``grid_bits`` and its inverse ``set_grid_bits`` are the one codec
between word arrays and grid coordinates.  They act on an (n, E) window
of E states; ``Generator.state_vector``/``set_state_vector`` pass the
scalar ring as a 1-member array, and ``canonical_rows`` turns grid bits
into packed canonical vectors for them and for ``Ensemble.state_rows``.

The one other word order is that of seed files and ``GeneratorState``:
oldest word first for MT and MELG, newest first for WELL, as the
published WELL code stores its ring.  ``Recurrence.newest_first`` records
it, and only ``Generator.seed``, ``get_raw_state`` and ``set_raw_state``
read it.

Each family's recurrence is a ``Recurrence`` subclass in ``mt.py``,
``well.py`` or ``melg.py``, in two forms that advance the same stream
and read the same offsets.  The per-step loop
``run(buf, count, lung, out=None)`` runs unchanged on a list of ints and
on a word array whose rows are an ensemble's words, and appends each
step's output word to ``out``, from the state the step leaves.  The
block path ``blocks(buf, count, lung, emit)`` runs on a word array and
computes up to ``span`` new words per numpy pass, where ``span`` is the
longest run of steps in which no step reads a word an earlier step of
the run wrote.

``advance_stream`` is the one place that chooses between the two: it
advances a ring along one word array, forming the output words or not,
and ``Generator.step``, ``next_word`` and ``word_array`` (so ``words``
and ``reals``), the Horner walk of ``gf2poly`` and ``stream_states``,
which gives the walk's table its first states, all call it.  A family
with a long span (the five k = 19937 generators) takes the block path at
every count; the k <= 1024 generators, whose spans are 3-8 words, take
the per-step loop on one list copy of the stream.  The per-step loop is
also the oracle the tests hold the block path to, and
``ensemble.probe_images`` and ``Ensemble.step`` run it on their streams
directly.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from ..bitlinalg import BitVector

_INV32 = 1.0 / 4294967296.0  # 2^-32
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

#: ``advance_stream`` takes the block path on a family whose span is at
#: least ``_BLOCK_SPAN`` steps, and the per-step loop otherwise.  A numpy
#: pass costs 15-45 us, as much as 10 MT, 30 WELL or 40 MELG steps (WELL's
#: pass leaves a 0.45 us chain step per word), so those are the spans
#: from which the block path pays; the bundled spans are 3-8 and 70-230.
_BLOCK_SPAN = 40


class Family(enum.Enum):
    MT32 = "MT32"
    MT64_ID1 = "MT64_ID1"
    MT64_ID3 = "MT64_ID3"
    WELL = "WELL"
    MELG = "MELG"


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
    """Raw ring snapshot in seed-file order, and the lung if any.

    ``words`` runs oldest word first for MT and MELG, and newest word
    first for WELL, as the published WELL code stores its ring.
    """

    words: tuple[int, ...]
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
    without its dead bits.  Coordinates fit int32, half the cached bytes."""
    grid = np.delete(np.arange(grid_size(spec), dtype=np.int32), dead_bits(spec))
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def grid_canonical(spec: GeneratorSpec) -> np.ndarray:
    """Canonical coordinate of each state-grid coordinate, -1 for a dead bit."""
    canon = np.full(grid_size(spec), -1, dtype=np.int32)
    canon[canonical_grid(spec)] = np.arange(spec.k)
    canon.flags.writeable = False
    return canon


def grid_bits(
    spec: GeneratorSpec, st: np.ndarray, lung: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """(state-grid coordinate, member) of every set bit of E states.

    ``st`` holds the newest rows of an (n, E) window in logical order:
    all n of them, or fewer, whose bits then fall in the first grid
    words.  ``lung`` is an (E,) row, or None without a lung.
    """
    n, w = spec.n, spec.w
    # flatnonzero of a bool mask is several times faster than nonzero of words
    row, member = np.divmod(np.flatnonzero(st != 0), st.shape[1])
    word, values = len(st) - 1 - row, st[row, member]  # grid word g is the g-th newest row
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
    spec: GeneratorSpec, st: np.ndarray, lung: np.ndarray | None,
    grid: np.ndarray, member: np.ndarray,
) -> None:
    """Inverse of ``grid_bits``: set bit ``grid[i]`` of member ``member[i]``.

    ``st`` is a C-contiguous (n, E) window; a member may take any number
    of bits.
    """
    n, w = spec.n, spec.w
    word, bit = np.divmod(grid, w)
    ones = st.dtype.type(1) << (w - 1 - bit).astype(st.dtype)
    ring = word < n
    flat = (n - 1 - word[ring]) * st.shape[1] + member[ring]
    np.bitwise_or.at(st.reshape(-1), flat, ones[ring])
    if lung is not None:
        np.bitwise_or.at(lung, member[~ring], ones[~ring])


def canonical_rows(spec: GeneratorSpec, st: np.ndarray, lung: np.ndarray | None) -> np.ndarray:
    """Canonical state vectors of E states, one packed uint64-limb row each.

    The arguments are those of ``grid_bits``.  Rows use the BitMatrix
    format: canonical bit c is bit c % 64 of limb c // 64.
    """
    grid, member = grid_bits(spec, st, lung)
    canon = grid_canonical(spec)[grid]
    live = canon >= 0
    canon, member = canon[live], member[live]
    rows = np.zeros((st.shape[1], (spec.k + 63) // 64), dtype=np.uint64)
    ones = np.uint64(1) << (canon & 63).astype(np.uint64)
    np.bitwise_or.at(rows.reshape(-1), member * rows.shape[1] + (canon >> 6), ones)
    return rows


class Recurrence(ABC):
    """One family's F2-linear recurrence, on either kind of stream.

    ``run`` and ``blocks`` both advance a stream ``buf`` of n + count
    words whose first n words are the ring, oldest word first: ``run`` a
    list of ints or an array whose rows are words, ``blocks`` a word
    array.  Every constant is cast once by ``cast`` (``int``, or the
    array's word type) so one set of expressions serves both; left shifts
    are masked explicitly because ints do not wrap.

    ``run`` is the family's per-step loop.  The step from window start c
    reads its operands at fixed offsets from c and writes the new newest
    word at c + n; ``blocks`` reads the same offsets from j.  A step
    writes only words c + n - 1 (WELL rewrites it) and c + n, and the
    lung: words c .. c + n - 2 stay as they were, each one grid word
    further on.  ``advance_stream``'s copy back from word n - 1 and
    ``ensemble.probe_images`` rely on it.  ``reads`` holds the offsets
    from c, all below n, of the ring words that the step and its output
    word read besides the lung; a word at any other offset changes
    neither what the step writes nor what it emits, and
    ``ensemble.probe_images`` steps only the unit vectors in these words.
    ``span`` is the most steps the block path computes in one numpy pass;
    0 turns it off.  ``advance_stream`` chooses between the two, and runs
    ``blocks`` on ``block_form``.  ``newest_first`` is the seed-file word
    order (see the module docstring).
    """

    newest_first = False
    span = 0
    reads: tuple[int, ...]

    def __init__(self, spec: GeneratorSpec, cast: Callable[[int], object]) -> None:
        self.spec = spec
        self.n = spec.n
        self.mask = cast(spec.word_mask)
        self.upper = cast(spec.upper_mask)
        self.lower = cast(spec.lower_mask)

    @abstractmethod
    def run(self, buf, count: int, lung, out: list | None = None):
        """Advance one stream ``count`` steps, one step at a time.

        ``buf`` holds n + count words, the first n of them the ring in
        logical order; on return its last n words are the advanced ring.
        ``lung`` is the lung word (an (E,) row on an ensemble), or None.
        When ``out`` is a list, append each step's output word to it.
        Returns the new lung.
        """

    @abstractmethod
    def blocks(self, buf: np.ndarray, count: int, lung, emit: bool):
        """Advance one stream ``count`` steps, ``span`` steps per numpy pass.

        ``buf`` holds n + count words, the first n of them the ring in
        logical order; on return its last n words are the advanced ring.
        ``lung`` is the lung word, or None.  Returns the ``count`` output
        words as an array, or None unless ``emit``, and the new lung.  The
        instance's constants must be cast to ``buf``'s word type.
        """

    @cached_property
    def block_form(self) -> "Recurrence":
        """This recurrence with its constants cast to its word type, for
        the block path; resolved once per instance."""
        return _array_recurrence(type(self), self.spec)


@lru_cache(maxsize=None)
def _array_recurrence(family: type[Recurrence], spec: GeneratorSpec) -> Recurrence:
    """The recurrence of ``spec`` with its constants cast to its word type,
    for the block path."""
    return family(spec, word_dtype(spec))


def _words(values: list[int], dtype: np.dtype) -> np.ndarray:
    """A list of words as a word array."""
    # array.array reads a list of ints about twice as fast as np.array
    return np.frombuffer(array(dtype.char, values), dtype=dtype)


def advance_stream(rec: Recurrence, stream: np.ndarray, count: int, lung, emit: bool = True):
    """Advance the ring ``stream[:n]`` ``count`` steps along ``stream``.

    ``stream`` is a word array of n + count words, the ring first in
    logical order; on return it holds every word the steps wrote, so
    ``stream[count:]`` is the advanced ring.  ``rec`` is the family's
    recurrence with int constants, and ``lung`` the lung word, or None.
    Returns the ``count`` output words as a word array, or None unless
    ``emit`` (no output map runs then), and the new lung.

    A family whose span is at least ``_BLOCK_SPAN`` takes the block path
    at every count.  The others run the per-step loop on one list copy of
    the stream and copy it back from word n - 1 on, not n: a WELL step
    also rewrites the word before the one it appends.
    """
    if rec.span >= _BLOCK_SPAN:
        return rec.block_form.blocks(stream, count, lung, emit)
    buf, out = stream.tolist(), [] if emit else None
    lung = rec.run(buf, count, lung, out)
    stream[rec.n - 1 :] = _words(buf[rec.n - 1 :], stream.dtype)
    return (None if out is None else _words(out, stream.dtype)), lung


def stream_states(gen: Generator, count: int) -> np.ndarray:
    """The states of ``gen`` after 0 .. count - 1 steps, one row each: the
    ring oldest word first, then the lung when present.  ``gen`` does not
    move.

    The rows come from one stream of n + count - 1 words that
    ``advance_stream`` runs: state i is the window ``stream[i : i + n]``,
    with two exceptions.  A WELL step rewrites the word before the one it
    appends, so the stream keeps each step's z3 where its state had the
    newest word; that word is the one the step before emits.  A MELG
    state's lung is not in the stream; ``Melg.lungs`` reads it back.
    """
    spec, rec = gen.spec, gen.rec
    n, dtype = spec.n, np.dtype(word_dtype(spec))
    stream = np.empty(n + count - 1, dtype=dtype)
    stream[:n] = _words(gen.window, dtype)
    newest = stream[n - 1]
    well = spec.family is Family.WELL
    words, _ = advance_stream(rec, stream, count - 1, gen.lung, emit=well)
    states = np.empty((count, n + (1 if spec.has_lung else 0)), dtype=dtype)
    states[:, :n] = np.lib.stride_tricks.sliding_window_view(stream, n)
    if well:
        states[0, n - 1] = newest
        states[1:, n - 1] = words
    if spec.has_lung:
        states[0, n] = gen.lung
        states[1:, n] = rec.block_form.lungs(stream, count - 1)
    return states


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


class Generator:
    """Scalar (single-stream) generator: ``window``, a ring of n plain
    Python ints, oldest word first, and ``lung``, an int or None."""

    def __init__(self, rec: Recurrence, seed: int | None = None) -> None:
        self.rec = rec
        self.spec = spec = rec.spec
        self.window: list[int] = [0] * spec.n
        self.lung: int | None = 0 if spec.has_lung else None
        if seed is not None:
            self.seed(seed)

    # -- seeding -------------------------------------------------------

    def seed(self, seed: int) -> None:
        """Knuth-style multiplicative fill from a w-bit seed, in seed-file
        order; the lung continues it."""
        spec = self.spec
        mask = spec.word_mask
        if not 0 <= seed <= mask:
            raise ValueError(
                f"{spec.name} seeds are {spec.w}-bit words in [0, 2^{spec.w}), got {seed:#x}"
            )
        words = [seed]
        for i in range(1, spec.n + (1 if spec.has_lung else 0)):
            prev = words[-1]
            words.append((spec.init_f * (prev ^ (prev >> spec.init_shift)) + i) & mask)
        if spec.has_lung:
            self.lung = words.pop()
        if self.rec.newest_first:
            words.reverse()
        self.window = words

    # -- stepping --------------------------------------------------------

    def _advance(self, count: int, emit: bool) -> np.ndarray | None:
        """Advance ``count`` steps: the ring is copied into a stream of
        n + count words, advanced there by ``advance_stream`` and copied
        back.  Returns the output words as a word array, or None unless
        ``emit``."""
        _check_count(count)
        n, dtype = self.spec.n, np.dtype(word_dtype(self.spec))
        stream = np.empty(n + count, dtype=dtype)
        stream[:n] = _words(self.window, dtype)
        words, self.lung = advance_stream(self.rec, stream, count, self.lung, emit)
        self.window = stream[count:].tolist()
        return words

    def step(self, count: int = 1) -> None:
        """Advance the recurrence ``count`` steps (no output)."""
        self._advance(count, emit=False)

    def word_array(self, count: int) -> np.ndarray:
        """The next ``count`` output words, as one word array."""
        return self._advance(count, emit=True)

    def words(self, count: int) -> list[int]:
        """The next ``count`` output words."""
        return self.word_array(count).tolist()

    def reals(self, count: int) -> list[float]:
        """The next ``count`` floats in [0, 1), by the family's published
        conversion: WELL scales one 32-bit word, MT32 joins the top 27 and
        26 bits of two words into 53, and 64-bit words keep their top 53.
        Every step of each conversion is exact in float64."""
        _check_count(count)
        spec = self.spec
        if spec.family is Family.WELL:
            return (self.word_array(count) * _INV32).tolist()
        if spec.w == 32:
            words = self.word_array(2 * count)
            return (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * _INV53).tolist()
        return ((self.word_array(count) >> 11) * _INV53).tolist()

    def next_word(self) -> int:
        """The next output word."""
        return int(self._advance(1, emit=True)[0])

    # -- state access ----------------------------------------------------

    def get_raw_state(self) -> GeneratorState:
        words = list(self.window)
        if self.rec.newest_first:
            words.reverse()
        return GeneratorState(tuple(words), self.lung)

    def set_raw_state(self, state: GeneratorState) -> None:
        spec = self.spec
        if len(state.words) != spec.n:
            raise ValueError(f"expected {spec.n} words, got {len(state.words)}")
        if spec.has_lung != (state.lung is not None):
            raise ValueError("lung presence does not match the generator family")
        mask = spec.word_mask
        words = [word & mask for word in state.words]
        if self.rec.newest_first:
            words.reverse()
        words[0] &= spec.upper_mask  # the oldest word's dead bits
        self.window = words
        self.lung = (state.lung & mask) if spec.has_lung else None

    def state_vector(self) -> BitVector:
        spec = self.spec
        dt = word_dtype(spec)
        st = np.array(self.window, dtype=dt)[:, None]  # the ring as a 1-member ensemble
        lung = np.array([self.lung], dtype=dt) if spec.has_lung else None
        return BitVector.from_limbs(canonical_rows(spec, st, lung)[0], spec.k)

    def set_state_vector(self, v: BitVector) -> None:
        spec = self.spec
        if v.length != spec.k:
            raise ValueError(f"expected {spec.k} bits, got {v.length}")
        dt = word_dtype(spec)
        st = np.zeros((spec.n, 1), dtype=dt)
        lung = np.zeros(1, dtype=dt) if spec.has_lung else None
        bits = np.unpackbits(v.to_limbs().view(np.uint8), count=spec.k, bitorder="little")
        grid = canonical_grid(spec)[np.flatnonzero(bits)]
        set_grid_bits(spec, st, lung, grid, np.zeros(len(grid), dtype=np.int64))
        self.window = st[:, 0].tolist()
        self.lung = int(lung[0]) if spec.has_lung else None
