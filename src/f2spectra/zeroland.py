"""Hamming-weight diagnostics: how fast generators escape zeroland.

States with almost every bit zero ("zeroland") are near the fixed
point of an F2-linear map, and a generator started there emits heavily
zero-biased words until the recurrence has mixed the lone set bit
through the state.  The diagnostic statistic is a moving average of
output Hamming weights,

    gamma_{n,p} = (1 / (p k w)) * sum_{i=n}^{n+p-1} sum_{j=1}^{k} H(y_i^(j)),

taken over an ensemble of k initial states (one per unit vector of the
state space, the measure of Panneton, L'Ecuyer & Matsumoto, "Improved
long-period generators based on linear recurrences modulo 2", ACM TOMS
32 (2006)) or a single trajectory (k = 1) replayed from a stored
seed.  For balanced output gamma is approximately normal with mean 1/2
and variance 1/(4 p k w).

The ensemble sweep steps no lanes.  Lane j's output after i steps is
T B^i e_j, with T the output map and B the one-step matrix, so the
ensemble total at step i is the weight of the k canonical columns of
U_i = T B^i, one w-bit word per column.  The adjoint recurrence
U_{i+1} = U_i B moves those columns instead of the k lanes: B shifts
all but a few hundred coordinates by one word, so a step rewrites only
those few columns of U.  U has a column for every coordinate of the
state grid (``generators.base.canonical_grid``), dead bits included: an
output may read the dead bits (a MELG lag of 1 reads the whole oldest
word), so leaving them out of U changes the totals even though no lane
starts there.

Word-size normalization: to compare 32- and 64-bit generators on one
axis, one iteration of a 64-bit generator counts as two normalized
iterations and window lengths given in normalized units are halved
internally.  Traces store the actual window length ``p`` used, their
``normalization`` factor (1 or 2), and index positions in actual
iterations; the normalized axis is ``normalization * index``.

Argument errors name ``p`` and ``max_n`` by the ``zeroland`` command's
flags, ``--p`` and ``--max-n``, which pass them through unchanged, and
give both values as resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .generators import GeneratorSpec, get_spec, make_generator
from .generators.base import Generator, GeneratorState, dead_bits
from .generators.ensemble import probe_grid

#: Band half-width used by trace exports, in sigma units.
DEFAULT_BAND_SIGMAS = 2.0


def hamming(word: int) -> int:
    """Number of set bits."""
    if word < 0:
        raise ValueError("words are unsigned")
    return word.bit_count()


@dataclass(frozen=True)
class ZerolandTrace:
    """Moving-average weight trace.

    ``values[i]`` is gamma for the window of ``p`` actual iterations
    starting at actual iteration i; the normalized position of index i
    is ``normalization * i``.  ``sigma`` is the null-hypothesis standard
    deviation 1/sqrt(4 p k w) for the stored (actual) window length.
    """

    values: np.ndarray
    p: int
    k_ensemble: int
    w: int
    normalization: int
    sigma: float

    def __post_init__(self) -> None:
        if self.p < 1 or self.k_ensemble < 1 or self.w < 1:
            raise ValueError("p, k_ensemble, w must be >= 1")
        if self.normalization not in (1, 2):
            raise ValueError("normalization factor must be 1 or 2")

    def normalized_positions(self) -> np.ndarray:
        return np.arange(len(self.values), dtype=np.int64) * self.normalization


def _normalization(spec: GeneratorSpec) -> int:
    return 2 if spec.w == 64 else 1


def _sigma(p: int, k: int, w: int) -> float:
    return 1.0 / math.sqrt(4.0 * p * k * w)


def _window_means(totals: np.ndarray, p: int, per_step_bits: int) -> np.ndarray:
    csum = np.concatenate(([0], np.cumsum(totals, dtype=np.int64)))
    sums = csum[p:] - csum[:-p]
    return sums / float(p * per_step_bits)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D word array."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _adjoint_weight_totals(spec: GeneratorSpec, steps: int, threads: int | None) -> np.ndarray:
    """Total output weight of the k unit-vector lanes after 1..steps steps.

    U_i[j] = T B^i e_j over the state grid, one word per coordinate j, so
    U_0 = T, U_{i+1}[j] is the XOR of U_i[r] over the rows r of B's column
    j, and a step's total is the weight of U_i over the canonical j.
    B = S ^ R, where S moves every coordinate down by delta (the commonest
    positive row - col offset of B's nonzeros) and R holds the rest,
    including the entries that cancel S where B lacks them.  U lives in
    the window buf[off : off + size] of a buffer of twice that size, zero
    beyond the window, so S is ``off += delta`` and a step rewrites only
    R's columns.  The window's weight changes by the words that leave it
    and by the rewritten words; the dead-bit columns, which hold no lane,
    are taken off each total.  Weights are counted once per run of steps
    between two moves of the window back to the front of the buffer.
    """
    rows, cols, u = probe_grid(spec, threads)
    size = len(u)
    offsets = rows - cols
    delta = 1 + int(np.argmax(np.bincount(offsets[offsets > 0], minlength=2)[1:]))
    shifted = np.arange(size - delta)
    r_codes = np.setxor1d(cols * size + rows, shifted * size + shifted + delta)
    r_cols, r_rows = np.divmod(r_codes, size)  # sorted by column
    touched, starts = np.unique(r_cols, return_index=True)
    dead = dead_bits(spec)
    buf = np.zeros(2 * size, dtype=u.dtype)
    buf[:size] = u
    run = size // delta
    leave = np.empty((run, delta), dtype=u.dtype)
    old = np.empty((run, len(touched)), dtype=u.dtype)
    new = np.empty_like(old)
    dead_words = np.empty((run, spec.r), dtype=u.dtype)
    totals = np.empty(steps, dtype=np.int64)
    weight = int(np.bitwise_count(u).sum())
    for done in range(0, steps, run):
        count = min(run, steps - done)
        off = 0
        for i in range(count):
            window = buf[off : off + size]
            fix = np.bitwise_xor.reduceat(window[r_rows], starts)
            leave[i] = window[:delta]
            off += delta
            window = buf[off : off + size]
            old[i] = window[touched]
            np.bitwise_xor(old[i], fix, out=new[i])
            window[touched] = new[i]
            dead_words[i] = window[dead]
        change = _popcounts(new[:count]) - _popcounts(old[:count]) - _popcounts(leave[:count])
        running = weight + np.cumsum(change)
        totals[done : done + count] = running - _popcounts(dead_words[:count])
        weight = int(running[-1])
        buf[:size] = buf[off : off + size]
        buf[size:] = 0
    return totals


def unit_seed_sweep(
    spec: GeneratorSpec,
    p: int,
    max_n: int,
    threads: int | None = None,
) -> ZerolandTrace:
    """Ensemble gamma trace over all k unit-vector initial states.

    ``p`` and ``max_n`` are in normalized iterations; for 64-bit
    generators they are halved internally (both must be even there).
    The totals come from the output map evolved by the adjoint
    (``_adjoint_weight_totals``); ``threads`` workers run its one-step
    probe, whose parts are joined in lane order, so the trace is
    bit-identical for every thread count.
    """
    nu = _normalization(spec)
    if p < 1 or max_n < p:
        raise ValueError(f"need 1 <= --p <= --max-n, got --p {p} and --max-n {max_n}")
    if p % nu or max_n % nu:
        raise ValueError(
            f"--p and --max-n must be multiples of {nu} for w={spec.w}, "
            f"got --p {p} and --max-n {max_n}"
        )
    p_act = p // nu
    k = spec.k
    totals = _adjoint_weight_totals(spec, max_n // nu, threads)
    values = _window_means(totals, p_act, k * spec.w)
    return ZerolandTrace(
        values=values,
        p=p_act,
        k_ensemble=k,
        w=spec.w,
        normalization=nu,
        sigma=_sigma(p_act, k, spec.w),
    )


def trajectory_trace(gen: Generator, p: int, max_n: int) -> ZerolandTrace:
    """Single-trajectory gamma trace from the generator's current state.

    ``p`` is the actual window length (no normalization is applied to
    it); ``max_n`` is in normalized iterations.
    """
    spec = gen.spec
    nu = _normalization(spec)
    if p < 1:
        raise ValueError(f"need --p >= 1, got --p {p}")
    if max_n % nu:
        raise ValueError(f"--max-n must be a multiple of {nu} for w={spec.w}, got --max-n {max_n}")
    steps = max_n // nu
    if steps < p:
        raise ValueError(
            f"--max-n {max_n} gives {steps} actual iterations, fewer than the window --p {p}"
        )
    totals = np.empty(steps, dtype=np.int64)
    for i in range(steps):
        totals[i] = hamming(gen.next_word())
    values = _window_means(totals, p, spec.w)
    return ZerolandTrace(
        values=values,
        p=p,
        k_ensemble=1,
        w=spec.w,
        normalization=nu,
        sigma=_sigma(p, 1, spec.w),
    )


def balanced_time(trace: ZerolandTrace, band_sigmas: float = DEFAULT_BAND_SIGMAS) -> int | None:
    """First normalized iteration whose window mean lies within
    0.5 +/- band_sigmas*sigma, or None if the trace never gets there.

    The band uses the idealized fair-coin sigma = 1/sqrt(4pkw).  A
    unit-seed ensemble shares one transition matrix across lanes, so at
    equilibrium its window means keep fluctuating a few multiples of
    that sigma; demanding a sustained in-band run would report a time
    far past the visible equilibration knee (or nothing at all).  First
    entry is what the escape times quoted for these generators measure.
    """
    band = band_sigmas * trace.sigma
    in_band = np.abs(trace.values - 0.5) <= band
    hits = np.flatnonzero(in_band)
    if len(hits) == 0:
        return None
    return int(hits[0]) * trace.normalization


# -- stored seeds -----------------------------------------------------------


def _seed_word(literal: str, lineno: int) -> int:
    try:
        return int(literal, 0)
    except ValueError:
        raise ValueError(f"line {lineno}: not an integer: {literal!r}") from None


def parse_seed_text(text: str, spec: GeneratorSpec) -> GeneratorState:
    """Seed file body -> full generator state.

    One w-bit hex word per line in state-array order (cursor at its
    canonical start); generators with a lung carry it on the final
    line, tagged ``lung=``. ``#`` starts a comment.
    """
    words: list[int] = []
    lung: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("lung="):
            if lung is not None:
                raise ValueError(f"line {lineno}: duplicate lung entry")
            lung = _seed_word(line[len("lung="):], lineno)
            continue
        if lung is not None:
            raise ValueError(f"line {lineno}: state words after the lung entry")
        words.append(_seed_word(line, lineno))
    if len(words) != spec.n:
        raise ValueError(f"expected {spec.n} state words, found {len(words)}")
    if spec.has_lung and lung is None:
        raise ValueError("missing lung= entry for a lung-bearing generator")
    if not spec.has_lung and lung is not None:
        raise ValueError("unexpected lung= entry for this generator")
    mask = spec.word_mask
    if any(word > mask or word < 0 for word in words) or (lung or 0) > mask:
        raise ValueError(f"state words must fit in {spec.w} bits")
    return GeneratorState(words=tuple(words), cursor=0, lung=lung)


def format_seed_text(state: GeneratorState, spec: GeneratorSpec) -> str:
    """Inverse of ``parse_seed_text`` (no comments)."""
    digits = spec.w // 4
    lines = [f"0x{word:0{digits}x}" for word in state.words]
    if spec.has_lung:
        lines.append(f"lung=0x{state.lung:0{digits}x}")
    return "\n".join(lines) + "\n"


def read_seed_file(path: str | Path, spec: GeneratorSpec) -> GeneratorState:
    return parse_seed_text(Path(path).read_text(), spec)


def bundled_bad_seed(name: str) -> GeneratorState:
    """The shipped near-zeroland state for the given generator name."""
    from importlib import resources

    spec = get_spec(name)
    entry = (
        resources.files("f2spectra")
        / "data"
        / "seeds"
        / f"{name.replace('-', '_')}_bad.seed"
    )
    if not entry.is_file():
        raise KeyError(f"no bundled bad seed for {name!r}")
    return parse_seed_text(entry.read_text(), spec)


def replay_seed(
    spec: GeneratorSpec,
    state_file: str | Path,
    p: int,
    max_n: int,
) -> ZerolandTrace:
    """Single-trajectory gamma trace starting from a stored full state.

    ``p`` is the actual window length, taken as given (callers choosing
    the normalized convention pass the halved value for 64-bit
    generators themselves); ``max_n`` is in normalized iterations.
    """
    state = read_seed_file(state_file, spec)
    gen = make_generator(spec)
    gen.set_raw_state(state)
    return trajectory_trace(gen, p, max_n)


# -- tabular views ----------------------------------------------------------


def trace_csv(
    trace: ZerolandTrace, sink: TextIO, band_sigmas: float = DEFAULT_BAND_SIGMAS
) -> None:
    """CSV columns: n (normalized iteration), gamma, sigma_band_low,
    sigma_band_high."""
    low = 0.5 - band_sigmas * trace.sigma
    high = 0.5 + band_sigmas * trace.sigma
    sink.write("n,gamma,sigma_band_low,sigma_band_high\n")
    positions = trace.normalized_positions()
    for n, gamma in zip(positions, trace.values):
        sink.write(f"{int(n)},{float(gamma)!r},{low!r},{high!r}\n")
