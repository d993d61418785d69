"""Hamming-weight diagnostics: how fast generators escape zeroland.

States with almost every bit zero ("zeroland") are near the fixed
point of an F2-linear map, and a generator started there emits heavily
zero-biased words until the recurrence has mixed the lone set bit
through the state.  The diagnostic statistic is a moving average of
output Hamming weights,

    gamma_{n,p} = (1 / (p k w)) * sum_{i=n}^{n+p-1} sum_{j=1}^{k} H(y_i^(j)),

taken over an ensemble of k initial states (one per unit vector of the
state space) or a single trajectory (k = 1) replayed from a stored
seed.  For balanced output gamma is approximately normal with mean 1/2
and variance 1/(4 p k w).

Word-size normalization: to compare 32- and 64-bit generators on one
axis, one iteration of a 64-bit generator counts as two normalized
iterations and window lengths given in normalized units are halved
internally.  Traces store the actual window length ``p`` used, their
``normalization`` factor (1 or 2), and index positions in actual
iterations; the normalized axis is ``normalization * index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from ._util import resolve_threads
from .generators import GeneratorSpec, get_spec, make_generator
from .generators.base import Generator, GeneratorState
from .generators.ensemble import Ensemble

#: Band half-width used by trace exports, in sigma units.
DEFAULT_BAND_SIGMAS = 2.0

#: Lanes per ensemble block when sweeps are split across workers.
SWEEP_BLOCK = 4096


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


def _ensemble_weight_totals(spec: GeneratorSpec, lo: int, hi: int, steps: int) -> np.ndarray:
    ens = Ensemble.from_unit_vectors(spec, lo, hi)
    rec = ens.rec
    totals = np.empty(steps, dtype=np.int64)
    for i in range(steps):
        rec.step(ens)
        totals[i] = int(np.sum(np.bitwise_count(rec.output(ens)), dtype=np.int64))
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
    The sweep runs in lane blocks, optionally across worker threads,
    and block totals are reduced in index order, so the trace is
    bit-identical for every thread count.
    """
    nu = _normalization(spec)
    if p < 1 or max_n < p:
        raise ValueError("need 1 <= p <= max_n")
    if p % nu or max_n % nu:
        raise ValueError(f"p and max_n must be multiples of {nu} for w={spec.w}")
    p_act = p // nu
    steps = max_n // nu
    k = spec.k
    nthreads = resolve_threads(threads)
    blocks = [(lo, min(lo + SWEEP_BLOCK, k)) for lo in range(0, k, SWEEP_BLOCK)]
    totals = np.zeros(steps, dtype=np.int64)
    if nthreads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            for part in pool.map(
                lambda b: _ensemble_weight_totals(spec, b[0], b[1], steps), blocks
            ):
                totals += part
    else:
        for lo, hi in blocks:
            totals += _ensemble_weight_totals(spec, lo, hi, steps)
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
        raise ValueError("need p >= 1")
    if max_n % nu:
        raise ValueError(f"max_n must be a multiple of {nu} for w={spec.w}")
    steps = max_n // nu
    if steps < p:
        raise ValueError("max_n too short for the window length")
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
            lung = int(line[len("lung="):], 0)
            continue
        if lung is not None:
            raise ValueError(f"line {lineno}: state words after the lung entry")
        words.append(int(line, 0))
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
