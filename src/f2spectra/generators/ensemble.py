"""Vectorized lockstep ensembles and the one-step probe of the state grid.

Storage is one (2n, E) word array ``buf`` (plus an (E,) lung row for
MELG), laid out as the scalar ring is (see ``base``): ``window``, rows
``start`` .. ``start + n - 1``, holds the rings in logical order, and
slot [j, e] of it is word j, oldest first, of ensemble member e.
Callers step it through ``ens.rec``: the family's own ``Recurrence``
from ``mt.py``, ``well.py`` or ``melg.py``, with its constants cast to
the array's word type.  Its per-step loop ``run(ens, count, out)`` acts
on whole rows at once, at the same offsets as on the scalar ring, and
appends each step's output words to ``out`` as one fresh (E,) array.

``probe_images`` starts one member on each unit vector of the state grid
(every stored bit, dead bits included; see ``base.canonical_grid``),
steps once, and keeps the output words that step emits and the set bits
of the images.  That yields the one-step matrix B of the grid as sparse
(row, col) pairs, about k + 600 of them at k = 19937, and T B, the
output map T of the stepped state composed with B, as one word per grid
coordinate, with no k x k probe matrix ever built.
``probe_grid`` runs it over the whole grid on worker threads; it is the
package's only thread pool, and both transition-matrix extraction and
the zeroland sweep read it.

Members are read and written through ``base.grid_bits`` and
``base.set_grid_bits``, the codec the scalar generators use too;
``state_rows`` emits every member's canonical state vector as packed
little-endian uint64 limbs (the row format BitMatrix uses).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .._util import resolve_threads
from . import recurrence
from .base import GeneratorSpec, canonical_rows, grid_bits, grid_size, set_grid_bits, word_dtype

#: Buffer words per block of probe members: bounds a block's buffer to
#: 1-2 MB at k = 19937, half of it the rings and half the room a step
#: writes into, and a full-grid probe's traced peak to 2.4-4.5 MB.
#: Blocks four times larger took no less time.
_PROBE_WORDS = 1 << 18


class Ensemble:
    def __init__(self, spec: GeneratorSpec, size: int) -> None:
        """``size`` members, all in the zero state."""
        dt = word_dtype(spec)
        self.spec = spec
        self.rec = recurrence(spec, dt)
        # A step writes each row of the room before any step reads it, so
        # the room is left uninitialised: it takes no memory until then.
        self.buf = np.empty((2 * spec.n, size), dtype=dt)
        self.buf[: spec.n] = 0
        self.start = 0
        self.lung = np.zeros(size, dtype=dt) if spec.has_lung else None

    @property
    def window(self) -> np.ndarray:
        """The (n, E) rings, oldest word first (a view)."""
        return self.buf[self.start : self.start + self.spec.n]

    @classmethod
    def from_grid_units(cls, spec: GeneratorSpec, grid: np.ndarray) -> "Ensemble":
        """Member e holds the unit vector of state-grid coordinate grid[e]."""
        ens = cls(spec, len(grid))
        set_grid_bits(spec, ens.window, ens.lung, grid, np.arange(len(grid)))
        return ens

    def state_rows(self) -> np.ndarray:
        """Canonical state vectors, one packed uint64-limb row per member."""
        return canonical_rows(self.spec, self.window, self.lung)


def probe_images(
    spec: GeneratorSpec, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the state-grid unit vectors lo..hi-1.

    Returns ``(rows, cols, outputs)``: B[rows[i], cols[i]] = 1 lists the
    set bits of the images (grid coordinates, B's nonzeros in columns
    lo..hi-1), and ``outputs[e]`` is the word the step from unit vector
    lo+e emits, that is column lo+e of T B.
    """
    block = max(1, _PROBE_WORDS // (2 * spec.n + 1))
    rows, cols, outputs = [], [], []
    for blo in range(lo, hi, block):
        bhi = min(blo + block, hi)
        ens = Ensemble.from_grid_units(spec, np.arange(blo, bhi))
        ens.rec.run(ens, 1, outputs)
        r, c = grid_bits(spec, ens.window, ens.lung)
        rows.append(r)
        cols.append(c + blo)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(outputs)


def probe_grid(
    spec: GeneratorSpec, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``probe_images`` over the whole state grid.

    ``threads`` workers (default: ``resolve_threads``) each probe one
    contiguous lane range; the parts are joined in lane order, so the
    result does not depend on the thread count.
    """
    threads = resolve_threads(threads)
    size = grid_size(spec)
    if threads == 1:
        return probe_images(spec, 0, size)
    bounds = [size * t // threads for t in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda lo, hi: probe_images(spec, lo, hi), bounds[:-1], bounds[1:]))
    return tuple(np.concatenate(part) for part in zip(*parts))
