"""Vectorized lockstep ensembles and the one-step probe of the state grid.

Storage is one (n, E) ring array ``st`` (plus an (E,) lung row for MELG):
slot [j, e] is ring word j of ensemble member e.  Callers step it and
read its outputs through ``ens.rec``: the family's own ``Recurrence`` from
``mt.py``, ``well.py`` or ``melg.py``, with its constants cast to the
array's word type.  Its per-step loop ``run(ens, count)`` (``step`` is
``run(ens, 1)``) acts on whole rows at once, through the same index
tuples as the scalar ring.  ``output(ens)`` may return a view of a ring
row (WELL emits its newest word), so use it before the next step.

``probe_images`` starts one member on each unit vector of the state grid
(every stored bit, dead bits included; see ``base.canonical_grid``), reads
each member's output word, steps once and lists the set bits of the
images.  That yields the one-step matrix of the grid as sparse (row, col)
pairs, about k + 600 of them at k = 19937, and the output map T as one
word per grid coordinate, with no k x k probe matrix ever built.
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

#: Ring words per block of probe members: bounds a block's ring array to
#: 1-2 MB at k = 19937, and a full-grid probe's traced peak to 2.4-4.5 MB.
#: Blocks four times larger took no less time.
_PROBE_WORDS = 1 << 18


class Ensemble:
    def __init__(self, spec: GeneratorSpec, st: np.ndarray, lung: np.ndarray | None) -> None:
        self.spec = spec
        self.rec = recurrence(spec, st.dtype.type)
        self.st = st
        self.lung = lung
        self.cursor = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, spec: GeneratorSpec, size: int) -> "Ensemble":
        dt = word_dtype(spec)
        lung = np.zeros(size, dtype=dt) if spec.has_lung else None
        return cls(spec, np.zeros((spec.n, size), dtype=dt), lung)

    @classmethod
    def from_grid_units(cls, spec: GeneratorSpec, grid: np.ndarray) -> "Ensemble":
        """Member e holds the unit vector of state-grid coordinate grid[e]."""
        ens = cls.zeros(spec, len(grid))
        set_grid_bits(ens.rec, ens.st, ens.lung, grid, np.arange(len(grid)))
        return ens

    # -- layout -----------------------------------------------------------

    def state_rows(self) -> np.ndarray:
        """Canonical state vectors, one packed uint64-limb row per member."""
        return canonical_rows(self.rec, self.st, self.cursor, self.lung)


def probe_images(
    spec: GeneratorSpec, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the state-grid unit vectors lo..hi-1.

    Returns ``(rows, cols, outputs)``: B[rows[i], cols[i]] = 1 lists the
    set bits of the images (grid coordinates, B's nonzeros in columns
    lo..hi-1), and ``outputs[e]`` is the output word of unit vector lo+e
    before the step, that is column lo+e of the output map T.
    """
    block = max(1, _PROBE_WORDS // (spec.n + 1))
    rows, cols, outputs = [], [], []
    for blo in range(lo, hi, block):
        bhi = min(blo + block, hi)
        ens = Ensemble.from_grid_units(spec, np.arange(blo, bhi))
        outputs.append(np.array(ens.rec.output(ens)))  # a copy: it may view a ring row
        ens.rec.step(ens)
        r, c = grid_bits(ens.rec, ens.st, ens.cursor, ens.lung)
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
