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
No library function builds an ``Ensemble``; the tests' oracles do.

``probe_images`` starts one member on each unit vector of the state grid
(every stored bit, dead bits included; see ``base.canonical_grid``),
steps once, and keeps the output words that step emits and the set bits
of the images.  That yields the one-step matrix B of the grid as sparse
(row, col) pairs, about k + 600 of them at k = 19937, and T B, the
output map T of the stepped state composed with B, as one word per grid
coordinate, with no k x k probe matrix ever built.  A step writes only
the two newest words and the lung, and every other word moves one grid
word on unchanged (see ``Recurrence``).  So the probe reads set bits
only from the stepped ring's two newest rows and its lung, O(k) words
per probe, and adds the one moved bit of each unit vector in grid words
1 .. n - 2 without reading it.  Its members step in a plain
``base.Ring`` of n + 1 rows, room for one step, reused block by block.
Transition-matrix extraction and the zeroland sweep both probe the whole
grid, ``probe_images(spec, 0, grid_size(spec))``.

Members are read and written through ``base.grid_bits`` and
``base.set_grid_bits``, the codec the scalar generators use too;
``state_rows`` emits every member's canonical state vector as packed
little-endian uint64 limbs (the row format BitMatrix uses).
"""

from __future__ import annotations

import numpy as np

from . import recurrence
from .base import GeneratorSpec, Ring, canonical_rows, grid_bits, set_grid_bits, word_dtype

#: Buffer words per block of probe members: a block steps in a ring of
#: n + 1 rows, the n ring words and the room for one step, of
#: ``_PROBE_WORDS // (n + 1)`` members each.  That bounds the ring to
#: 1-2 MB at k = 19937 and a full-grid probe's traced peak to 1.2-2.3 MB.
#: Blocks four times larger took half the time at w = 32 and a third
#: less at w = 64, but quadrupled the ring and the traced peak.
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

    A step writes only the two newest words and the lung (see
    ``Recurrence``), and moves every other word one grid word on.  So
    the image of a unit vector in grid words 1 .. n - 2 is the same bit
    one grid word on, at coordinate + w, plus what the step wrote; only
    the two newest rows of the stepped ring and the lung are read.
    Blocks of up to ``_PROBE_WORDS // (n + 1)`` lanes step through one
    zeroed ring of n + 1 rows, room for one step, and after each block
    only the rows it set and the rows the step wrote are cleared.
    """
    n, w, dt = spec.n, spec.w, word_dtype(spec)
    block = max(1, _PROBE_WORDS // (n + 1))
    width = min(block, hi - lo)
    lung = np.zeros(width, dtype=dt) if spec.has_lung else None
    ring = Ring(np.zeros((n + 1, width), dtype=dt), lung)
    rec = recurrence(spec, dt)
    rows, cols = [], []
    outputs = np.empty(hi - lo, dtype=dt)
    for blo in range(lo, hi, block):
        bhi = min(blo + block, hi)
        lanes = np.arange(bhi - blo)
        set_grid_bits(spec, ring.buf[:n], ring.lung, lanes + blo, lanes)
        out: list[np.ndarray] = []
        ring.start = 0
        rec.run(ring, 1, out)
        outputs[blo - lo : bhi - lo] = out[0][: bhi - blo]
        r, c = grid_bits(spec, ring.buf[n - 1 :], ring.lung)  # grid words 1 and 0, and the lung
        rows.append(r)
        cols.append(c + blo)
        # the ring rows of grid words blo // w .. (bhi - 1) // w, then the rows the step wrote
        ring.buf[max(0, n - 1 - (bhi - 1) // w) : max(0, n - blo // w)] = 0
        ring.buf[n - 1 :] = 0
        if ring.lung is not None:
            ring.lung[:] = 0
    del ring  # before the parts are joined, which lowers the traced peak
    moved = np.arange(max(lo, w), min(hi, (n - 1) * w))  # the lanes in grid words 1 .. n - 2
    return np.concatenate([moved + w, *rows]), np.concatenate([moved, *cols]), outputs

