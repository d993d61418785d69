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

``probe_images`` yields the one-step matrix B of the state grid (every
stored bit, dead bits included; see ``base.canonical_grid``) as sparse
(row, col) pairs, about k + 600 of them at k = 19937, and T B, the
output map T of the stepped state composed with B, as one word per grid
coordinate, with no k x k probe matrix ever built.  It steps only the
unit vectors in the words a step reads (``Recurrence.reads``), in the
newest word and in the lung, at most six words (128-384 lanes for the
bundled generators), and adds the moved bit of every other one without
stepping it.  Transition-matrix extraction and the zeroland sweep both
probe the whole grid, ``probe_images(spec, 0, grid_size(spec))``.

Members are read and written through ``base.grid_bits`` and
``base.set_grid_bits``, the codec the scalar generators use too;
``state_rows`` emits every member's canonical state vector as packed
little-endian uint64 limbs (the row format BitMatrix uses).
"""

from __future__ import annotations

import numpy as np

from . import recurrence
from .base import GeneratorSpec, Ring, canonical_rows, grid_bits, set_grid_bits, word_dtype


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

    A step writes only the two newest words and the lung, reads only the
    ring words at the offsets ``rec.reads`` and the lung (see
    ``Recurrence``), and moves every other word one grid word on.  So the
    image of a unit vector in grid words 1 .. n - 2 is the bit one grid
    word on, at coordinate + w, plus what the step wrote, and the step
    writes nothing and emits 0 for one in a word it does not read.  Only
    the lanes of lo..hi-1 in the words it reads, the newest word and the
    lung step, once, in one zeroed ring of n + 1 rows, room for one step;
    only the two newest rows of the stepped ring and the lung are read.
    """
    n, w, dt = spec.n, spec.w, word_dtype(spec)
    rec = recurrence(spec, dt)
    # the grid words the step reads, the newest word and the lung
    words = {n - 1 - o for o in rec.reads} | ({0, n} if spec.has_lung else {0})
    lanes = np.concatenate([np.arange(max(lo, g * w), min(hi, g * w + w)) for g in sorted(words)])
    lung = np.zeros(len(lanes), dtype=dt) if spec.has_lung else None
    ring = Ring(np.zeros((n + 1, len(lanes)), dtype=dt), lung)
    set_grid_bits(spec, ring.buf[:n], ring.lung, lanes, np.arange(len(lanes)))
    out: list[np.ndarray] = []
    rec.run(ring, 1, out)
    outputs = np.zeros(hi - lo, dtype=dt)
    outputs[lanes - lo] = out[0]
    rows, cols = grid_bits(spec, ring.buf[n - 1 :], ring.lung)  # grid words 1 and 0, and the lung
    moved = np.arange(max(lo, w), min(hi, (n - 1) * w))  # the lanes in grid words 1 .. n - 2
    return np.concatenate([moved + w, rows]), np.concatenate([moved, lanes[cols]]), outputs
