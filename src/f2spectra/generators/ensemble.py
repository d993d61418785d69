"""Vectorized lockstep ensembles and the one-step probe of the state grid.

Storage is one (n, E) word array ``window`` (plus an (E,) lung row for
MELG) that holds the rings in logical order, as the scalar ring is held
(see ``base``): slot [j, e] is word j, oldest first, of ensemble member
e.  ``Ensemble.step`` runs ``ens.rec``, the family's own ``Recurrence``
from ``mt.py``, ``well.py`` or ``melg.py`` with its constants cast to
the array's word type, on one stream of n + count rows: its per-step
loop acts on whole rows at once, at the same offsets as on the scalar
stream, and appends each step's output words to ``out`` as one fresh
(E,) array.  No library function builds an ``Ensemble``; the tests'
oracles do.

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
from .base import GeneratorSpec, canonical_rows, grid_bits, set_grid_bits, word_dtype


class Ensemble:
    def __init__(self, spec: GeneratorSpec, size: int) -> None:
        """``size`` members, all in the zero state."""
        dt = word_dtype(spec)
        self.spec = spec
        self.rec = recurrence(spec, dt)
        self.window = np.zeros((spec.n, size), dtype=dt)
        self.lung = np.zeros(size, dtype=dt) if spec.has_lung else None

    def step(self, count: int, out: list | None = None) -> None:
        """Advance every member ``count`` steps by the per-step loop; when
        ``out`` is a list, append each step's (E,) output words to it."""
        n = self.spec.n
        stream = np.empty((n + count, self.window.shape[1]), dtype=self.window.dtype)
        stream[:n] = self.window
        self.lung = self.rec.run(stream, count, self.lung, out)
        self.window = stream[count:]

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
    lung step, once, along one zeroed stream of n + 1 rows; only its two
    newest rows and the lung are read.
    """
    n, w, dt = spec.n, spec.w, word_dtype(spec)
    rec = recurrence(spec, dt)
    # the grid words the step reads, the newest word and the lung
    words = {n - 1 - o for o in rec.reads} | ({0, n} if spec.has_lung else {0})
    lanes = np.concatenate([np.arange(max(lo, g * w), min(hi, g * w + w)) for g in sorted(words)])
    lung = np.zeros(len(lanes), dtype=dt) if spec.has_lung else None
    stream = np.zeros((n + 1, len(lanes)), dtype=dt)
    set_grid_bits(spec, stream[:n], lung, lanes, np.arange(len(lanes)))
    out: list[np.ndarray] = []
    lung = rec.run(stream, 1, lung, out)
    outputs = np.zeros(hi - lo, dtype=dt)
    outputs[lanes - lo] = out[0]
    rows, cols = grid_bits(spec, stream[n - 1 :], lung)  # grid words 1 and 0, and the lung
    moved = np.arange(max(lo, w), min(hi, (n - 1) * w))  # the lanes in grid words 1 .. n - 2
    return np.concatenate([moved + w, rows]), np.concatenate([moved, lanes[cols]]), outputs
