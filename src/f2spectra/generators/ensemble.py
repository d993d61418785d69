"""Vectorized lockstep ensembles: many generator instances as word arrays.

Storage is one (n, E) ring array ``st`` (plus an (E,) lung row for MELG):
slot [j, e] is ring word j of ensemble member e.  Callers step it and
read its outputs through ``ens.rec``: the family's own ``Recurrence`` from
``mt.py``, ``well.py`` or ``melg.py``, with its constants cast to the
array's word type, acting on whole rows at once.  That makes basis-vector
probing of transition matrices and ensemble output-weight traces cheap.
An output may be a view of a ring row (WELL emits its newest word), so
use it before the next step.

``state_rows`` emits every member's canonical state vector through
``base.pack_rows``, the same codec the scalar generators use, as packed
little-endian uint64 limbs — the row format BitMatrix uses.
"""

from __future__ import annotations

import numpy as np

from . import recurrence
from .base import LUNG_WORD, GeneratorSpec, canonical_layout, pack_rows, word_dtype


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
    def from_unit_vectors(cls, spec: GeneratorSpec, lo: int, hi: int) -> "Ensemble":
        """Member e holds canonical basis vector lo+e as its state."""
        if not 0 <= lo <= hi <= spec.k:
            raise ValueError(f"bad canonical range [{lo}, {hi})")
        ens = cls.zeros(spec, hi - lo)
        wds, bts = canonical_layout(spec)
        wds, bts = wds[lo:hi], bts[lo:hi]
        lanes = np.arange(hi - lo)
        dt = word_dtype(spec)
        ring = wds != LUNG_WORD
        ens.st[ens.rec.index(0, wds[ring]), lanes[ring]] = dt(1) << bts[ring].astype(dt)
        if spec.has_lung:
            out = ~ring
            ens.lung[lanes[out]] = dt(1) << bts[out].astype(dt)
        return ens

    # -- layout -----------------------------------------------------------

    def state_rows(self) -> np.ndarray:
        """Canonical state vectors, one packed uint64-limb row per member."""
        order = self.rec.index(self.cursor, np.arange(self.spec.n))
        return pack_rows(self.spec, self.st[order], self.lung)


def probe_images(spec: GeneratorSpec, lo: int, hi: int, block: int = 512) -> np.ndarray:
    """One-step images of canonical basis vectors lo..hi-1, as packed rows.

    Lanes go ``block`` at a time; a block's unpacked state bits take
    block * k bytes, about 10 MB at k = 19937.
    """
    limbs = (spec.k + 63) // 64
    out = np.empty((hi - lo, limbs), dtype=np.uint64)
    for blo in range(lo, hi, block):
        bhi = min(blo + block, hi)
        ens = Ensemble.from_unit_vectors(spec, blo, bhi)
        ens.rec.step(ens)
        out[blo - lo : bhi - lo] = ens.state_rows()
    return out
