"""WELL generators (well-equidistributed longperiod linear).

One step combines the newest word, three tap words, and a splice of the
two oldest words through eight per-slot linear transforms T0..T7, then
writes two words: the new second-newest (z3) over the old newest slot and
the new newest (z4) over the old oldest slot, moving the cursor down.
The published generators emit the newest word untempered.

Transform grammar (shared with the .params files): ``XS:t`` is
v ^ (v >> t) for t >= 0 and v ^ (v << -t) otherwise; ``SH:t`` is the
plain shift with the same sign rule; ``ID`` and ``ZERO`` are the
identity and zero maps.
"""

from __future__ import annotations

from .base import Recurrence


def transform_fn(kind: str, t: int, mask):
    """One slot transform; ``mask`` (of the ring's word type) masks left shifts."""
    if kind == "ID":
        return lambda v: v
    if kind == "ZERO":
        return lambda v: 0
    if kind == "XS":
        if t >= 0:
            return lambda v: v ^ (v >> t)
        s = -t
        return lambda v: v ^ ((v << s) & mask)
    if kind == "SH":
        if t >= 0:
            return lambda v: v >> t
        s = -t
        return lambda v: (v << s) & mask
    raise ValueError(f"unknown transform kind {kind!r}")


class Well(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.t = [transform_fn(kind, t, self.mask) for kind, t in spec.transforms]

    def index(self, cursor, j):
        # The newest word sits at the cursor; logical 0 (oldest) is behind it.
        return (cursor + self.n - 1 - j) % self.n

    def step(self, ring) -> None:
        spec = self.spec
        st, i, n = ring.st, ring.cursor, self.n
        t = self.t
        z0 = (st[(i + n - 1) % n] & self.upper) | (st[(i + n - 2) % n] & self.lower)
        z1 = t[0](st[i]) ^ t[1](st[(i + spec.m1) % n])
        z2 = t[2](st[(i + spec.m2) % n]) ^ t[3](st[(i + spec.m3) % n])
        z3 = z1 ^ z2
        z4 = t[4](z0) ^ t[5](z1) ^ t[6](z2) ^ t[7](z3)
        st[i] = z3
        ring.cursor = (i + n - 1) % n
        st[ring.cursor] = z4

    def output(self, ring):
        return ring.st[ring.cursor]
