"""WELL generators (well-equidistributed longperiod linear).

One step combines the newest word, three tap words, and a splice of the
two oldest words through eight per-slot linear transforms T0..T7, then
writes two words: the new second-newest (z3) over the old newest slot and
the new newest (z4) over the old oldest slot, moving the cursor down.
The published generators emit the newest word untempered.  ``Well.run``
is the one step loop; ``output`` reads the newest word.

Transform grammar (shared with the .params files): ``XS:t`` is
v ^ (v >> t) for t >= 0 and v ^ (v << -t) otherwise; ``SH:t`` is the
plain shift with the same sign rule; ``ID`` and ``ZERO`` are the
identity and zero maps.
"""

from __future__ import annotations

from functools import lru_cache

from .base import GeneratorSpec, Recurrence


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


@lru_cache(maxsize=None)
def _rows(spec: GeneratorSpec) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Per cursor i, in the order the cursor visits them (0, n-1, n-2, ...):
    (i, the two oldest words' slots, the three taps' slots)."""
    n, slot = spec.n, tuple(range(spec.n))  # one int object per slot, shared by the rows
    return tuple(
        tuple(slot[(i + d) % n] for d in (0, -1, -2, spec.m1, spec.m2, spec.m3))
        for i in (-p % n for p in range(n))
    )


class Well(Recurrence):
    direction = -1  # the cursor moves down

    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.t = tuple(transform_fn(kind, t, self.mask) for kind, t in spec.transforms)
        self.rows = _rows(spec)

    def index(self, cursor, j):
        # The newest word sits at the cursor; logical 0 (oldest) is behind it.
        return (cursor + self.n - 1 - j) % self.n

    def run(self, ring, count, out=None) -> None:
        st, upper, lower = ring.st, self.upper, self.lower
        t0, t1, t2, t3, t4, t5, t6, t7 = self.t
        emit = None if out is None else out.append
        for i, old1, old2, m1, m2, m3 in self.walk(ring, count):
            z0 = (st[old1] & upper) | (st[old2] & lower)
            z1 = t0(st[i]) ^ t1(st[m1])
            z2 = t2(st[m2]) ^ t3(st[m3])
            z3 = z1 ^ z2
            st[i] = z3
            st[old1] = z4 = t4(z0) ^ t5(z1) ^ t6(z2) ^ t7(z3)  # the new cursor's slot
            if emit is not None:
                emit(z4)

    def output(self, ring):
        return ring.st[ring.cursor]
