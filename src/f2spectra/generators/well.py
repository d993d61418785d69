"""WELL generators (well-equidistributed longperiod linear).

One step combines the newest word, three tap words, and a splice of the
two oldest words through eight per-slot linear transforms T0..T7, then
writes two words: the new second-newest (z3) over the old newest slot and
the new newest (z4) over the old oldest slot, moving the cursor down.
The published generators emit the newest word untempered.  ``Well.run``
is the per-step loop; ``output`` reads the newest word.

Transform grammar (shared with the .params files): ``XS:t`` is
v ^ (v >> t) for t >= 0 and v ^ (v << -t) otherwise; ``SH:t`` is the
plain shift with the same sign rule; ``ID`` and ``ZERO`` are the
identity and zero maps.

The block path.  In logical order, step j drops x[j], rewrites the
newest word y[j] as x[j + n - 1] = z3 and makes z4 the newest y[j + 1].
Tap mi reads x[j + n - 1 - mi], so min(m1, m2, m3) steps, 70 for
well19937a, read only words older than the run.  With
z1 = T0(y[j]) ^ T1(tap1) and z3 = z1 ^ z2,

    z4 = G(y[j]) ^ g[j],  G = (T5 + T7) T0,
    g[j] = T4(z0) ^ T5(T1(tap1)) ^ T6(z2) ^ T7(T1(tap1) ^ z2),

so ``blocks`` computes g and z3 - T0(y) for a whole run per numpy pass,
and only the chain y <- G(y) ^ g steps one word at a time, through four
byte tables of G built once per spec.  It needs w <= 32.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .base import GeneratorSpec, Recurrence


def transform_fn(kind: str, t: int, mask):
    """One slot transform; ``mask`` (of the ring's word type) masks left shifts."""
    if kind == "ID":
        return lambda v: v
    if kind == "ZERO":
        return lambda v: v & 0  # of v's type, so a word array stays one
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
        if spec.w <= 32:
            self.span = min(spec.m1, spec.m2, spec.m3, spec.n - 2)

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

    @cached_property
    def chain_tables(self) -> tuple[list[int], ...]:
        """G = (T5 + T7) T0 of each value of each byte of a word: G(y) is the
        XOR of the four tables at y's four bytes."""
        t0, t5, t7 = self.t[0], self.t[5], self.t[7]
        tables = []
        for shift in (0, 8, 16, 24):
            y = t0(np.arange(256, dtype=np.uint32) << shift)
            tables.append((t5(y) ^ t7(y)).tolist())
        return tuple(tables)

    def blocks(self, buf, count, lung):
        n, span, upper, lower = self.n, self.span, self.upper, self.lower
        t0, t1, t2, t3, t4, t5, t6, t7 = self.t
        g0, g1, g2, g3 = self.chain_tables
        o1, o2, o3 = (n - 1 - m for m in (self.spec.m1, self.spec.m2, self.spec.m3))
        newest = np.empty(count + 1, dtype=buf.dtype)  # y[0..count]
        newest[0] = y = int(buf[n - 1])
        for j in range(0, count, span):
            e = min(span, count - j)
            z0 = (buf[j : j + e] & upper) | (buf[j + 1 : j + e + 1] & lower)
            # z1 and z3 without their T0(y[j]) term
            z1_tap = t1(buf[j + o1 : j + o1 + e])
            z2 = t2(buf[j + o2 : j + o2 + e]) ^ t3(buf[j + o3 : j + o3 + e])
            z3_tap = z1_tap ^ z2
            chain = []
            emit = chain.append
            for g in (t4(z0) ^ t5(z1_tap) ^ t6(z2) ^ t7(z3_tap)).tolist():
                y = g ^ g0[y & 255] ^ g1[y >> 8 & 255] ^ g2[y >> 16 & 255] ^ g3[y >> 24]
                emit(y)
            newest[j + 1 : j + e + 1] = chain
            buf[n - 1 + j : n - 1 + j + e] = t0(newest[j : j + e]) ^ z3_tap
        buf[n - 1 + count] = y
        return newest[1:], lung
