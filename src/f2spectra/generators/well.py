"""WELL generators (well-equidistributed longperiod linear).

One step combines the newest word, three tap words, and a splice of the
two oldest words through eight per-slot linear transforms T0..T7, then
writes two words: the new second-newest (z3) over the old newest word and
the new newest (z4) after it.  The published generators emit the newest
word untempered.  ``Well.run`` is the per-step loop; it emits each z4 as
it writes it.  The published code keeps its newest word first, and so do
seed files (``Well.newest_first``).

Transform grammar (shared with the .params files): ``XS:t`` is
v ^ (v >> t) for t >= 0 and v ^ (v << -t) otherwise; ``SH:t`` is the
plain shift with the same sign rule; ``ID`` and ``ZERO`` are the
identity and zero maps.

Step j drops x[j], rewrites the newest word y[j] as x[j + n - 1] = z3
and makes z4 the newest y[j + 1] = x[j + n].  Tap mi reads x[j + oi]
with oi = n - 1 - mi, and both forms read these offsets from the window
start j.  So a run of min(m1, m2, m3) steps, 70 for well19937a, reads
only words older than the run, and the block path computes such a run
per numpy pass.  With z1 = T0(y[j]) ^ T1(tap1) and z3 = z1 ^ z2,

    z4 = G(y[j]) ^ g[j],  G = (T5 + T7) T0,
    g[j] = T4(z0) ^ T5(T1(tap1)) ^ T6(z2) ^ T7(T1(tap1) ^ z2),

so ``blocks`` computes g and z3 - T0(y) for a whole run per numpy pass,
and only the chain y <- G(y) ^ g steps one word at a time, through four
byte tables of G built once per spec.  It needs w <= 32.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .base import Recurrence


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


class Well(Recurrence):
    newest_first = True

    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.t = tuple(transform_fn(kind, t, self.mask) for kind, t in spec.transforms)
        # o1, o2, o3: the taps' offsets from the window start
        self.taps = tuple(spec.n - 1 - m for m in (spec.m1, spec.m2, spec.m3))
        self.reads = (0, 1, *self.taps, spec.n - 1)
        if spec.w <= 32:
            self.span = min(spec.m1, spec.m2, spec.m3, spec.n - 2)

    def run(self, ring, count, out=None) -> None:
        n, buf, (o1, o2, o3), upper, lower = self.n, ring.buf, self.taps, self.upper, self.lower
        t0, t1, t2, t3, t4, t5, t6, t7 = self.t
        emit = None if out is None else out.append
        for j, e in self.stretches(ring, count):
            for c, y in zip(range(j, j + e), range(j + n - 1, j + n - 1 + e)):
                z0 = (buf[c] & upper) | (buf[c + 1] & lower)
                z1 = t0(buf[y]) ^ t1(buf[c + o1])
                z2 = t2(buf[c + o2]) ^ t3(buf[c + o3])
                z3 = z1 ^ z2
                buf[y] = z3
                buf[y + 1] = z4 = t4(z0) ^ t5(z1) ^ t6(z2) ^ t7(z3)
                if emit is not None:
                    emit(z4)

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

    def blocks(self, buf, count, lung, emit):
        n, span, upper, lower = self.n, self.span, self.upper, self.lower
        t0, t1, t2, t3, t4, t5, t6, t7 = self.t
        g0, g1, g2, g3 = self.chain_tables
        o1, o2, o3 = self.taps
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
        return (newest[1:] if emit else None), lung
