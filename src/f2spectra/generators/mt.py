"""Mersenne Twister generators, 32- and 64-bit, one or three feedback taps.

The update is the single-word form of the twisted GFSR recurrence: each
step splices the top w-r bits of the oldest word with the low r bits of
its successor, applies the twist, XORs the feedback tap(s), and writes
the result over the oldest slot.  The output runs through the usual
four-stage tempering.
"""

from __future__ import annotations

from .base import Recurrence


class Mt(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.taps = (spec.m,) if spec.m is not None else (spec.m1, spec.m2, spec.m3)
        self.temper = tuple(cast(x) for x in spec.temper)

    def step(self, ring) -> None:
        st, c, n = ring.st, ring.cursor, self.n
        x = (st[c] & self.upper) | (st[(c + 1) % n] & self.lower)
        v = (x >> 1) ^ ((x & 1) * self.a)
        for t in self.taps:
            v ^= st[(c + t) % n]
        st[c] = v
        ring.cursor = (c + 1) % n

    def output(self, ring):
        u, d, s, b, t, c, l = self.temper
        y = ring.st[(ring.cursor - 1) % self.n]
        # No in-place XOR: on an ensemble, y starts as a view of the ring.
        y = y ^ ((y >> u) & d)
        y = y ^ ((y << s) & b)  # b and c lie inside the word, so they mask the shifts
        y = y ^ ((y << t) & c)
        return y ^ (y >> l)
