"""Mersenne Twister generators, 32- and 64-bit, one or three feedback taps.

The update is the single-word form of the twisted GFSR recurrence: each
step splices the top w-r bits of the oldest word with the low r bits of
its successor, applies the twist, XORs the feedback tap(s), and appends
the result as the newest word.  The output runs through the usual
four-stage tempering.  ``Mt.run`` is the per-step loop and ``Mt.temper``
the one output expression; ``run`` applies it to each new newest word,
and ``blocks`` to all of its new words at once.

The recurrence appends x[j + n] = f(x[j], x[j + 1], x[j + m]) for each
tap m, and both forms read those offsets from the window start j.  So a
run of n - (largest tap) steps reads only words older than the run: the
block path computes that many words, 227 for mt19937, per numpy pass, as
the published refill computes its first n - m words.
"""

from __future__ import annotations

import numpy as np

from .base import Recurrence


class Mt(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.taps = (spec.m,) if spec.m is not None else (spec.m1, spec.m2, spec.m3)
        self.reads = (0, 1, *self.taps)
        self.span = min(spec.n - max(self.taps), spec.n - 1)
        self.tempering = tuple(cast(x) for x in spec.temper)

    def temper(self, y):
        u, d, s, b, t, c, l = self.tempering
        # No in-place XOR: on an ensemble, y may be a view of the ring.
        y = y ^ ((y >> u) & d)
        y = y ^ ((y << s) & b)  # b and c lie inside the word, so they mask the shifts
        y = y ^ ((y << t) & c)
        return y ^ (y >> l)

    def run(self, ring, count, out=None) -> None:
        n, buf, taps, upper, lower, a = self.n, ring.buf, self.taps, self.upper, self.lower, self.a
        temper, emit = self.temper, None if out is None else out.append
        for j, e in self.stretches(ring, count):
            for c in range(j, j + e):
                x = (buf[c] & upper) | (buf[c + 1] & lower)
                v = (x >> 1) ^ ((x & 1) * a)
                for t in taps:
                    v ^= buf[c + t]
                buf[c + n] = v
                if emit is not None:
                    emit(temper(v))

    def blocks(self, buf, count, lung, emit):
        n, span, upper, lower, a = self.n, self.span, self.upper, self.lower, self.a
        for j in range(0, count, span):
            e = min(span, count - j)
            x = (buf[j : j + e] & upper) | (buf[j + 1 : j + e + 1] & lower)
            new = buf[n + j : n + j + e]
            np.right_shift(x, 1, out=new)
            new ^= (x & 1) * a
            for t in self.taps:  # every tap reads a word older than the block
                new ^= buf[j + t : j + t + e]
        return (self.temper(buf[n:]) if emit else None), lung
