"""Mersenne Twister generators, 32- and 64-bit, one or three feedback taps.

The update is the single-word form of the twisted GFSR recurrence: each
step splices the top w-r bits of the oldest word with the low r bits of
its successor, applies the twist, XORs the feedback tap(s), and writes
the result over the oldest slot.  The output runs through the usual
four-stage tempering.  ``Mt.run`` is the per-step loop and ``Mt.temper``
the one output expression; ``output`` applies it to the newest word, and
``blocks`` to all of its new words at once.

In logical order the recurrence appends x[j + n] = f(x[j], x[j + 1],
x[j + m]) for each tap m, so a run of n - (largest tap) steps reads only
words older than the run: the block path computes that many words, 227
for mt19937, per numpy pass, as the published refill computes its first
n - m words.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import GeneratorSpec, Recurrence


def _taps(spec: GeneratorSpec) -> tuple[int, ...]:
    return (spec.m,) if spec.m is not None else (spec.m1, spec.m2, spec.m3)


@lru_cache(maxsize=None)
def _rows(spec: GeneratorSpec) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per cursor c: (c, its successor's slot, the feedback taps' slots)."""
    n, slot = spec.n, tuple(range(spec.n))  # one int object per slot, shared by the rows
    return tuple((slot[c], slot[(c + 1) % n], tuple(slot[(c + t) % n] for t in _taps(spec)))
                 for c in range(n))


class Mt(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.rows = _rows(spec)
        self.taps = _taps(spec)
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
        st, upper, lower, a, temper = ring.st, self.upper, self.lower, self.a, self.temper
        emit = None if out is None else out.append
        for c, c1, taps in self.walk(ring, count):
            x = (st[c] & upper) | (st[c1] & lower)
            v = (x >> 1) ^ ((x & 1) * a)
            for t in taps:
                v ^= st[t]
            st[c] = v
            if emit is not None:
                emit(temper(v))

    def output(self, ring):
        return self.temper(ring.st[self.index(ring.cursor, self.n - 1)])

    def blocks(self, buf, count, lung):
        n, span, upper, lower, a = self.n, self.span, self.upper, self.lower, self.a
        for j in range(0, count, span):
            e = min(span, count - j)
            x = (buf[j : j + e] & upper) | (buf[j + 1 : j + e + 1] & lower)
            new = buf[n + j : n + j + e]
            np.right_shift(x, 1, out=new)
            new ^= (x & 1) * a
            for t in self.taps:  # every tap reads a word older than the block
                new ^= buf[j + t : j + t + e]
        return self.temper(buf[n:]), lung
