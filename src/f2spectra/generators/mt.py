"""Mersenne Twister generators, 32- and 64-bit, one or three feedback taps.

The update is the single-word form of the twisted GFSR recurrence: each
step splices the top w-r bits of the oldest word with the low r bits of
its successor, applies the twist, XORs the feedback tap(s), and writes
the result over the oldest slot.  The output runs through the usual
four-stage tempering.  ``Mt.run`` is the one step loop and ``Mt.temper``
the one output expression; ``output`` applies it to the newest word, and
``run`` to its whole batch of new words at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import GeneratorSpec, Recurrence, word_dtype


#: Batches of at least this many new words are tempered as one word array;
#: the two ways break even at about 24 words.
_ARRAY_BATCH = 32


@lru_cache(maxsize=None)
def _rows(spec: GeneratorSpec) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per cursor c: (c, its successor's slot, the feedback taps' slots)."""
    n, slot = spec.n, tuple(range(spec.n))  # one int object per slot, shared by the rows
    taps = (spec.m,) if spec.m is not None else (spec.m1, spec.m2, spec.m3)
    return tuple((slot[c], slot[(c + 1) % n], tuple(slot[(c + t) % n] for t in taps))
                 for c in range(n))


class Mt(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.rows = _rows(spec)
        self.tempering = tuple(cast(x) for x in spec.temper)
        self.dtype = word_dtype(spec)

    def temper(self, y):
        u, d, s, b, t, c, l = self.tempering
        # No in-place XOR: on an ensemble, y may be a view of the ring.
        y = y ^ ((y >> u) & d)
        y = y ^ ((y << s) & b)  # b and c lie inside the word, so they mask the shifts
        y = y ^ ((y << t) & c)
        return y ^ (y >> l)

    def run(self, ring, count, out=None) -> None:
        st, upper, lower, a = ring.st, self.upper, self.lower, self.a
        emit = None if out is None else out.append
        for c, c1, taps in self.walk(ring, count):
            x = (st[c] & upper) | (st[c1] & lower)
            v = (x >> 1) ^ ((x & 1) * a)
            for t in taps:
                v ^= st[t]
            st[c] = v
            if emit is not None:
                emit(v)
        if out is not None and count:
            new = out[-count:]
            # Tempering a batch as one word array costs about 15 us of numpy
            # calls, then far less per word than tempering each int.
            out[-count:] = (self.temper(np.array(new, dtype=self.dtype)).tolist()
                            if count >= _ARRAY_BATCH else map(self.temper, new))

    def output(self, ring):
        return self.temper(ring.st[self.index(ring.cursor, self.n - 1)])
