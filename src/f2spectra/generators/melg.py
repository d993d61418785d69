"""MELG generators (maximally equidistributed long-period linear, 64-bit).

The state is a ring of n 64-bit words plus one extra "lung" word folded
into every step.  A step splices the live high bits of the oldest word
with the low bits of its successor, mixes that with the feedback tap and
the sheared lung, writes the new lung, and overwrites the oldest slot.
The output tempers the newest word and XORs in a lagged state word,
which keeps the output map linear in the post-step state.  ``Melg.run``
is the one step loop and ``Melg.temper`` the one output expression;
``output`` applies it to the newest and the lagged word.
"""

from __future__ import annotations

from functools import lru_cache

from .base import GeneratorSpec, Recurrence


@lru_cache(maxsize=None)
def _rows(spec: GeneratorSpec) -> tuple[tuple[int, int, int, int], ...]:
    """Per cursor i: (i, its successor's slot, the feedback tap's slot, the
    slot the output lags to once the step has written slot i)."""
    n, slot = spec.n, tuple(range(spec.n))  # one int object per slot, shared by the rows
    return tuple((slot[i], slot[(i + 1) % n], slot[(i + spec.m) % n], slot[(i + spec.lag) % n])
                 for i in range(n))


class Melg(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.b = cast(spec.b)
        self.rows = _rows(spec)

    def temper(self, v, lagged):
        return v ^ ((v << self.spec.s3) & self.b) ^ lagged

    def run(self, ring, count, out=None) -> None:
        st, lung = ring.st, ring.lung
        upper, lower, mask, a = self.upper, self.lower, self.mask, self.a
        s1, s2 = self.spec.s1, self.spec.s2
        temper, emit = self.temper, None if out is None else out.append
        for i, i1, m, lag in self.walk(ring, count):
            x = (st[i] & upper) | (st[i1] & lower)
            lung = lung ^ ((lung << s1) & mask)
            lung ^= (x >> 1) ^ ((x & 1) * a) ^ st[m]
            st[i] = v = x ^ lung ^ (lung >> s2)
            if emit is not None:
                emit(temper(v, st[lag]))
        ring.lung = lung

    def output(self, ring):
        st, c = ring.st, ring.cursor
        return self.temper(st[self.index(c, self.n - 1)], st[self.index(c, self.spec.lag - 1)])
