"""MELG generators (maximally equidistributed long-period linear, 64-bit).

The state is a ring of n 64-bit words plus one extra "lung" word folded
into every step.  A step splices the live high bits of the oldest word
with the low bits of its successor, mixes that with the feedback tap and
the sheared lung, writes the new lung, and overwrites the oldest slot.
The output tempers the newest word and XORs in a lagged state word,
which keeps the output map linear in the post-step state.
"""

from __future__ import annotations

from .base import Recurrence


class Melg(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.b = cast(spec.b)

    def step(self, ring) -> None:
        spec = self.spec
        st, i, n = ring.st, ring.cursor, self.n
        x = (st[i] & self.upper) | (st[(i + 1) % n] & self.lower)
        lung = ring.lung ^ ((ring.lung << spec.s1) & self.mask)
        lung ^= (x >> 1) ^ ((x & 1) * self.a) ^ st[(i + spec.m) % n]
        ring.lung = lung
        st[i] = x ^ lung ^ (lung >> spec.s2)
        ring.cursor = (i + 1) % n

    def output(self, ring):
        st, c, n = ring.st, ring.cursor, self.n
        v = st[(c - 1) % n]
        return v ^ ((v << self.spec.s3) & self.b) ^ st[(c - 1 + self.spec.lag) % n]
