"""MELG generators (maximally equidistributed long-period linear, 64-bit).

The state is a ring of n 64-bit words plus one extra "lung" word folded
into every step.  A step splices the live high bits of the oldest word
with the low bits of its successor, mixes that with the feedback tap and
the sheared lung, writes the new lung, and appends the newest word.
The output tempers the newest word and XORs in a lagged state word,
which keeps the output map linear in the post-step state.  ``Melg.run``
is the per-step loop and ``Melg.temper`` the one output expression;
``run`` applies it to each new newest word and its lagged word, and
``blocks`` to all of its new words at once.

A step appends x[j + n] = x' ^ l ^ (l >> s2), where x' splices x[j]
and x[j + 1] and the lung runs l <- A l ^ u[j], with
A = I + L^s1 (L the left shift) and u[j] a function of x[j], x[j + 1]
and x[j + m].  So n - m steps read only words older than the run, and
the block path computes that many, 230 for melg19937, per numpy pass.
Within a pass the lung is an XOR prefix scan: A^P = I for the smallest
power of two P with s1 P >= w (A^P = I + L^(s1 P)), so

    l[t + 1] = A^(t + 1) (l[0] ^ XOR over i <= t of A^-(i + 1) u[i]),

and A^e for e < P is the product of I + L^(s1 2^b) over the set bits b
of e.  The lagged word of step j is x[j + lag] (with lag n for a lag of
0: the word just written), which the block path reads from the
finished array, so the lag does not bound the span.  ``Melg.lungs``
reads each step's lung back from the word it appended, for the states
``base.stream_states`` takes from a stream.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .base import Recurrence


class Melg(Recurrence):
    def __init__(self, spec, cast) -> None:
        super().__init__(spec, cast)
        self.a = cast(spec.a)
        self.b = cast(spec.b)
        self.lag = (spec.lag - 1) % spec.n + 1  # lag 0 reads the word just written
        # a lag of n reads the word the step writes, so lag % n adds no offset
        self.reads = (0, 1, spec.m, self.lag % spec.n)
        self.span = spec.n - spec.m

    def temper(self, v, lagged):
        return v ^ ((v << self.spec.s3) & self.b) ^ lagged

    def run(self, ring, count, out=None) -> None:
        n, buf, lung, m, lag = self.n, ring.buf, ring.lung, self.spec.m, self.lag
        upper, lower, mask, a = self.upper, self.lower, self.mask, self.a
        s1, s2 = self.spec.s1, self.spec.s2
        temper, emit = self.temper, None if out is None else out.append
        for j, e in self.stretches(ring, count):
            for c in range(j, j + e):
                x = (buf[c] & upper) | (buf[c + 1] & lower)
                lung = lung ^ ((lung << s1) & mask)
                lung ^= (x >> 1) ^ ((x & 1) * a) ^ buf[c + m]
                buf[c + n] = v = x ^ lung ^ (lung >> s2)
                if emit is not None:
                    emit(temper(v, buf[c + lag]))
        ring.lung = lung

    @cached_property
    def lung_factors(self) -> tuple[list[tuple[int, np.ndarray]], ...]:
        """The factors of A^-(t + 1) and of A^(t + 1), for the block path's
        lung scan: per factor I + L^(s1 2^b), the pair (s1 2^b, word mask
        where bit b of (-(t + 1)) mod P, or of (t + 1) mod P, is set, else
        0).  Built once per recurrence."""
        w, s1 = self.spec.w, self.spec.s1
        period = 1 << (-(-w // s1) - 1).bit_length()  # the smallest power of two >= w / s1
        factors = []
        for sign in (-1, 1):
            powers = sign * np.arange(1, self.span + 1) % period
            factors.append([
                (s1 << b, np.where(powers >> b & 1, self.mask, 0).astype(type(self.mask)))
                for b in range(period.bit_length() - 1)
            ])
        return tuple(factors)

    def blocks(self, buf, count, lung, emit):
        n, m, span, upper, lower, a = self.n, self.spec.m, self.span, self.upper, self.lower, self.a
        s2, lag = self.spec.s2, self.lag
        inverse, forward = self.lung_factors
        lung = self.mask & lung
        for j in range(0, count, span):
            e = min(span, count - j)
            x = (buf[j : j + e] & upper) | (buf[j + 1 : j + e + 1] & lower)
            scan = (x >> 1) ^ ((x & 1) * a) ^ buf[j + m : j + m + e]  # u
            for shift, where in inverse:
                scan ^= (scan << shift) & where[:e]
            np.bitwise_xor.accumulate(scan, out=scan)
            scan ^= lung
            for shift, where in forward:
                scan ^= (scan << shift) & where[:e]
            lung = scan[-1]  # the scan now holds l[1..e]
            buf[n + j : n + j + e] = x ^ scan ^ (scan >> s2)
        return (self.temper(buf[n:], buf[lag : lag + count]) if emit else None), int(lung)

    def lungs(self, buf, count):
        """The lung after each of the ``count`` steps that appended
        ``buf[n:]`` to the ring ``buf[:n]``, read back from the words they
        appended: x[j + n] ^ x' is l ^ (l >> s2), which the product of
        I + R^(s2 2^b) over s2 2^b < w inverts (R the right shift)."""
        x = (buf[:count] & self.upper) | (buf[1 : count + 1] & self.lower)
        lung = buf[self.n :] ^ x
        shift = self.spec.s2
        while shift < self.spec.w:
            lung ^= lung >> shift
            shift <<= 1
        return lung
