"""In-memory spans around the public functions of each f2spectra layer.

``Tracer.install`` replaces each listed function with a wrapper on every
name a caller looks it up by: the defining module or class, and every
``f2spectra`` module that imported it by name (``cli.jump_ahead`` as well
as ``gf2poly.jump_ahead``). A span records its name, start, end and
parent; a layer's self time is its spans' time minus the part their
child spans cover. Work counts are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


def _counts_pow_mod(args, result):
    return {"gf2poly.pow_mod_exp_bits": args[1].bit_length()}


def _counts_horner(args, result):
    return {"gf2poly.horner_steps": args[1].degree + 1}


def _counts_bm(args, result):
    return {"gf2poly.bm_bits": args[1]}


def _counts_probe(args, result):
    return {"ensemble.probe_lanes": args[2] - args[1]}


def _counts_transpose(args, result):
    return {"bitlinalg.transpose_bytes": args[0].storage.nbytes + result.storage.nbytes}


def _counts_write(args, result):
    return {"bitlinalg.write_matrix_bytes": args[0].rows * (args[0].cols + 1)}


def _counts_sweep(args, result):
    steps = len(result.values) + result.p - 1
    return {"zeroland.sweep_lane_steps": result.k_ensemble * steps}


def _counts_eigen(args, result):
    return {"spectral.eigen_k3": result.k ** 3}


def _counts_brute(args, result):
    return {"charpoly.brute_charpoly_calls": 1}


def layer_functions():
    """(span name, owner, attribute, counter) for every traced function."""
    from f2spectra import bitlinalg, charpoly, gf2poly, spectral, zeroland
    from f2spectra.generators import Generator, ensemble

    return [
        ("gf2poly.pow_mod", gf2poly.GF2Poly, "pow_mod", _counts_pow_mod),
        ("gf2poly.apply_transition_polynomial", gf2poly, "apply_transition_polynomial",
         _counts_horner),
        ("gf2poly.berlekamp_massey", gf2poly, "berlekamp_massey", _counts_bm),
        ("gf2poly.output_bit_sequence", gf2poly, "output_bit_sequence", None),
        ("gf2poly.minimal_polynomial", gf2poly, "minimal_polynomial", None),
        ("generators.state_vector", Generator, "state_vector", None),
        ("generators.set_state_vector", Generator, "set_state_vector", None),
        ("ensemble.probe_images", ensemble, "probe_images", _counts_probe),
        ("ensemble.state_rows", ensemble.Ensemble, "state_rows", None),
        ("bitlinalg.extract_transition_matrix", bitlinalg, "extract_transition_matrix", None),
        ("bitlinalg.transpose", bitlinalg, "transpose", _counts_transpose),
        ("bitlinalg.write_matrix", bitlinalg, "write_matrix", _counts_write),
        ("zeroland.unit_seed_sweep", zeroland, "unit_seed_sweep", _counts_sweep),
        ("zeroland.replay_seed", zeroland, "replay_seed", None),
        ("spectral.to_real_matrix", spectral, "to_real_matrix", None),
        ("spectral.eigenvalues", spectral, "eigenvalues", _counts_eigen),
        ("spectral.spectrum_csv", spectral, "spectrum_csv", None),
        ("charpoly.brute_charpoly", charpoly, "brute_charpoly", _counts_brute),
        ("charpoly.mt_charpoly", charpoly, "mt_charpoly", None),
    ]


class Tracer:
    """Nested spans and work counts, kept in memory until ``take``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        if not self._stack or self._stack.pop() != sid:
            self.errors += 1

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                tracer.errors += 1  # spans from worker threads would break nesting
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors += 1
                raise
            finally:
                tracer._close(sid)
            if counter is not None:
                try:
                    tracer.counts.update(counter(args, result))
                except (AttributeError, IndexError, TypeError):
                    tracer.errors += 1  # the call did not have the expected shape
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for name, owner, attr, counter in layer_functions():
            original = getattr(owner, attr)
            traced = self._wrap(name, original, counter)
            self._patch(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("f2spectra")
                        and module is not owner and getattr(module, attr, None) is original):
                    self._patch(module, attr, traced)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> tuple[dict[str, float], Counter, int, list]:
        """Self time per span name, counts, span errors and the spans
        themselves as [name, start, duration, parent] rows; then reset."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append(span)
        self_time: dict[str, float] = defaultdict(float)
        for sid, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children[sid], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_time[span.name] += span.end - span.start - covered
        origin = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, s.start - origin, s.end - s.start, s.parent] for s in self.spans]
        result = (dict(self_time), self.counts, self.errors + len(self._stack), rows)
        self.spans, self.counts, self.errors, self._stack = [], Counter(), 0, []
        return result
