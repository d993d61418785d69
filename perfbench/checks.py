"""Correctness checks, one per op kind, run after the timed passes.

Each check returns None when the op's output is right, else a message.
Where it can, a check takes another path to the answer than the command
did: bundled files read directly, scalar steps instead of matrices or
polynomials, or another thread count.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from f2spectra.bitlinalg import BitVector
from f2spectra.generators import get_spec, make_generator
from f2spectra.gf2poly import jump_ahead
from f2spectra.zeroland import read_seed_file, unit_seed_sweep

from workloads import JUMP_EMIT, Op


class RowSink:
    """Text sink that counts rows and keeps only the chosen ones."""

    def __init__(self, keep=()) -> None:
        self.keep = set(keep)
        self.kept: dict[int, str] = {}
        self.rows = 0
        self.widths: set[int] = set()
        self._part: list[str] = []

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._part.append(text)
            return len(text)
        pieces = text.split("\n")
        for piece in pieces[:-1]:
            self._part.append(piece)
            line = "".join(self._part)
            self.widths.add(len(line))
            if self.rows in self.keep:
                self.kept[self.rows] = line
            self.rows += 1
            self._part = []
        self._part = [pieces[-1]] if pieces[-1] else []
        return len(text)

    def flush(self) -> None:
        pass


def _hex_payload(path: Path) -> int:
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    (payload,) = [ln for ln in lines if ln and not ln.startswith("#")]
    return int(payload, 16)


def _jump(op: Op, out: dict, root: Path):
    steps = int(op.argv[op.argv.index("--steps") + 1])
    seed = int(op.argv[op.argv.index("--seed") + 1])
    d = op.data["d"]
    gen = make_generator(get_spec(op.spec), seed=seed)
    jump_ahead(gen, steps - d)
    for _ in range(d):
        gen.step()
    expected = [gen.next_word() for _ in range(JUMP_EMIT)]
    got = [int(word, 16) for word in out["outputs"]]
    if got != expected:
        return f"jump {steps} != jump {steps - d} then {d} single steps"
    return None


def _badseed(op: Op, out: dict, root: Path):
    spec = get_spec(op.spec)
    gen = make_generator(spec)
    gen.set_raw_state(read_seed_file(op.data["out"], spec))
    for _ in range(op.data["d"]):
        gen.step()
    if gen.state_vector() != BitVector.unit(spec.k, 0):
        return f"state does not reach e_0 after d={op.data['d']} steps"
    return None


def _matrix(op: Op, sink: RowSink, root: Path):
    spec = get_spec(op.spec)
    k = spec.k
    if sink.rows != k or sink.widths != {k}:
        return f"expected {k} rows of {k} digits, got {sink.rows} rows of widths {sink.widths}"
    x = BitVector.random(k, random.Random(op.data["x_seed"]))
    gen = make_generator(spec)
    gen.set_state_vector(x)
    gen.step()
    y = gen.state_vector()
    for i in op.data["rows"]:
        row = int(sink.kept[i][::-1], 2)
        if (row & x.value).bit_count() & 1 != y.get(i):
            return f"row {i}: (Bx)_i differs from one scalar step"
    return None


def _minpoly(op: Op, out: str, root: Path):
    name = op.spec.replace("-", "_")
    bundled = _hex_payload(root / "src" / "f2spectra" / "data" / "minpoly" / f"{name}.hex")
    if _hex_payload(op.data["out"]) != bundled:
        return "recomputed minimal polynomial differs from the bundled .hex"
    return None


def _entropy(op: Op, out: dict, root: Path):
    rows = op.data["out"].read_text().splitlines()[1:]
    logs = [math.log(math.hypot(*map(float, row.split(",")[:2]))) for row in rows]
    k = get_spec(op.spec).k
    h_out = math.fsum(v for v in logs if v > 0)
    if len(logs) != k:
        return f"spectrum has {len(logs)} eigenvalues, expected {k}"
    if abs(math.fsum(logs)) > 1e-6:
        return f"sum of ln|lambda| is {math.fsum(logs):.3g}, expected 0 (|det B| = 1)"
    if abs(out["h"] - h_out) > 1e-6 * max(1.0, h_out):
        return f"h={out['h']} differs from the expanding sum {h_out}"
    return None


def _sweep(op: Op, out: dict, root: Path):
    rows = op.data["out"].read_text().splitlines()[1:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    if not op.data["threads"]:
        return None if len(values) else "empty trace"
    spec = get_spec(op.spec)
    other = unit_seed_sweep(spec, p=out["p"], max_n=out["max_n"], threads=2)
    if not np.array_equal(values, other.values):
        return "sweep trace differs between 1 and 2 threads"
    return None


def _replay(op: Op, out: dict, root: Path):
    spec = get_spec(op.spec)
    gen = make_generator(spec)
    gen.set_raw_state(read_seed_file(op.data["seed_file"], spec))
    steps = out["max_n"] // (2 if spec.w == 64 else 1)
    weights = np.array([gen.next_word().bit_count() for _ in range(steps)])
    sums = np.convolve(weights, np.ones(out["p"], dtype=np.int64), mode="valid")
    low = float(sums.min()) / (out["p"] * spec.w)
    if abs(low - out["min_gamma"]) > 1e-12:
        return f"min gamma {out['min_gamma']} differs from scalar replay {low}"
    return None


def _bench(op: Op, out: dict, root: Path):
    rows = {row["name"]: row["ns_per_double"] for row in out["results"]}
    if not rows.get(op.spec, 0) > 0:
        return f"no positive ns/double for {op.spec}"
    return None


def _charpoly(op: Op, out: dict, root: Path):
    return None if out["all_pass"] else "a charpoly check failed"


_CHECKS = {
    "jump": _jump,
    "badseed": _badseed,
    "matrix": _matrix,
    "minpoly": _minpoly,
    "entropy": _entropy,
    "sweep": _sweep,
    "replay": _replay,
    "bench": _bench,
    "charpoly": _charpoly,
}


def parse_output(op: Op, text: str):
    """The command's --json payload, else its raw stdout."""
    return json.loads(text) if "--json" in op.argv else text


def check(op: Op, output, root: Path) -> str | None:
    """Run the op's check on its parsed output (or its RowSink)."""
    if op.check == "exit":
        return None
    return _CHECKS[op.check](op, output, root)
