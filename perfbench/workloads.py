"""Seeded op lists for the benchmark workloads.

One op is one ``f2spectra`` command line. A pass is a workload's full op
list; a run repeats passes, and pass ``i`` of seed ``s`` always draws the
same parameters. Every op writes its files under ``workdir``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from f2spectra.generators import get_spec

from catalog import WORKLOADS

#: The paper-size generators (k = 19937).
BIG = ("mt19937", "mt19937-64id1", "mt19937-64id3", "well19937a", "melg19937")
#: Generators small enough for a dense eigensolve.
SMALL = ("well607b", "well1024a", "melg607")
#: Generators the self-test substitutes for both lists.
TINY = ("well607b", "melg607")
#: Generators that ship a bundled bad seed.
BAD_SEEDS = ("well19937a", "melg19937")

#: Commands each workload runs, in pass order.
COMMANDS = {
    "jump-19937": ("jump",),
    "scan-19937": ("matrix", "minpoly", "zeroland", "bench"),
    "small-k": ("entropy", "badseed", "charpoly"),
}

JUMP_BITS = 64  # step counts are 64-bit with exactly half their bits set
JUMP_EMIT = 4
MATRIX_ROWS_CHECKED = 8
BENCH_DOUBLES = 20_000
BADSEED_MAX_D = 100_000
APPENDIX_B_TRIALS = 5


@dataclass
class Op:
    """One command invocation and what its check needs."""

    command: str
    argv: list[str]
    spec: str | None = None
    check: str = "exit"
    data: dict = field(default_factory=dict)


def seed_file(root: Path, name: str) -> Path:
    return root / "src" / "f2spectra" / "data" / "seeds" / f"{name.replace('-', '_')}_bad.seed"


def _jump_steps(rng: random.Random) -> int:
    """A JUMP_BITS-bit count of fixed popcount, so every draw costs the same."""
    low = rng.sample(range(JUMP_BITS - 1), JUMP_BITS // 2 - 1)
    return (1 << (JUMP_BITS - 1)) | sum(1 << b for b in low)


def _jump_pass(rng, gens, tiny):
    checked = set(gens) if tiny else {rng.choice(gens)}
    ops = []
    for name in gens:
        steps = _jump_steps(rng)
        seed = rng.randrange(1 << 32)
        argv = ["jump", "--spec", name, "--seed", str(seed), "--steps", str(steps),
                "--emit", str(JUMP_EMIT), "--json"]
        check = "jump" if name in checked else "exit"
        ops.append(Op("jump", argv, name, check, {"d": rng.randint(1, 1000)}))
    return ops


def _scan_pass(rng, gens, out, tiny, root):
    threads_checked = rng.choice(gens)
    ops = []
    for name in gens:
        k = get_spec(name).k
        ops.append(Op("matrix", ["matrix", "--spec", name], name, "matrix", {
            "rows": sorted(rng.sample(range(k), MATRIX_ROWS_CHECKED)),
            "x_seed": rng.getrandbits(64),
        }))
        seed = rng.randrange(1, 1 << 32)
        if seed == 12345:  # the bundled .hex seed would skip the computation
            seed += 1
        path = out / f"{name}.minpoly.hex"
        ops.append(Op("minpoly", ["minpoly", "--spec", name, "--seed", str(seed),
                                  "--out", str(path)], name, "minpoly", {"out": path}))
        path = out / f"{name}.sweep.csv"
        ops.append(Op("zeroland", ["zeroland", "--spec", name, "--out", str(path), "--json"],
                      name, "sweep", {"out": path, "threads": name == threads_checked}))
        if name in BAD_SEEDS:
            ops.append(Op("zeroland", ["zeroland", "--spec", name, "--seed-file",
                                       str(seed_file(root, name)), "--json"],
                          name, "replay", {"seed_file": seed_file(root, name)}))
        doubles = 1000 if tiny else BENCH_DOUBLES
        ops.append(Op("bench", ["bench", "--specs", name, "--doubles", str(doubles),
                                "--warmup", "1000", "--json"], name, "bench"))
    return ops


def _small_pass(rng, gens, out, tiny):
    ops = []
    for name in gens:
        path = out / f"{name}.spectrum.csv"
        ops.append(Op("entropy", ["entropy", "--spec", name, "--out", str(path), "--json"],
                      name, "entropy", {"out": path}))
    for name in gens:
        d = rng.randint(1, 1000 if tiny else BADSEED_MAX_D)
        path = out / f"{name}.seed"
        ops.append(Op("badseed", ["badseed", "--spec", name, "--d", str(d), "--out", str(path),
                                  "--json"], name, "badseed", {"d": d, "out": path}))
    trials = ["--trials", "2"] if tiny else []
    b_trials = ["--trials", "2" if tiny else str(APPENDIX_B_TRIALS)]
    for check, extra in (("verify-appendix-a", trials), ("verify-appendix-b", b_trials)):
        ops.append(Op("charpoly", ["charpoly", check, "--rng-seed", str(rng.randrange(1 << 31)),
                                   *extra, "--json"], None, "charpoly"))
    ops.append(Op("charpoly", ["charpoly", "mt19937-mod2", "--json"], None, "charpoly"))
    return ops


def make_pass(workload: str, seed: int, index: int, workdir: Path, root: Path,
              tiny: bool = False) -> list[Op]:
    """The ops of pass ``index``; their outputs go to a fresh directory."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = workdir / f"pass{index}"
    out.mkdir(parents=True, exist_ok=True)
    if workload == "jump-19937":
        return _jump_pass(rng, TINY if tiny else BIG, tiny)
    if workload == "scan-19937":
        return _scan_pass(rng, TINY if tiny else BIG, out, tiny, root)
    if workload == "small-k":
        return _small_pass(rng, TINY if tiny else SMALL, out, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_ops(workload: str, workdir: Path, root: Path) -> list[Op]:
    """One cheap, unchecked op per command the workload runs."""
    out = workdir / "warmup"
    out.mkdir(parents=True, exist_ok=True)
    ops = {
        "jump": [["jump", "--spec", "mt19937", "--steps", "1000", "--emit", "1", "--json"]],
        "matrix": [["matrix", "--spec", "well607b"]],
        "minpoly": [["minpoly", "--spec", "well607b", "--seed", "1",
                     "--out", str(out / "minpoly.hex")]],
        "zeroland": [
            ["zeroland", "--spec", "well607b", "--max-n", "200", "--json"],
            ["zeroland", "--spec", BAD_SEEDS[0], "--seed-file",
             str(seed_file(root, BAD_SEEDS[0])), "--max-n", "1000", "--json"],
        ],
        "bench": [["bench", "--specs", "well607b", "--doubles", "100", "--warmup", "0",
                   "--json"]],
        "entropy": [["entropy", "--spec", "melg607", "--json"]],
        "badseed": [["badseed", "--spec", "melg607", "--d", "1", "--json"]],
        "charpoly": [["charpoly", "verify-appendix-a", "--trials", "1", "--json"]],
    }
    return [Op(cmd, argv) for cmd in COMMANDS[workload] for argv in ops[cmd]]
