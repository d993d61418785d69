"""f2spectra benchmark: the CLI's commands at the paper's size, timed end to end
and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload jump-19937 --seed 1 --seconds 20 --trace 0

Each run starts fresh interpreters (``worker.py``) that call
``f2spectra.cli.main`` in-process on a seeded op list; the ``src`` tree of
the checkout is imported directly, so nothing is built or installed.
OpenBLAS and the CLI both run single-threaded. With ``--trace 0`` the
last stdout line carries ``wall_s`` (median pass time, checks excluded),
``setup_s`` (median of several fresh set-ups: interpreter start, import,
data load, one warm-up op per command) and ``peak_rss_mb``; with
``--trace 1`` it carries the per-layer figures of ``catalog.PER_LAYER``.
The line before it holds the details: per-command times and op counts,
``fail_ratio``, the run environment, any failures and, when traced, the
spans of the last traced pass as [name, start, duration, parent] rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # fresh set-ups per --trace 0 run, the last one also runs the ops
RUN_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(root: Path, argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion; returns its result with ``setup_s`` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("F2SPECTRA_THREADS", None)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    result.pop("ready_at")
    return result


def measure(args, root: Path, workdir: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.tiny:
        argv.append("--tiny")
    setups = []
    if not args.trace:
        setups = [spawn(root, argv + ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(root, argv, deadline)
    setups.append(run)
    problems = [p for s in setups for p in s["problems"]]
    attempted = sum(s["attempted"] for s in setups)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_s": run["pass_s"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "command_s": run["commands"],
        "op_seconds": run["op_seconds"],
        "fail_ratio": len(problems) / attempted,
        "env": {**run["env"], "git_commit": git_commit(root), "seed": args.seed},
        "problems": problems,
    }
    if args.trace:
        values = run["per_layer"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        details["moves"] = {name: moves for name, _, moves in PER_LAYER}
        details["spans_last_pass"] = run["spans"]
    else:
        values = {
            "wall_s": run["wall_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny op lists on small generators (for selftest.py)")
    args = parser.parse_args()
    # A terminated run still stops its worker and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "f2spectra" / "cli.py").is_file():
        print("error: run from the root of an f2spectra checkout (no src/f2spectra/cli.py)",
              file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        details, result = measure(args, root, workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
