"""One benchmark run in a fresh interpreter; started by run.py.

Set-up imports ``f2spectra.cli``, loads the specs and bundled data the
workload uses and runs one untimed warm-up op per command; its end is
reported as ``ready_at`` on the system-wide monotonic clock. Then the
worker runs passes of the workload's op list through ``cli.main`` with
stdout captured, until another pass would overrun ``--seconds``. Every
op is then checked outside the timed region. With ``--trace 1`` the same
passes run again with layer spans installed. The last stdout line is
one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from catalog import PER_LAYER, WORKLOADS

ROOT = Path.cwd()


def hardware() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as source:
            model = next((ln.split(":", 1)[1].strip() for ln in source
                          if ln.lower().startswith("model name")), model)
    except OSError:
        pass
    return ", ".join(part for part in (platform.platform(), model) if part)


def environment() -> dict:
    import numpy
    import scipy

    import f2spectra

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "hardware": hardware(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "f2spectra": f2spectra.__version__,
    }


class Runner:
    def __init__(self, args) -> None:
        from f2spectra import cli

        self.cli = cli
        self.args = args
        self.workdir = Path(args.workdir)

    def invoke(self, op, tracer=None):
        """Run one op; returns (seconds, captured stdout, problem or None)."""
        from checks import RowSink

        sink = RowSink(op.data.get("rows", ())) if op.command == "matrix" else io.StringIO()
        err = io.StringIO()
        gc.collect()
        problem = None
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    with tracer.span(f"op.{op.command}"):
                        code = self.cli.main(op.argv)
            if code != 0:
                problem = f"exit code {code}: {err.getvalue().strip()}"
        except SystemExit as exc:
            problem = f"SystemExit({exc.code}): {err.getvalue().strip()}"
        except Exception:
            problem = traceback.format_exc(limit=4)
        return time.perf_counter() - start, sink, problem

    def passes(self, count=None, tracer=None):
        """Timed passes: ``count`` of them, or as many as fit the budget."""
        from workloads import make_pass

        a = self.args
        done, start = [], time.perf_counter()
        while count is None or len(done) < count:
            ops = make_pass(a.workload, a.seed, len(done), self.workdir, ROOT, a.tiny)
            records = [(op, *self.invoke(op, tracer)) for op in ops]
            layers = tracer.take() if tracer is not None else None
            done.append((records, layers))
            if count is None and time.perf_counter() - start + wall(done) > a.seconds:
                break
        return done


def _median(values):
    return statistics.median(values) if values else 0.0


def command_times(done) -> dict[str, float]:
    """Median over passes of each command's summed op time."""
    per_pass = []
    for records, _ in done:
        sums = defaultdict(float)
        for op, seconds, *_ in records:
            sums[op.command] += seconds
        per_pass.append(sums)
    names = {name for sums in per_pass for name in sums}
    return {name: _median([sums[name] for sums in per_pass]) for name in sorted(names)}


def op_summary(done, command: str) -> dict:
    times = sorted(s for records, _ in done for op, s, *_ in records if op.command == command)
    return {"n": len(times), "median": _median(times), "max": times[-1]}


def pass_time(records) -> float:
    return sum(seconds for _, seconds, _, _ in records)


def wall(done) -> float:
    """Median pass time."""
    return _median([pass_time(records) for records, _ in done])


def layer_metrics(done, untraced_wall: float, commands: dict[str, float]) -> dict[str, float]:
    """Per-layer figures: each the median over traced passes."""
    from checks import parse_output

    rows = []
    for records, (self_time, counts, errors, _) in done:
        row = defaultdict(float)
        for name, seconds in self_time.items():
            layer = "cli.self" if name.startswith("op.") else name
            row[f"{layer}_s"] += seconds
        row.update({name: float(value) for name, value in counts.items()})
        row["trace.span_errors"] = float(errors)
        bench = [r for r in records if r[0].command == "bench" and r[3] is None]
        ns = [row_["ns_per_double"] for op, _, sink, _ in bench
              for row_ in parse_output(op, sink.getvalue())["results"] if row_["name"] == op.spec]
        row["generators.next_real_ns"] = _median(ns)
        bits = row["gf2poly.pow_mod_exp_bits"]
        row["gf2poly.pow_mod_ms_per_bit"] = 1e3 * row["gf2poly.pow_mod_s"] / bits if bits else 0.0
        steps = row["gf2poly.horner_steps"]
        row["generators.horner_step_ns"] = (
            1e9 * row["gf2poly.apply_transition_polynomial_s"] / steps if steps else 0.0
        )
        row["trace.overhead_s"] = pass_time(records) - untraced_wall
        rows.append(row)
    out = {name: _median([row.get(name, 0.0) for row in rows]) for name, _, _ in PER_LAYER}
    out.update({f"{name}_s": seconds for name, seconds in commands.items()})
    return out


def check_all(done) -> list[str]:
    from checks import check, parse_output

    problems = []
    for index, (records, _) in enumerate(done):
        for op, _, sink, problem in records:
            if problem is None:
                try:
                    output = sink if op.command == "matrix" else parse_output(op, sink.getvalue())
                    problem = check(op, output, ROOT)
                except Exception:
                    problem = "check raised: " + traceback.format_exc(limit=4)
            if problem is not None:
                problems.append(f"pass {index} {' '.join(op.argv)}: {problem}")
    return problems


def setup(runner: Runner) -> tuple[int, list[str]]:
    """Spec and bundled-data load, then one warm-up op per command.

    Returns the number of warm-up ops and their problems."""
    from f2spectra.generators import get_spec
    from f2spectra.gf2poly import minimal_polynomial
    from f2spectra.zeroland import bundled_bad_seed
    from workloads import BAD_SEEDS, BIG, SMALL, TINY, warmup_ops

    a = runner.args
    names = TINY if a.tiny else SMALL if a.workload == "small-k" else BIG
    for name in names:
        minimal_polynomial(get_spec(name))
    if a.workload == "scan-19937":
        for name in BAD_SEEDS:
            bundled_bad_seed(name)
    ops = warmup_ops(a.workload, runner.workdir, ROOT)
    problems = []
    for op in ops:
        _, _, problem = runner.invoke(op)
        if problem is not None:
            problems.append(f"warm-up {' '.join(op.argv)}: {problem}")
    return len(ops), problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import f2spectra

    if not Path(f2spectra.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"f2spectra imported from {f2spectra.__file__}, not from ./src")
    runner = Runner(args)
    warmups, problems = setup(runner)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "attempted": warmups, "problems": problems}))
        return 0

    done = runner.passes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += check_all(done)
    commands = command_times(done)
    result = {
        "ready_at": ready_at,
        "attempted": warmups + sum(len(records) for records, _ in done),
        "wall_s": wall(done),
        "pass_s": [pass_time(records) for records, _ in done],
        "peak_rss_mb": peak_rss_mb,
        "commands": commands,
        "op_seconds": {name: op_summary(done, name) for name in commands},
        "env": environment(),
    }
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.passes(count=len(done), tracer=tracer)
        finally:
            tracer.uninstall()
        result["attempted"] += sum(len(records) for records, _ in traced)
        problems += [f"traced pass {index} {' '.join(op.argv)}: {problem}"
                     for index, (records, _) in enumerate(traced)
                     for op, _, _, problem in records if problem is not None]
        result["per_layer"] = layer_metrics(traced, result["wall_s"], commands)
        result["spans"] = traced[-1][1][3]
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
