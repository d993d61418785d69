"""Command-line surface: matrix, spectrum, and polynomial artifacts.

Every subcommand that writes a file also writes ``<path>.manifest.json``
next to its first output, recording the command, generator names,
parameters, output paths, wall time, and tool version.  Runs whose only
output is stdout carry the same manifest inline under ``--json``.
Except for ``bench``, every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from ._util import resolve_threads
from .bitlinalg import BitVector, extract_transition_matrix, write_matrix
from .charpoly import (
    BlockSpec,
    assemble_block_matrix,
    brute_charpoly,
    mt_charpoly,
    phi_A,
    tgfsr_charpoly,
)
from .generators import get_spec, list_specs, make_generator
from .gf2poly import format_minpoly, jump_ahead, minimal_polynomial
from .spectral import DEFAULT_EIGEN_CAP, eigenvalues, entropy, spectrum_csv
from .zeroland import (
    DEFAULT_BAND_SIGMAS,
    balanced_time,
    format_seed_text,
    replay_seed,
    trace_csv,
    unit_seed_sweep,
)

MT_BLOCK = BlockSpec(n=624, m=397, w=32, r=31, a=0x9908B0DF)


# -- run manifests -----------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written alongside every file artifact."""

    command: str
    specs: tuple[str, ...]
    parameters: dict[str, Any]
    outputs: tuple[str, ...]
    wall_time_s: float
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "specs": list(self.specs),
                "parameters": self.parameters,
                "outputs": list(self.outputs),
                "wall_time_s": self.wall_time_s,
                "version": self.version,
            },
            indent=2,
        )


def _finish(
    args: argparse.Namespace,
    command: str,
    specs: Sequence[str],
    parameters: dict[str, Any],
    outputs: Sequence[str],
    payload: dict[str, Any],
    lines: Sequence[str],
    started: float,
    ok: bool = True,
) -> int:
    """Write the manifest, print the result, and map ``ok`` to an exit code."""
    manifest = RunManifest(
        command=command,
        specs=tuple(specs),
        parameters=parameters,
        outputs=tuple(outputs),
        wall_time_s=round(time.perf_counter() - started, 3),
    )
    if outputs:
        Path(outputs[0] + ".manifest.json").write_text(manifest.to_json() + "\n")
    if getattr(args, "json", False):
        body = dict(payload)
        body["manifest"] = json.loads(manifest.to_json())
        print(json.dumps(body, indent=2))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def _int_arg(text: str, minimum: int = 0) -> int:
    """Integer >= ``minimum``; accepts 0x/0o/0b prefixes and underscores."""
    try:
        value = int(text.replace("_", ""), 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int_arg(text: str) -> int:
    """Count that must be at least 1, such as a number of trials or outputs."""
    return _int_arg(text, minimum=1)


def _nonnegative_float_arg(text: str) -> float:
    """Finite real number >= 0, such as a band half-width in sigmas."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


# -- subcommands -------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    if args.json and not args.out:
        raise ValueError("matrix --json needs --out (the matrix itself goes to the file)")
    mat = extract_transition_matrix(spec, threads=args.threads)
    outputs: list[str] = []
    if args.out:
        with open(args.out, "w") as sink:
            write_matrix(mat, sink)
        outputs.append(args.out)
        lines = [f"{spec.name}: wrote {mat.rows}x{mat.cols} transition matrix to {args.out}"]
    else:
        write_matrix(mat, sys.stdout)
        lines = []
    return _finish(
        args,
        "matrix",
        [spec.name],
        {"out": args.out, "threads": args.threads},
        outputs,
        {"name": spec.name, "k": mat.rows},
        lines,
        t0,
    )


def cmd_entropy(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    cap = max(DEFAULT_EIGEN_CAP, spec.k) if args.extended else DEFAULT_EIGEN_CAP
    if spec.k > cap:
        raise ValueError(
            f"{spec.name} has k={spec.k} > {cap}; pass --extended for long dense eigensolves"
        )
    mat = extract_transition_matrix(spec, threads=args.threads)
    spectrum = eigenvalues(mat, source=spec.name, cap=cap)
    report = entropy(spectrum, name=spec.name)
    outputs: list[str] = []
    if args.out:
        with open(args.out, "w") as sink:
            spectrum_csv(spectrum, sink)
        outputs.append(args.out)
    payload = json.loads(report.to_json())
    lines = [report.to_json()]
    if outputs:
        lines.append(f"wrote spectrum CSV to {outputs[0]}")
    return _finish(
        args,
        "entropy",
        [spec.name],
        {"extended": args.extended, "out": args.out},
        outputs,
        payload,
        lines,
        t0,
    )


def cmd_minpoly(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    poly = minimal_polynomial(spec, seed=args.seed)
    outputs: list[str] = []
    if args.out:
        Path(args.out).write_text(format_minpoly(spec.name, args.seed, poly))
        outputs.append(args.out)
    lines = [f"{spec.name}: degree={poly.degree} N1={poly.weight}"]
    if outputs:
        lines.append(f"wrote minimal polynomial to {outputs[0]}")
    return _finish(
        args,
        "minpoly",
        [spec.name],
        {"seed": args.seed, "out": args.out},
        outputs,
        {"name": spec.name, "degree": poly.degree, "n1": poly.weight},
        lines,
        t0,
    )


def _appendix_a_checks(trials: int, rng: random.Random) -> list[tuple[str, bool]]:
    """Random narrow-word, r=0 configs: closed form against the exact charpoly."""
    checks: list[tuple[str, bool]] = []
    plus_differs = 0
    for _ in range(trials):
        n = rng.randint(2, 6)
        m = rng.randint(1, n - 1)
        w = rng.randint(1, 3)
        a = rng.randrange(1 << w)
        block = BlockSpec(n=n, m=m, w=w, r=0, a=a)
        label = f"n={n} m={m} w={w} a={a:#0{w // 4 + 3}x}"
        minus = tgfsr_charpoly(n, m, phi_A(a, w))
        exact = brute_charpoly(assemble_block_matrix(block))
        checks.append((f"{label}: closed form equals exact charpoly over Z", minus == exact))
        plus = tgfsr_charpoly(n, m, phi_A(a, w), sign=+1)
        checks.append((f"{label}: plus-sign variant agrees mod 2", plus.to_gf2() == minus.to_gf2()))
        if plus != minus:
            plus_differs += 1
    checks.append(("plus-sign variant differs over Z on at least one config", plus_differs > 0))
    return checks


def _appendix_b_checks(trials: int, rng: random.Random) -> list[tuple[str, bool]]:
    """Random r>=1 configs small enough for the exact determinant oracle."""
    checks: list[tuple[str, bool]] = []
    for _ in range(trials):
        w = rng.randint(2, 8)
        r = rng.randint(1, w - 1)
        n = rng.randint(2, (48 + r) // w)
        m = rng.randint(1, n - 1)
        a = rng.randrange(1 << w)
        block = BlockSpec(n=n, m=m, w=w, r=r, a=a)
        label = f"n={n} m={m} w={w} r={r} a={a:#x}"
        ok = mt_charpoly(block) == brute_charpoly(assemble_block_matrix(block))
        checks.append((f"{label}: closed form equals exact charpoly over Z", ok))
    return checks


def _mt19937_mod2_checks() -> list[tuple[str, bool]]:
    phi2 = mt_charpoly(MT_BLOCK).to_gf2()
    poly = minimal_polynomial(get_spec("mt19937"))
    return [
        (f"closed form mod 2 has degree {phi2.degree}", phi2.degree == 19937),
        ("closed form mod 2 equals the mt19937 minimal polynomial", phi2 == poly),
    ]


def cmd_charpoly(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    rng = random.Random(args.rng_seed)
    if args.check == "verify-appendix-a":
        checks = _appendix_a_checks(args.trials, rng)
        specs: list[str] = []
    elif args.check == "verify-appendix-b":
        checks = _appendix_b_checks(args.trials, rng)
        specs = []
    else:
        checks = _mt19937_mod2_checks()
        specs = ["mt19937"]
    ok = all(passed for _, passed in checks)
    lines = [f"{'PASS' if passed else 'FAIL'}  {name}" for name, passed in checks]
    lines.append(f"{args.check}: {'all checks passed' if ok else 'CHECKS FAILED'}")
    payload = {
        "check": args.check,
        "results": [{"name": name, "pass": passed} for name, passed in checks],
        "all_pass": ok,
    }
    return _finish(
        args,
        "charpoly",
        specs,
        {"check": args.check, "trials": args.trials, "rng_seed": args.rng_seed},
        [],
        payload,
        lines,
        t0,
        ok=ok,
    )


def cmd_zeroland(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    outputs: list[str] = []
    if args.seed_file:
        p = args.p if args.p is not None else -(-spec.k // spec.w)
        max_n = args.max_n if args.max_n is not None else 8000
        trace = replay_seed(spec, args.seed_file, p=p, max_n=max_n)
        idx = int(np.argmin(trace.values))
        min_gamma = float(trace.values[idx])
        min_at = int(trace.normalized_positions()[idx])
        payload: dict[str, Any] = {
            "name": spec.name,
            "mode": "replay",
            "p": p,
            "max_n": max_n,
            "min_gamma": min_gamma,
            "min_at": min_at,
        }
        lines = [
            f"{spec.name}: replay of {args.seed_file} dips to gamma={min_gamma:.4f} "
            f"at normalized n={min_at} (window p={p})"
        ]
        parameters: dict[str, Any] = {"seed_file": args.seed_file, "p": p, "max_n": max_n}
    else:
        p = args.p if args.p is not None else 100
        max_n = args.max_n if args.max_n is not None else 2000
        trace = unit_seed_sweep(spec, p=p, max_n=max_n, threads=args.threads)
        settled = balanced_time(trace, band_sigmas=args.band_sigmas)
        payload = {
            "name": spec.name,
            "mode": "sweep",
            "p": p,
            "max_n": max_n,
            "band_sigmas": args.band_sigmas,
            "balanced_time": settled,
        }
        lines = [
            f"{spec.name}: balanced_time={settled} "
            f"(unit-seed ensemble, p={p}, max_n={max_n}, +/-{args.band_sigmas} sigma)"
        ]
        parameters = {
            "p": p,
            "max_n": max_n,
            "band_sigmas": args.band_sigmas,
            "threads": args.threads,
        }
    if args.out:
        with open(args.out, "w") as sink:
            trace_csv(trace, sink, band_sigmas=args.band_sigmas)
        outputs.append(args.out)
        lines.append(f"wrote trace CSV to {args.out}")
    return _finish(
        args, "zeroland", [spec.name], parameters, outputs, payload, lines, t0
    )


def cmd_badseed(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    gen = make_generator(spec)
    gen.set_state_vector(BitVector.unit(spec.k, 0))
    jump_ahead(gen, -args.d)
    text = format_seed_text(gen.get_raw_state(), spec)
    outputs: list[str] = []
    if args.out:
        Path(args.out).write_text(text)
        outputs.append(args.out)
        lines = [
            f"{spec.name}: wrote the state sitting {args.d} steps before the "
            f"single-bit corner to {args.out}"
        ]
    else:
        lines = [text.rstrip("\n")]
    return _finish(
        args,
        "badseed",
        [spec.name],
        {"d": args.d, "out": args.out},
        outputs,
        {"name": spec.name, "d": args.d, "words": len(gen.get_raw_state().words)},
        lines,
        t0,
    )


def cmd_jump(args: argparse.Namespace) -> int:
    if args.verify and args.steps > 2_000_000:
        raise ValueError("--verify steps one at a time; keep --steps <= 2000000 with it")
    t0 = time.perf_counter()
    spec = get_spec(args.spec)
    gen = make_generator(spec, seed=args.seed)
    jump_ahead(gen, args.steps)
    jumped = [gen.next_word() for _ in range(args.emit)]
    payload: dict[str, Any] = {
        "name": spec.name,
        "seed": args.seed,
        "steps": args.steps,
        "outputs": [f"{word:#x}" for word in jumped],
    }
    lines = [
        f"{spec.name}: outputs after jumping {args.steps} steps from seed {args.seed}:"
    ] + [f"  {word:#x}" for word in jumped]
    ok = True
    if args.verify:
        twin = make_generator(spec, seed=args.seed)
        for _ in range(args.steps):
            twin.next_word()
        stepped = [twin.next_word() for _ in range(args.emit)]
        ok = stepped == jumped
        payload["verified"] = ok
        lines.append(f"single-step replay {'matches' if ok else 'DIFFERS'}")
    return _finish(
        args,
        "jump",
        [spec.name],
        {"seed": args.seed, "steps": args.steps, "emit": args.emit, "verify": args.verify},
        [],
        payload,
        lines,
        t0,
        ok=ok,
    )


def _hardware_string() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo") as source:
            for line in source:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return ", ".join(part for part in (platform.platform(), model or platform.processor()) if part)


def cmd_bench(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    names = list(args.specs) if args.specs else list(list_specs())
    if "mt19937" not in names:
        names.insert(0, "mt19937")
    rows: list[dict[str, Any]] = []
    for name in names:
        gen = make_generator(get_spec(name), seed=12345)
        for _ in range(args.warmup):
            gen.next_real()
        start = time.perf_counter()
        for _ in range(args.doubles):
            gen.next_real()
        elapsed = time.perf_counter() - start
        rows.append({"name": name, "ns_per_double": elapsed / args.doubles * 1e9})
    base = next(row["ns_per_double"] for row in rows if row["name"] == "mt19937")
    for row in rows:
        row["throughput_vs_mt19937"] = round(base / row["ns_per_double"], 4)
        row["ns_per_double"] = round(row["ns_per_double"], 2)
    payload = {
        "hardware": _hardware_string(),
        "doubles": args.doubles,
        "warmup": args.warmup,
        "results": rows,
    }
    lines = [f"hardware: {payload['hardware']}", f"doubles per generator: {args.doubles}"]
    lines += [
        f"  {row['name']:<16} {row['ns_per_double']:>9.2f} ns/double   "
        f"x{row['throughput_vs_mt19937']:.2f} vs mt19937"
        for row in rows
    ]
    return _finish(
        args,
        "bench",
        names,
        {"doubles": args.doubles, "warmup": args.warmup},
        [],
        payload,
        lines,
        t0,
    )


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2spectra",
        description="Spectral and polynomial diagnostics for F2-linear generators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    spec_names = list(list_specs())

    def add(name: str, help_text: str, *, spec: bool = True, threads: bool = False):
        sub = commands.add_parser(name, help=help_text, description=help_text)
        if spec:
            sub.add_argument("--spec", required=True, choices=spec_names, help="generator name")
        if threads:
            sub.add_argument(
                "--threads",
                type=int,
                default=None,
                help="worker threads (default: F2SPECTRA_THREADS or single-threaded)",
            )
        sub.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")
        return sub

    sub = add("matrix", "Extract the k x k transition matrix (text: one 0/1 row per line).",
              threads=True)
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.set_defaults(func=cmd_matrix)

    sub = add("entropy", "Eigenvalue spectrum and entropy report.", threads=True)
    sub.add_argument(
        "--extended",
        action="store_true",
        help=f"allow dense eigensolves beyond k={DEFAULT_EIGEN_CAP} (hours at k~20000)",
    )
    sub.add_argument("--out", help="spectrum CSV path (columns: re,im,modulus)")
    sub.set_defaults(func=cmd_entropy)

    sub = add("minpoly", "Minimal polynomial of the output sequence (degree and N1).")
    sub.add_argument("--seed", type=_int_arg, default=12345, help="probe seed (default 12345)")
    sub.add_argument("--out", help="write the polynomial as a hex file")
    sub.set_defaults(func=cmd_minpoly)

    sub = add("charpoly", "Exact block-matrix characteristic-polynomial checks.", spec=False)
    sub.add_argument(
        "check",
        choices=["verify-appendix-a", "verify-appendix-b", "mt19937-mod2"],
        help="which identity to verify",
    )
    sub.add_argument("--trials", type=_positive_int_arg, default=20,
                     help="random configs per run (default 20)")
    sub.add_argument("--rng-seed", type=int, default=2026, help="config sampler seed (default 2026)")
    sub.set_defaults(func=cmd_charpoly)

    sub = add("zeroland", "Hamming-weight window trace: ensemble sweep or stored-seed replay.",
              threads=True)
    sub.add_argument("--p", type=int, default=None,
                     help="window length: normalized for sweeps (default 100), "
                          "actual for replays (default: state words)")
    sub.add_argument("--max-n", type=int, default=None,
                     help="normalized iterations (default: 2000 sweep, 8000 replay)")
    sub.add_argument("--seed-file", help="replay this stored state instead of sweeping")
    sub.add_argument("--band-sigmas", type=_nonnegative_float_arg, default=DEFAULT_BAND_SIGMAS,
                     help="half-width of the balance band (default 2.0)")
    sub.add_argument("--out", help="trace CSV path")
    sub.set_defaults(func=cmd_zeroland)

    sub = add("badseed", "State that reaches e_0 after d steps (a backward jump from e_0).")
    sub.add_argument("--d", type=_int_arg, required=True, help="steps before reaching e_0")
    sub.add_argument("--out", help="seed file path (default: stdout)")
    sub.set_defaults(func=cmd_badseed)

    sub = add("jump", "Jump a generator ahead by an arbitrary step count.")
    sub.add_argument("--seed", type=_int_arg, default=12345, help="initialization seed")
    sub.add_argument("--steps", type=_int_arg, required=True, help="recurrence steps to skip")
    sub.add_argument("--emit", type=_positive_int_arg, default=5,
                     help="outputs to print after the jump")
    sub.add_argument("--verify", action="store_true",
                     help="replay the jump step by step and compare")
    sub.set_defaults(func=cmd_jump)

    sub = add("bench", "Doubles-per-second benchmark (non-gating, machine-dependent).",
              spec=False)
    sub.add_argument("--specs", nargs="*", choices=spec_names, help="generators (default: all)")
    sub.add_argument("--doubles", type=_positive_int_arg, default=1_000_000,
                     help="timed doubles per generator (default 1e6)")
    sub.add_argument("--warmup", type=_int_arg, default=100_000,
                     help="untimed warmup doubles (default 1e5)")
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; never raises ``SystemExit``.

    The code is 0 on success and for ``--help`` and ``--version`` (their
    text goes to stdout), 2 for a usage error (argparse's usage and
    ``error:`` lines go to stderr), and 1 for a failed check or a runtime
    error reported as an ``error:`` line on stderr.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help, --version or a usage error
        return 0 if exc.code is None else int(exc.code)
    try:
        if "threads" in vars(args):
            args.threads = resolve_threads(args.threads)
        return args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
