"""Command-line surface: matrix, spectrum, and polynomial artifacts.

Each ``cmd_*`` function does only its own work and returns a ``Result``.
``main`` does every step the commands share: it resolves ``--threads``
and ``--spec``, times the command, builds the run manifest (command,
generator names, parameters, output paths, wall time, tool version),
writes it to ``<path>.manifest.json`` beside the first output file, and
prints the text lines or, under ``--json``, the payload with the
manifest inline.  ``parameters`` holds every parsed flag with its
default resolved, except ``--spec`` (named in ``specs``) and ``--json``;
a command whose defaults depend on its mode writes the resolved values
back.  An integer of more than 4300 decimal digits, which a default
``json.loads`` refuses, is written as a "0x..." string in the manifest
and the payload.  Except for ``bench``, every command is deterministic
given its flags.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

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

#: Integers from here up have more decimal digits than a default ``int()``
#: converts (``sys.int_info.default_max_str_digits``), so JSON holds them in hex.
LONG_INT = 10**4300

#: Namespace entries that are not run parameters: the subcommand and its
#: handler, the output format, and ``--spec`` (the manifest's ``specs``).
_NOT_PARAMETERS = frozenset({"command", "func", "json", "spec"})


@dataclass(frozen=True)
class Result:
    """What a command hands back to ``main``.

    ``specs`` names the generators used by a command without ``--spec``.
    """

    payload: dict[str, Any]
    lines: Sequence[str]
    outputs: Sequence[str] = ()
    ok: bool = True
    specs: Sequence[str] = ()


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


def cmd_matrix(args: argparse.Namespace) -> Result:
    spec = args.spec
    if args.json and not args.out:
        raise ValueError("matrix --json needs --out (the matrix itself goes to the file)")
    mat = extract_transition_matrix(spec, threads=args.threads)
    if args.out:
        with open(args.out, "w") as sink:
            write_matrix(mat, sink)
        lines = [f"{spec.name}: wrote {mat.rows}x{mat.cols} transition matrix to {args.out}"]
    else:
        write_matrix(mat, sys.stdout)
        lines = []
    return Result({"name": spec.name, "k": mat.rows}, lines, [args.out] if args.out else [])


def cmd_entropy(args: argparse.Namespace) -> Result:
    spec = args.spec
    cap = max(DEFAULT_EIGEN_CAP, spec.k) if args.extended else DEFAULT_EIGEN_CAP
    if spec.k > cap:
        raise ValueError(
            f"{spec.name} has k={spec.k} > {cap}; pass --extended for long dense eigensolves"
        )
    mat = extract_transition_matrix(spec, threads=args.threads)
    spectrum = eigenvalues(mat, source=spec.name, cap=cap)
    report_json = entropy(spectrum, w=spec.w).to_json()
    lines = [report_json]
    if args.out:
        with open(args.out, "w") as sink:
            spectrum_csv(spectrum, sink)
        lines.append(f"wrote spectrum CSV to {args.out}")
    return Result(json.loads(report_json), lines, [args.out] if args.out else [])


def cmd_minpoly(args: argparse.Namespace) -> Result:
    spec = args.spec
    poly = minimal_polynomial(spec, seed=args.seed)
    payload = {"name": spec.name, "degree": poly.degree, "n1": poly.weight}
    lines = [f"{spec.name}: degree={poly.degree} N1={poly.weight}"]
    if args.out:
        Path(args.out).write_text(format_minpoly(spec.name, args.seed, poly))
        lines.append(f"wrote minimal polynomial to {args.out}")
    return Result(payload, lines, [args.out] if args.out else [])


Checks = list[tuple[str, bool]]


def _appendix_a_checks(trials: int, rng: random.Random) -> Checks:
    """Random narrow-word, r=0 configs: closed form against the exact charpoly."""
    checks: Checks = []
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


def _appendix_b_checks(trials: int, rng: random.Random) -> Checks:
    """Random r>=1 configs small enough for the exact determinant oracle."""
    checks: Checks = []
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


def _mt19937_mod2_checks(trials: int, rng: random.Random) -> Checks:
    """The full-size closed form mod 2 against Berlekamp-Massey; samples nothing."""
    phi2 = mt_charpoly(MT_BLOCK).to_gf2()
    poly = minimal_polynomial(get_spec("mt19937"))
    return [
        (f"closed form mod 2 has degree {phi2.degree}", phi2.degree == 19937),
        ("closed form mod 2 equals the mt19937 minimal polynomial", phi2 == poly),
    ]


#: ``charpoly`` check name -> (checks, generators it uses).
CHARPOLY_CHECKS: dict[str, tuple[Callable[[int, random.Random], Checks], tuple[str, ...]]] = {
    "verify-appendix-a": (_appendix_a_checks, ()),
    "verify-appendix-b": (_appendix_b_checks, ()),
    "mt19937-mod2": (_mt19937_mod2_checks, ("mt19937",)),
}


def cmd_charpoly(args: argparse.Namespace) -> Result:
    run_checks, specs = CHARPOLY_CHECKS[args.check]
    checks = run_checks(args.trials, random.Random(args.rng_seed))
    ok = all(passed for _, passed in checks)
    lines = [f"{'PASS' if passed else 'FAIL'}  {name}" for name, passed in checks]
    lines.append(f"{args.check}: {'all checks passed' if ok else 'CHECKS FAILED'}")
    payload = {
        "check": args.check,
        "results": [{"name": name, "pass": passed} for name, passed in checks],
        "all_pass": ok,
    }
    return Result(payload, lines, ok=ok, specs=specs)


def cmd_zeroland(args: argparse.Namespace) -> Result:
    spec = args.spec
    if args.seed_file:
        mode, p_default, max_n_default = "replay", -(-spec.k // spec.w), 8000
    else:
        mode, p_default, max_n_default = "sweep", 100, 2000
    args.p = p = p_default if args.p is None else args.p
    args.max_n = max_n = max_n_default if args.max_n is None else args.max_n
    payload: dict[str, Any] = {"name": spec.name, "mode": mode, "p": p, "max_n": max_n}
    if args.seed_file:
        trace = replay_seed(spec, args.seed_file, p=p, max_n=max_n)
        idx = int(np.argmin(trace.values))
        min_gamma = float(trace.values[idx])
        min_at = int(trace.normalized_positions()[idx])
        payload.update(min_gamma=min_gamma, min_at=min_at)
        lines = [
            f"{spec.name}: replay of {args.seed_file} dips to gamma={min_gamma:.4f} "
            f"at normalized n={min_at} (window p={p})"
        ]
    else:
        trace = unit_seed_sweep(spec, p=p, max_n=max_n, threads=args.threads)
        settled = balanced_time(trace, band_sigmas=args.band_sigmas)
        payload.update(band_sigmas=args.band_sigmas, balanced_time=settled)
        lines = [
            f"{spec.name}: balanced_time={settled} "
            f"(unit-seed ensemble, p={p}, max_n={max_n}, +/-{args.band_sigmas} sigma)"
        ]
    if args.out:
        with open(args.out, "w") as sink:
            trace_csv(trace, sink, band_sigmas=args.band_sigmas)
        lines.append(f"wrote trace CSV to {args.out}")
    return Result(payload, lines, [args.out] if args.out else [])


def cmd_badseed(args: argparse.Namespace) -> Result:
    spec = args.spec
    gen = make_generator(spec)
    gen.set_state_vector(BitVector.unit(spec.k, 0))
    jump_ahead(gen, -args.d)
    text = format_seed_text(gen.get_raw_state(), spec)
    if args.out:
        Path(args.out).write_text(text)
        lines = [
            f"{spec.name}: wrote the state sitting {args.d} steps before the "
            f"single-bit corner to {args.out}"
        ]
    else:
        lines = [text.rstrip("\n")]
    payload = {"name": spec.name, "d": args.d, "words": len(gen.get_raw_state().words)}
    return Result(payload, lines, [args.out] if args.out else [])


def cmd_jump(args: argparse.Namespace) -> Result:
    if args.verify and args.steps > 2_000_000:
        raise ValueError("--verify steps one at a time; keep --steps <= 2000000 with it")
    spec = args.spec
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
    return Result(payload, lines, ok=ok)


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


def cmd_bench(args: argparse.Namespace) -> Result:
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
    return Result(payload, lines, specs=names)


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
                type=_positive_int_arg,
                default=None,
                help="worker threads for the one-step probe of the state bits "
                     "(default: F2SPECTRA_THREADS or single-threaded); the rest of "
                     "the command runs on one thread",
            )
        sub.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")
        return sub

    sub = add("matrix", "Extract the k x k transition matrix (text: one 0/1 row per line).",
              threads=True)
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.set_defaults(func=cmd_matrix)

    sub = add("entropy", "Eigenvalue spectrum and entropy report.", threads=True)
    sub.epilog = ("The last digits of h and of the CSV depend on OpenBLAS's thread count; "
                  "OPENBLAS_NUM_THREADS=1 reproduces them.")
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
    sub.add_argument("check", choices=list(CHARPOLY_CHECKS), help="which identity to verify")
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


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's 4300-digit cap on int <-> decimal text for one run.

    ``--steps`` and ``--d`` are exact integers of any size: a step count
    at the scale of the period 2^19937 - 1 has 6002 decimal digits.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _json_readable(value: Any) -> Any:
    """``value`` with every integer too long for a default ``json.loads``
    written as a "0x..." string, which the integer flags accept back."""
    if isinstance(value, dict):
        return {key: _json_readable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_readable(item) for item in value]
    if isinstance(value, int) and abs(value) >= LONG_INT:
        return hex(value)
    return value


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; never raises ``SystemExit``.

    The code is 0 on success and for ``--help`` and ``--version`` (their
    text goes to stdout), 2 for a usage error (argparse's usage and
    ``error:`` lines go to stderr), and 1 for a failed check or a runtime
    error reported as an ``error:`` line on stderr.
    """
    with _unlimited_int_digits():
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits after --help, --version or a usage error
            return 0 if exc.code is None else int(exc.code)
        try:
            has_spec = "spec" in vars(args)
            if "threads" in vars(args):
                args.threads = resolve_threads(args.threads)
            if has_spec:
                args.spec = get_spec(args.spec)
            started = time.perf_counter()
            result = args.func(args)
            manifest = _json_readable({
                "command": args.command,
                "specs": [args.spec.name] if has_spec else list(result.specs),
                "parameters": {
                    key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS
                },
                "outputs": list(result.outputs),
                "wall_time_s": round(time.perf_counter() - started, 3),
                "version": __version__,
            })
            if result.outputs:
                manifest_path = Path(result.outputs[0] + ".manifest.json")
                manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
            if args.json:
                body = {**_json_readable(result.payload), "manifest": manifest}
                print(json.dumps(body, indent=2))
            else:
                for line in result.lines:
                    print(line)
            return 0 if result.ok else 1
        except (ValueError, KeyError, OSError, ArithmeticError, RuntimeError) as exc:
            # a KeyError's str() quotes its message; an OSError's adds errno text and the path
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
