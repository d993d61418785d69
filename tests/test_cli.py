"""End-to-end checks of the command-line surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import f2spectra
from f2spectra import __version__, cli, extract_transition_matrix, get_spec, make_generator
from f2spectra.cli import main
from f2spectra.gf2poly import jump_ahead, parse_minpoly
from f2spectra.spectral import eigenvalues, entropy
from f2spectra.zeroland import format_seed_text, parse_seed_text, replay_seed


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_manifest(out_path) -> dict:
    return json.loads((out_path.parent / (out_path.name + ".manifest.json")).read_text())


def test_version_flag(capsys):
    code, stdout, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in stdout


def test_help_flag(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    assert stdout.startswith("usage: f2spectra")


def test_unknown_spec_is_a_usage_error(capsys):
    code, _, stderr = run(capsys, "matrix", "--spec", "nosuch")
    assert code == 2
    assert "invalid choice" in stderr


@pytest.mark.parametrize(
    "argv",
    [[], ["jump", "--spec", "well607b"]],
    ids=["no-command", "missing-required"],
)
def test_usage_errors_return_2(capsys, argv):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("usage: f2spectra") and "error:" in stderr


def test_matrix_to_file_with_manifest(tmp_path, capsys):
    out = tmp_path / "b607.txt"
    code, stdout, _ = run(capsys, "matrix", "--spec", "well607b", "--out", str(out))
    assert code == 0
    assert out.read_text().count("\n") == 607
    manifest = read_manifest(out)
    assert manifest["command"] == "matrix"
    assert manifest["specs"] == ["well607b"]
    assert manifest["outputs"] == [str(out)]
    assert manifest["version"] == __version__
    assert manifest["wall_time_s"] >= 0
    assert "607x607" in stdout


def test_matrix_to_stdout(capsys):
    code, stdout, _ = run(capsys, "matrix", "--spec", "well607b")
    assert code == 0
    lines = stdout.strip("\n").split("\n")
    assert len(lines) == 607 and set(lines[0]) <= {"0", "1"}


def test_matrix_json_needs_out(capsys):
    code, _, stderr = run(capsys, "matrix", "--spec", "well607b", "--json")
    assert code == 1
    assert "needs --out" in stderr


def test_entropy_json_and_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, stdout, _ = run(
        capsys, "entropy", "--spec", "well607b", "--json", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["name"] == "well607b"
    assert payload["k"] == 607
    assert payload["h"] == pytest.approx(26.66, abs=0.05)
    csv_lines = out.read_text().strip().split("\n")
    assert csv_lines[0] == "re,im,modulus" and len(csv_lines) == 608


def test_entropy_cap_requires_extended_flag(capsys):
    code, _, stderr = run(capsys, "entropy", "--spec", "well19937a")
    assert code == 1
    assert "--extended" in stderr


def test_minpoly_file_and_report(tmp_path, capsys):
    out = tmp_path / "mp.hex"
    code, stdout, _ = run(
        capsys, "minpoly", "--spec", "well607b", "--json", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["degree"] == 607 and payload["n1"] == 313
    header, poly = parse_minpoly(out.read_text())
    assert header["generator"] == "well607b"
    assert poly.degree == 607
    assert read_manifest(out)["command"] == "minpoly"


@pytest.mark.parametrize(
    "check", ["verify-appendix-a", "verify-appendix-b", "mt19937-mod2"]
)
def test_charpoly_checks_pass(check, capsys):
    code, stdout, _ = run(capsys, "charpoly", check, "--trials", "4")
    assert code == 0
    assert "FAIL" not in stdout
    assert "all checks passed" in stdout


def test_charpoly_json_payload(capsys):
    code, stdout, _ = run(
        capsys, "charpoly", "verify-appendix-b", "--trials", "3", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["all_pass"] is True
    assert len(payload["results"]) == 3
    assert payload["manifest"]["parameters"]["check"] == "verify-appendix-b"


def test_zeroland_sweep_reports_balance(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "zeroland", "--spec", "well607b", "--max-n", "400", "--out", str(out), "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["mode"] == "sweep"
    assert payload["balanced_time"] == 44
    assert out.read_text().startswith("n,gamma,")
    assert read_manifest(out)["parameters"]["max_n"] == 400


def test_badseed_roundtrips_through_zeroland_replay(tmp_path, capsys):
    seed_file = tmp_path / "bad.seed"
    code, _, _ = run(
        capsys, "badseed", "--spec", "well607b", "--d", "150", "--out", str(seed_file)
    )
    assert code == 0
    parse_seed_text(seed_file.read_text(), get_spec("well607b"))  # well-formed
    code, stdout, _ = run(
        capsys,
        "zeroland", "--spec", "well607b", "--seed-file", str(seed_file),
        "--p", "32", "--max-n", "600", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["mode"] == "replay"
    assert payload["min_gamma"] < 0.15
    assert abs(payload["min_at"] - 150) <= 35


def test_badseed_stdout_is_a_seed_file(capsys):
    code, stdout, _ = run(capsys, "badseed", "--spec", "melg607", "--d", "9")
    assert code == 0
    state = parse_seed_text(stdout, get_spec("melg607"))
    assert state.lung is not None


def test_badseed_d_beyond_the_period_wraps(capsys):
    # well607b has period 2^607 - 1, so 2^607 + 5 steps back is 6 steps back
    code, far, _ = run(capsys, "badseed", "--spec", "well607b", "--d", str(2**607 + 5))
    assert code == 0
    code, near, _ = run(capsys, "badseed", "--spec", "well607b", "--d", "6")
    assert code == 0
    assert far == near


def test_badseed_negative_d_is_a_usage_error(capsys):
    code, stdout, stderr = run(capsys, "badseed", "--spec", "well607b", "--d", "-1")
    assert code == 2
    assert stdout == ""
    assert "error: argument --d" in stderr


def test_zeroland_missing_seed_file_fails(capsys):
    code, _, stderr = run(
        capsys, "zeroland", "--spec", "well607b", "--seed-file", "/nosuch/file"
    )
    assert code == 1 and stderr.startswith("error:")
    assert "No such file or directory" in stderr and "/nosuch/file" in stderr


@pytest.mark.parametrize(
    "argv, values",
    [
        (["--spec", "well607b", "--max-n", "50"], ["--p 100", "--max-n 50"]),
        (["--spec", "melg607", "--p", "7", "--max-n", "60"],
         ["multiples of 2", "--p 7", "--max-n 60"]),
        (["--spec", "well607b", "--seed-file", "SEED", "--max-n", "5"], ["--max-n 5", "--p 19"]),
    ],
    ids=["sweep-default-p-above-max-n", "sweep-odd-for-64-bit", "replay-too-short"],
)
def test_zeroland_window_errors_name_both_flags(capsys, tmp_path, argv, values):
    seed_file = tmp_path / "state.seed"
    seed_file.write_text(format_seed_text(make_generator("well607b", seed=1).get_raw_state(),
                                          get_spec("well607b")))
    code, stdout, stderr = run(
        capsys, "zeroland", *(str(seed_file) if arg == "SEED" else arg for arg in argv)
    )
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:")
    for text in values:
        assert text in stderr, stderr


def test_unwritable_out_names_the_path(capsys):
    code, stdout, stderr = run(
        capsys, "minpoly", "--spec", "well607b", "--out", "/nosuch/dir/x.hex"
    )
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:")
    assert "No such file or directory" in stderr and "/nosuch/dir/x.hex" in stderr


def test_jump_verify(capsys):
    code, stdout, _ = run(
        capsys, "jump", "--spec", "well1024a", "--steps", "12345", "--verify", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verified"] is True
    assert len(payload["outputs"]) == 5


def test_jump_verify_refuses_huge_step_counts(capsys):
    code, _, stderr = run(
        capsys, "jump", "--spec", "well607b", "--steps", "2**31", "--verify"
    )
    assert code == 2  # argparse rejects the malformed integer
    code, _, stderr = run(
        capsys, "jump", "--spec", "well607b", "--steps", "5000000", "--verify"
    )
    assert code == 1
    assert "--verify" in stderr


def test_jump_verify_limit_is_checked_before_jumping(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("jump_ahead ran before the --verify limit was checked")

    monkeypatch.setattr(cli, "jump_ahead", fail)
    code, stdout, stderr = run(
        capsys, "jump", "--spec", "well607b", "--steps", "5000000", "--verify"
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and "--verify" in stderr


def test_jump_accepts_huge_steps_without_verify(capsys):
    code, stdout, _ = run(
        capsys, "jump", "--spec", "well607b", "--steps", "0x10_0000_0000_0000", "--json"
    )
    assert code == 0
    assert json.loads(stdout)["steps"] == 0x10_0000_0000_0000


def test_bench_contract(capsys):
    code, stdout, _ = run(
        capsys,
        "bench", "--specs", "well607b", "--doubles", "2000", "--warmup", "200", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    names = [row["name"] for row in payload["results"]]
    assert names[0] == "mt19937" and "well607b" in names
    assert all(row["ns_per_double"] > 0 for row in payload["results"])
    mt_row = next(row for row in payload["results"] if row["name"] == "mt19937")
    assert mt_row["throughput_vs_mt19937"] == pytest.approx(1.0)
    assert payload["hardware"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["charpoly", "verify-appendix-a", "--trials", "0"], "--trials"),
        (["charpoly", "verify-appendix-b", "--trials", "-1"], "--trials"),
        (["jump", "--spec", "well607b", "--steps", "3", "--emit", "-1"], "--emit"),
        (["jump", "--spec", "well607b", "--steps", "3", "--emit", "0"], "--emit"),
        (["bench", "--specs", "well607b", "--doubles", "0"], "--doubles"),
        (["bench", "--specs", "well607b", "--warmup", "-1"], "--warmup"),
        (["zeroland", "--spec", "well607b", "--threads", "0"], "--threads"),
    ],
    ids=["trials-0", "trials-negative", "emit-negative", "emit-0", "doubles-0", "warmup-negative",
         "threads-0"],
)
def test_out_of_range_counts_name_the_flag(capsys, argv, flag):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert f"error: argument {flag}: must be at least" in stderr


def test_counts_accept_their_minimum(capsys):
    code, stdout, _ = run(capsys, "charpoly", "verify-appendix-b", "--trials", "1", "--json")
    assert code == 0 and len(json.loads(stdout)["results"]) == 1
    code, stdout, _ = run(capsys, "jump", "--spec", "well607b", "--steps", "3", "--emit", "1",
                          "--json")
    assert code == 0 and len(json.loads(stdout)["outputs"]) == 1
    code, stdout, _ = run(capsys, "bench", "--specs", "well607b", "--doubles", "1",
                          "--warmup", "0", "--json")
    assert code == 0 and json.loads(stdout)["warmup"] == 0


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "wide"])
def test_bad_band_sigmas_name_the_flag(capsys, value):
    code, stdout, stderr = run(capsys, "zeroland", "--spec", "well607b", "--max-n", "400",
                               "--band-sigmas", value)
    assert code == 2
    assert stdout == ""
    assert "error: argument --band-sigmas:" in stderr


@pytest.mark.parametrize(
    ("extra", "expected"), [(["--band-sigmas", "0"], 0.0), ([], 2.0)], ids=["zero", "default"]
)
def test_band_sigmas_accepts_zero_and_the_default(capsys, extra, expected):
    code, stdout, _ = run(capsys, "zeroland", "--spec", "well607b", "--max-n", "400",
                          "--json", *extra)
    assert code == 0
    assert json.loads(stdout)["band_sigmas"] == expected


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("F2SPECTRA_THREADS", "2")
    code, stdout, _ = run(
        capsys, "zeroland", "--spec", "well607b", "--max-n", "400", "--json"
    )
    assert code == 0
    assert json.loads(stdout)["balanced_time"] == 44  # deterministic across threads


def test_threads_env_garbage_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("F2SPECTRA_THREADS", "lots")
    code, _, stderr = run(capsys, "zeroland", "--spec", "well607b", "--max-n", "400")
    assert code == 1
    assert "F2SPECTRA_THREADS" in stderr


def test_threads_env_zero_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("F2SPECTRA_THREADS", "0")
    code, _, stderr = run(capsys, "zeroland", "--spec", "well607b", "--max-n", "400")
    assert code == 1
    assert stderr.startswith("error:")


@pytest.mark.parametrize("exc", [OverflowError("operand too wide"), RuntimeError("degenerate")])
def test_library_arithmetic_and_runtime_errors_are_error_lines(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "minimal_polynomial", fail)
    code, _, stderr = run(capsys, "minpoly", "--spec", "well607b")
    assert code == 1
    assert stderr == f"error: {exc.args[0]}\n"


def test_integers_beyond_4300_digits_work_in_decimal_and_hex(capsys):
    # Python refuses int <-> decimal text beyond 4300 digits by default;
    # --steps and --d take integers of any size
    cap = sys.get_int_max_str_digits()
    payloads = []
    for text in ("1" + "0" * 4400, hex(10**4400)):
        code, stdout, stderr = run(capsys, "jump", "--spec", "well607b", "--steps", text,
                                   "--emit", "2", "--json")
        assert code == 0, stderr
        payloads.append(json.loads(stdout))  # a default json.loads reads it
        del payloads[-1]["manifest"]["wall_time_s"]
    assert payloads[0] == payloads[1]
    assert payloads[0]["steps"] == hex(10**4400)
    assert sys.get_int_max_str_digits() == cap  # restored after the run


def test_integers_beyond_4300_digits_read_back_with_the_default_cap(tmp_path, capsys, monkeypatch):
    big = 10**4400 + 7
    decimal = "1" + "0" * 4399 + "7"  # str(big) itself exceeds the default cap
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, "badseed", "--spec", "well607b", "--d", decimal,
                               "--out", "s.seed", "--json")
    assert code == 0, stderr
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    payload = json.loads(stdout)
    assert payload["d"] == read_manifest(tmp_path / "s.seed")["parameters"]["d"] == hex(big)
    assert int(payload["d"], 16) == big  # the flags accept the hex form back
    code, stdout, _ = run(capsys, "jump", "--spec", "well607b", "--steps", "10", "--json")
    payload = json.loads(stdout)
    assert payload["steps"] == 10 and payload["seed"] == 12345  # shorter integers stay numbers


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["jump", "--spec", "mt19937", "--steps", "1", "--seed", "4294967296", "--json"],
         "[0, 2^32)"),
        (["minpoly", "--spec", "melg607", "--seed", "0x10000000000000000", "--out", "mp.hex"],
         "[0, 2^64)"),
        (["minpoly", "--spec", "well607b", "--seed", "1" + "0" * 4400, "--out", "mp.hex"],
         "[0, 2^32)"),
    ],
    ids=["jump-32-bit", "minpoly-64-bit", "minpoly-4401-digits"],
)
def test_seeds_outside_the_word_are_errors(capsys, tmp_path, monkeypatch, argv, bound):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:") and bound in stderr, stderr
    assert list(tmp_path.iterdir()) == []  # no output, no manifest


# -- the manifest contract, one run of each command ----------------------------


MANIFEST_KEYS = {"command", "specs", "parameters", "outputs", "wall_time_s", "version"}

CONTRACT_RUNS = {
    "matrix": (["--spec", "well607b", "--out"], ["well607b"], {"threads": 1}),
    "entropy": (["--spec", "well607b", "--out"], ["well607b"], {"threads": 1, "extended": False}),
    "minpoly": (["--spec", "well607b", "--out"], ["well607b"], {"seed": 12345}),
    "charpoly": (["verify-appendix-b", "--trials", "1"], [],
                 {"check": "verify-appendix-b", "trials": 1, "rng_seed": 2026}),
    "zeroland": (["--spec", "well607b", "--max-n", "400", "--out"], ["well607b"],
                 {"threads": 1, "p": 100, "max_n": 400, "seed_file": None, "band_sigmas": 2.0}),
    "badseed": (["--spec", "well607b", "--d", "150", "--out"], ["well607b"], {"d": 150}),
    "jump": (["--spec", "well607b", "--steps", "3"], ["well607b"],
             {"seed": 12345, "steps": 3, "emit": 5, "verify": False}),
    "bench": (["--specs", "well607b", "--doubles", "10", "--warmup", "0"], ["mt19937", "well607b"],
              {"specs": ["well607b"], "doubles": 10, "warmup": 0}),
}


@pytest.mark.parametrize("command", list(CONTRACT_RUNS))
def test_manifest_contract(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("F2SPECTRA_THREADS", raising=False)
    flags, specs, parameters = CONTRACT_RUNS[command]
    argv = [command, *flags]
    if argv[-1] == "--out":
        out = tmp_path / "artifact"
        argv.append(str(out))
        parameters = {**parameters, "out": str(out)}
    code, stdout, stderr = run(capsys, *argv, "--json")
    assert code == 0, stderr
    manifest = json.loads(stdout)["manifest"]
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command and manifest["specs"] == specs
    assert manifest["parameters"] == parameters
    assert manifest["version"] == __version__
    if "--out" in argv:
        assert manifest["outputs"] == [str(out)]
        on_disk = read_manifest(out)
        assert on_disk.pop("wall_time_s") >= 0
        assert on_disk == {key: manifest[key] for key in MANIFEST_KEYS - {"wall_time_s"}}
    else:
        assert manifest["outputs"] == []


def test_payload_values_the_benchmark_reads(tmp_path, capsys):
    spec = get_spec("well607b")

    def payload(*argv):
        code, stdout, stderr = run(capsys, *argv, "--json")
        assert code == 0, stderr
        return json.loads(stdout)

    sweep = payload("zeroland", "--spec", "well607b", "--max-n", "400")
    assert (sweep["p"], sweep["max_n"]) == (100, 400)
    seed_file = tmp_path / "bad.seed"
    assert run(capsys, "badseed", "--spec", "well607b", "--d", "150", "--out", str(seed_file))[0] == 0
    replay = payload("zeroland", "--spec", "well607b", "--seed-file", str(seed_file))
    assert (replay["p"], replay["max_n"]) == (19, 8000)  # window of one state, 19 words
    assert replay["min_gamma"] == float(replay_seed(spec, seed_file, p=19, max_n=8000).values.min())

    report = entropy(eigenvalues(extract_transition_matrix(spec)), w=spec.w)
    assert payload("entropy", "--spec", "well607b")["h"] == pytest.approx(report.h, rel=1e-12)

    gen = make_generator(spec, seed=12345)
    jump_ahead(gen, 1000)
    expected = [f"{gen.next_word():#x}" for _ in range(5)]
    assert payload("jump", "--spec", "well607b", "--steps", "1000")["outputs"] == expected

    checks = payload("charpoly", "verify-appendix-a", "--trials", "2")
    assert checks["all_pass"] is True
    assert [row["pass"] for row in checks["results"]] == [True] * 5  # 2 per trial + 1


def test_module_entry_point_exit_codes():
    src = str(Path(f2spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "f2spectra.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    usage = cli_run("jump", "--spec", "well607b")
    assert usage.returncode == 2
    assert usage.stdout == "" and "error: the following arguments are required" in usage.stderr
    failure = cli_run("zeroland", "--spec", "well607b", "--seed-file", "/nosuch/file")
    assert failure.returncode == 1
    assert failure.stdout == "" and failure.stderr.startswith("error:")
    for proc in (usage, failure):
        assert "Traceback" not in proc.stderr


#: Runs each command in a fresh interpreter and prints, after each, whether
#: SciPy has been imported.
_IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from f2spectra import cli
seen = [["import", 0, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(argv), code, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_no_command_imports_scipy(tmp_path):
    seed = str(tmp_path / "bad.seed")
    commands = [
        ["jump", "--spec", "well607b", "--steps", "1000"],
        ["matrix", "--spec", "well607b"],
        ["minpoly", "--spec", "well607b"],
        ["zeroland", "--spec", "well607b", "--max-n", "400"],
        ["badseed", "--spec", "well607b", "--d", "150", "--out", seed],
        ["zeroland", "--spec", "well607b", "--seed-file", seed, "--max-n", "50"],
        ["bench", "--specs", "well607b", "--doubles", "1000", "--warmup", "0"],
        ["charpoly", "verify-appendix-a", "--trials", "2"],
        ["entropy", "--spec", "well607b"],
    ]
    src = str(Path(f2spectra.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [code for _, code, _ in seen] == [0] * len(seen), seen
    assert [name for name, _, loaded in seen if loaded] == []


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def test_matrix_at_full_k_allocates_under_16_mb():
    # the nonzeros of B take about 320 KB; packed rows alone took 50 MB
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = main(["matrix", "--spec", "mt19937"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
