"""Fast self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload with tiny op lists on the small generators, with
tracing off and on. Asserts that the result line has exactly the keys the
benchmark contract names, that every metric in BENCHMARK.json is emitted with its
unit, and that no op fails. Also asserts that the benchmark refuses to run
without the program's sources. Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    """The copy of run.py under ``root``, run from ``root``."""
    return subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert expected[0] == [(n, u) for n, u, _ in END_TO_END], "end_to_end differs from catalog"
    assert expected[1] == [(n, u) for n, u, _ in PER_LAYER], "per_layer differs from catalog"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ"
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == {
        n: b for n, _, b in END_TO_END}, "bounds differ from catalog"

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(root, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
            assert result["correct"] and result["failed"] == 0, (label, details["problems"])
            assert details["fail_ratio"] == 0, label
            assert result["attempted"] >= 1, label
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            assert got == expected[trace], f"{label}: metrics {got}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name}"
            print(f"ok  {label}: {result['attempted']} ops")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without src/"
        print("ok  refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
