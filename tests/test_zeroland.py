"""Hamming-weight window diagnostics: sweeps, replays, seed files."""

from __future__ import annotations

import io

import numpy as np
import pytest

from f2spectra import get_spec, make_generator
from f2spectra.bitlinalg import BitVector
from f2spectra.generators import GENERATOR_NAMES
from f2spectra.generators.base import grid_size
from f2spectra.generators.ensemble import probe_images
from f2spectra.gf2poly import jump_ahead
from f2spectra.zeroland import (
    ZerolandTrace,
    balanced_time,
    bundled_bad_seed,
    format_seed_text,
    parse_seed_text,
    replay_seed,
    trace_csv,
    trajectory_trace,
    unit_seed_sweep,
)

from _oracles import ensemble_weight_totals, hamming
from _toys import TOY_MELG, TOY_MT8, TOY_WELL_DEAD_TAP


def test_hamming():
    assert hamming(0) == 0
    assert hamming(1) == 1
    assert hamming(0b1011) == 3
    # naive bit loop over 0x9908B0DF counts fifteen ones
    assert hamming(0x9908B0DF) == sum((0x9908B0DF >> i) & 1 for i in range(32))
    assert hamming(0x9908B0DF) == 15
    assert hamming(1 << 63) == 1
    with pytest.raises(ValueError):
        hamming(-1)


def test_trace_validation():
    with pytest.raises(ValueError):
        ZerolandTrace(values=np.zeros(3), p=0, k_ensemble=1, w=8, normalization=1, sigma=0.1)
    with pytest.raises(ValueError):
        ZerolandTrace(values=np.zeros(3), p=1, k_ensemble=1, w=8, normalization=3, sigma=0.1)


def _naive_sweep_values(spec, p_act: int, steps: int) -> np.ndarray:
    """Direct per-lane, per-step double loop over all k unit seeds."""
    gens = []
    for j in range(spec.k):
        gen = make_generator(spec)
        gen.set_state_vector(BitVector.unit(spec.k, j))
        gens.append(gen)
    totals = np.zeros(steps, dtype=np.int64)
    for i in range(steps):
        totals[i] = sum(hamming(gen.next_word()) for gen in gens)
    means = np.empty(steps - p_act + 1)
    denom = p_act * spec.k * spec.w
    for start in range(steps - p_act + 1):
        means[start] = totals[start : start + p_act].sum() / denom
    return means


def test_sweep_matches_naive_loop_exactly():
    trace = unit_seed_sweep(TOY_MT8, p=6, max_n=40)
    naive = _naive_sweep_values(TOY_MT8, 6, 40)
    assert trace.p == 6 and trace.k_ensemble == TOY_MT8.k and trace.normalization == 1
    assert trace.values.tolist() == naive.tolist()


def test_sweep_matches_naive_loop_64_bit_normalization():
    # 64-bit lanes: one step counts double, the window is halved internally
    trace = unit_seed_sweep(TOY_MELG, p=8, max_n=60)
    naive = _naive_sweep_values(TOY_MELG, 4, 30)
    assert trace.p == 4 and trace.normalization == 2
    assert trace.values.tolist() == naive.tolist()
    assert trace.normalized_positions().tolist() == [2 * i for i in range(len(naive))]


def test_sweep_rejects_odd_arguments_for_64_bit():
    with pytest.raises(ValueError):
        unit_seed_sweep(TOY_MELG, p=7, max_n=60)
    with pytest.raises(ValueError):
        unit_seed_sweep(TOY_MELG, p=8, max_n=61)


@pytest.mark.parametrize(
    "spec",
    [*(get_spec(name) for name in GENERATOR_NAMES), TOY_MT8, TOY_MELG, TOY_WELL_DEAD_TAP],
    ids=lambda s: s.name,
)
def test_adjoint_sweep_matches_ensemble_oracle(spec):
    # 700 steps move the sweep's window back to the front of its buffer
    # once at delta = 32 and twice at delta = 64 (k = 19937); the toys
    # move it every few steps.
    nu = 2 if spec.w == 64 else 1
    steps = 700
    trace = unit_seed_sweep(spec, p=nu, max_n=nu * steps)
    expect = ensemble_weight_totals(spec, steps) / float(spec.k * spec.w)
    assert trace.values.tolist() == expect.tolist()


@pytest.mark.parametrize(
    "spec",
    [get_spec("mt19937"), get_spec("melg607"), TOY_MELG, TOY_WELL_DEAD_TAP],
    ids=lambda s: s.name,
)
def test_one_step_sweep_matches_ensemble_oracle(spec):
    # p = max_n = one step (two normalized on 64-bit words): the total is
    # the probe's T B alone, and the adjoint loop runs zero times.
    nu = 2 if spec.w == 64 else 1
    trace = unit_seed_sweep(spec, p=nu, max_n=nu)
    expect = ensemble_weight_totals(spec, 1) / float(spec.k * spec.w)
    assert trace.values.tolist() == expect.tolist()


def test_dead_tap_toy_reads_its_dead_bits():
    # The premise of its sweep test: B has nonzeros in the dead-bit
    # columns, so those columns of the sweep's U fill up and must be left
    # out of the totals.
    spec = TOY_WELL_DEAD_TAP
    _, cols, _ = probe_images(spec, 0, grid_size(spec))
    assert spec.r and np.any(cols >= spec.n * spec.w - spec.r)


def test_sweep_thread_count_is_irrelevant():
    # The sweep runs on one thread and ignores ``threads``, which the
    # benchmark's check still passes (perfbench/checks.py::_sweep).
    solo = unit_seed_sweep(get_spec("well607b"), p=32, max_n=200)
    duo = unit_seed_sweep(get_spec("well607b"), p=32, max_n=200, threads=2)
    assert solo.values.tolist() == duo.values.tolist()


def test_trajectory_trace_matches_scalar_loop():
    gen = make_generator(TOY_MT8, seed=19)
    words = [gen.next_word() for _ in range(30)]
    weights = np.array([hamming(word) for word in words], dtype=np.int64)
    expect = [
        weights[i : i + 5].sum() / (5 * TOY_MT8.w) for i in range(26)
    ]
    gen = make_generator(TOY_MT8, seed=19)
    trace = trajectory_trace(gen, p=5, max_n=30)
    assert trace.values.tolist() == pytest.approx(expect)
    assert trace.k_ensemble == 1


def test_trajectory_trace_validation():
    gen = make_generator(TOY_MELG, seed=1)
    with pytest.raises(ValueError):
        trajectory_trace(gen, p=5, max_n=61)  # odd for a 64-bit lane
    with pytest.raises(ValueError):
        trajectory_trace(gen, p=50, max_n=60)  # window longer than the run


# -- balance detection ---------------------------------------------------------


def _synthetic_trace(values, normalization=1, sigma=0.01):
    return ZerolandTrace(
        values=np.asarray(values, dtype=np.float64),
        p=3,
        k_ensemble=5,
        w=8,
        normalization=normalization,
        sigma=sigma,
    )


def test_balanced_time_first_entry():
    trace = _synthetic_trace([0.1, 0.2, 0.47, 0.5005, 0.3, 0.5])
    assert balanced_time(trace) == 3


def test_balanced_time_never():
    trace = _synthetic_trace([0.1, 0.2, 0.3])
    assert balanced_time(trace) is None


def test_balanced_time_band_width_matters():
    trace = _synthetic_trace([0.45, 0.5005])
    assert balanced_time(trace, band_sigmas=2.0) == 1
    assert balanced_time(trace, band_sigmas=6.0) == 0


def test_balanced_time_reports_normalized_index():
    trace = _synthetic_trace([0.1, 0.1, 0.5], normalization=2)
    assert balanced_time(trace) == 4


# -- seed files ------------------------------------------------------------------


def test_seed_text_roundtrip_no_lung():
    spec = get_spec("well607b")
    gen = make_generator(spec, seed=4)
    state = gen.get_raw_state()
    text = format_seed_text(state, spec)
    parsed = parse_seed_text(text, spec)
    assert parsed.words == state.words
    assert parsed.lung is None


def test_seed_text_roundtrip_with_lung_and_comments():
    spec = get_spec("melg607")
    gen = make_generator(spec, seed=4)
    state = gen.get_raw_state()
    text = "# header comment\n" + format_seed_text(state, spec) + "# trailing\n"
    parsed = parse_seed_text(text, spec)
    assert parsed.words == state.words
    assert parsed.lung == state.lung


def test_seed_text_errors():
    spec = get_spec("melg607")
    good = format_seed_text(make_generator(spec, seed=1).get_raw_state(), spec)
    with pytest.raises(ValueError):  # wrong word count
        parse_seed_text("0x0\n0x1\n", spec)
    with pytest.raises(ValueError):  # missing lung
        parse_seed_text("\n".join(good.splitlines()[:-1]) + "\n", spec)
    with pytest.raises(ValueError):  # duplicate lung
        parse_seed_text(good + "lung=0x1\n", spec)
    with pytest.raises(ValueError):  # lung on a lungless family
        parse_seed_text("0x1\nlung=0x2\n", get_spec("well607b"))
    with pytest.raises(ValueError, match=r"^line 2: not an integer: '0xzz'$"):
        parse_seed_text("0x1\n0xzz\n", spec)
    bad_lung = good.replace(good.splitlines()[-1], "lung=0xzz")
    with pytest.raises(ValueError, match=r"^line 11: not an integer: '0xzz'$"):
        parse_seed_text("# comment\n" + bad_lung, spec)
    for lung in ("-0x1", hex(spec.word_mask + 1)):  # a lung outside 0 .. 2^w - 1
        with pytest.raises(ValueError, match="must fit in 64 bits"):
            parse_seed_text(good.replace(good.splitlines()[-1], f"lung={lung}"), spec)


def test_bundled_bad_seeds_load():
    for name in ("melg19937", "well19937a"):
        state = bundled_bad_seed(name)
        spec = get_spec(name)
        assert len(state.words) == spec.n
        assert (state.lung is not None) == spec.has_lung
    with pytest.raises(KeyError):
        bundled_bad_seed("well607b")


def test_replay_of_a_constructed_bad_seed_dips(tmp_path):
    spec = get_spec("well607b")
    d = 150
    gen = make_generator(spec)
    gen.set_state_vector(BitVector.unit(spec.k, 0))
    jump_ahead(gen, -d)
    seed_file = tmp_path / "w607.seed"
    seed_file.write_text(format_seed_text(gen.get_raw_state(), spec))
    trace = replay_seed(spec, seed_file, p=32, max_n=600)
    idx = int(np.argmin(trace.values))
    assert trace.values[idx] < 0.15
    assert abs(int(trace.normalized_positions()[idx]) - d) <= 35


def test_trace_csv_shape():
    trace = unit_seed_sweep(TOY_MT8, p=4, max_n=30)
    sink = io.StringIO()
    trace_csv(trace, sink)
    lines = sink.getvalue().strip().split("\n")
    assert lines[0] == "n,gamma,sigma_band_low,sigma_band_high"
    assert len(lines) == len(trace.values) + 1
    n, gamma, low, high = lines[1].split(",")
    assert int(n) == 0 and 0.0 <= float(gamma) <= 1.0 and float(low) < float(high)
