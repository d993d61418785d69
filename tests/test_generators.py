"""Generator streams, seeding, state codecs, and F2-linearity."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spectra import (
    GeneratorState,
    get_spec,
    list_specs,
    make_generator,
)
from f2spectra.bitlinalg import BitVector
from f2spectra.generators.base import (
    canonical_grid,
    dead_bits,
    grid_bits,
    grid_canonical,
    grid_size,
    set_grid_bits,
)
from f2spectra.generators.ensemble import Ensemble

# small widths keep the exhaustive checks fast
from _toys import TOY_MELG, TOY_MT8, TOY_WELL_DEAD_TAP

ALL_NAMES = (
    "mt19937",
    "mt19937-64id1",
    "mt19937-64id3",
    "well607b",
    "well1024a",
    "well19937a",
    "melg607",
    "melg19937",
)

# Frozen from g++ 11 <random>: std::mt19937 / std::mt19937_64 output
# streams (the two engines those templates pin down exactly).
CXX_GOLDENS = {
    "mt19937": {
        5489: [3499211612, 581869302, 3890346734, 3586334585, 545404204, 4161255391],
        12345: [3992670690, 3823185381, 1358822685, 561383553, 789925284, 170765737],
    },
    "mt19937-64id1": {
        5489: [
            14514284786278117030,
            4620546740167642908,
            13109570281517897720,
            17462938647148434322,
            355488278567739596,
            7469126240319926998,
        ],
        12345: [
            6597103971274460346,
            7386862472818278521,
            12716877617435052285,
            10325298820568433954,
            10596756003076376996,
            3831213995552687045,
        ],
    },
}
CXX_TEN_THOUSANDTH = {"mt19937": 4123659995, "mt19937-64id1": 9981545732273789042}

# Regression goldens for the remaining generators (seed 12345: first five
# outputs and the 1000th), frozen from this implementation after
# cross-validation against independently written scalar prototypes.
REGRESSION_GOLDENS = {
    "mt19937-64id3": (
        [
            11753116915448642165,
            14755365619945470868,
            10664325577292357588,
            13340683259779987892,
            6575633693772903934,
        ],
        9050298532178431377,
    ),
    "well607b": (
        [4265507183, 4091367495, 1038622966, 3875224986, 936088371],
        3538378765,
    ),
    "well1024a": (
        [2709300658, 3741704148, 2814354971, 3375649022, 1411699561],
        2816913011,
    ),
    "well19937a": (
        [4160862179, 4014811297, 2779920199, 3561420650, 2426425350],
        164478329,
    ),
    "melg607": (
        [
            2687736020980363064,
            6485507629256965651,
            3168363646284223721,
            2444287606925123667,
            13460440232535822005,
        ],
        7571908615104850123,
    ),
    "melg19937": (
        [
            8785262434144921373,
            5139200793826376221,
            14947367386911451331,
            5224510268098771397,
            10230062115488027175,
        ],
        17221772576749893555,
    ),
}

# Small widths keep the exhaustive/property checks fast.


def test_bundled_catalog():
    assert list_specs() == ALL_NAMES
    for name in ALL_NAMES:
        spec = get_spec(name)
        assert spec.name == name
        assert spec.w in (32, 64)
        assert 0 <= spec.r < spec.w
        assert spec.k == spec.n * spec.w - spec.r + (spec.w if spec.has_lung else 0)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        get_spec("nosuch")


@pytest.mark.parametrize("name", sorted(CXX_GOLDENS))
def test_cxx_reference_streams(name):
    for seed, words in CXX_GOLDENS[name].items():
        gen = make_generator(name, seed=seed)
        assert [gen.next_word() for _ in range(len(words))] == words
    gen = make_generator(name, seed=5489)
    for _ in range(9999):
        gen.next_word()
    assert gen.next_word() == CXX_TEN_THOUSANDTH[name]


@pytest.mark.parametrize("name", sorted(REGRESSION_GOLDENS))
def test_regression_streams(name):
    head, thousandth = REGRESSION_GOLDENS[name]
    gen = make_generator(name, seed=12345)
    assert [gen.next_word() for _ in range(5)] == head
    gen = make_generator(name, seed=12345)
    for _ in range(999):
        gen.next_word()
    assert gen.next_word() == thousandth


@pytest.mark.parametrize("name", ALL_NAMES)
def test_seeding_is_deterministic_and_sensitive(name):
    a = make_generator(name, seed=42)
    b = make_generator(name, seed=42)
    c = make_generator(name, seed=43)
    stream_a = [a.next_word() for _ in range(20)]
    stream_b = [b.next_word() for _ in range(20)]
    stream_c = [c.next_word() for _ in range(20)]
    assert stream_a == stream_b
    assert stream_a != stream_c


@pytest.mark.parametrize("spec", [TOY_MT8, get_spec("mt19937"), get_spec("melg607")],
                         ids=lambda spec: f"w{spec.w}")
def test_seeds_are_w_bit_words(spec):
    top = make_generator(spec, seed=(1 << spec.w) - 1)
    assert top.get_raw_state().words[0] == (1 << spec.w) - 1
    for seed in (1 << spec.w, (1 << spec.w) + 5, -1):
        with pytest.raises(ValueError, match=rf"^{spec.name} seeds are {spec.w}-bit words "
                                             rf"in \[0, 2\^{spec.w}\), got"):
            make_generator(spec, seed=seed)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_outputs_fit_word_width(name):
    spec = get_spec(name)
    gen = make_generator(spec, seed=7)
    for _ in range(200):
        assert 0 <= gen.next_word() <= spec.word_mask


@pytest.mark.parametrize("name", ALL_NAMES)
def test_next_real_unit_interval(name):
    gen = make_generator(name, seed=11)
    values = [gen.next_real() for _ in range(500)]
    assert all(0.0 <= v < 1.0 for v in values)
    twin = make_generator(name, seed=11)
    assert values == [twin.next_real() for _ in range(500)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_raw_state_roundtrip(name):
    gen = make_generator(name, seed=99)
    for _ in range(37):
        gen.next_word()
    snapshot = gen.get_raw_state()
    ahead = [gen.next_word() for _ in range(25)]
    twin = make_generator(name)
    twin.set_raw_state(snapshot)
    assert [twin.next_word() for _ in range(25)] == ahead


@pytest.mark.parametrize("name", ALL_NAMES)
def test_state_vector_roundtrip(name):
    gen = make_generator(name, seed=5)
    for _ in range(13):
        gen.next_word()
    vec = gen.state_vector()
    assert vec.length == get_spec(name).k
    ahead = [gen.next_word() for _ in range(25)]
    twin = make_generator(name)
    twin.set_state_vector(vec)
    assert [twin.next_word() for _ in range(25)] == ahead


def _per_bit_state_vector(gen) -> BitVector:
    """Oracle for the vectorised codec: walk the canonical layout bit by bit
    (newest word first, MSB first, dead low bits of the oldest word skipped,
    lung last)."""
    spec = gen.spec
    words = [gen.st[gen.rec.index(gen.cursor, j)] for j in range(spec.n - 1, -1, -1)]
    lows = [0] * (spec.n - 1) + [spec.r]
    if spec.has_lung:
        words.append(gen.lung)
        lows.append(0)
    return BitVector.from_bits(
        (word >> b) & 1 for word, low in zip(words, lows) for b in range(spec.w - 1, low - 1, -1)
    )


ALL_SPECS_AND_TOYS = [
    *(get_spec(name) for name in ALL_NAMES), TOY_MT8, TOY_MELG, TOY_WELL_DEAD_TAP
]


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_codec_matches_per_bit_reference(spec):
    gen = make_generator(spec, seed=21)
    for _ in range(17):  # off-zero cursor
        gen.step()
    assert gen.state_vector() == _per_bit_state_vector(gen)
    vec = BitVector.random(spec.k, random.Random(spec.k))
    gen.set_state_vector(vec)
    assert _per_bit_state_vector(gen) == vec


@pytest.mark.parametrize("spec", [TOY_MT8, TOY_MELG], ids=lambda s: s.name)
def test_custom_spec_instances_run(spec):
    gen = make_generator(spec, seed=1)
    words = [gen.next_word() for _ in range(50)]
    assert all(0 <= word <= spec.word_mask for word in words)
    twin = make_generator(spec, seed=1)
    assert words == [twin.next_word() for _ in range(50)]


def test_dead_bits_do_not_reach_the_state_vector():
    # The oldest ring word keeps only its top w-r bits; flipping the dead
    # low bits of a raw snapshot must not change the trajectory.
    spec = get_spec("well607b")
    gen = make_generator(spec, seed=3)
    state = gen.get_raw_state()
    oldest = (state.cursor + spec.n - 1) % spec.n
    words = list(state.words)
    words[oldest] ^= (1 << spec.r) - 1
    twin = make_generator(spec)
    twin.set_raw_state(GeneratorState(tuple(words), state.cursor))
    assert gen.state_vector() == twin.state_vector()
    assert [gen.next_word() for _ in range(10)] == [twin.next_word() for _ in range(10)]


def _step_vector(gen, vec: BitVector) -> BitVector:
    gen.set_state_vector(vec)
    gen.step()
    return gen.state_vector()


@pytest.mark.parametrize("name", ["well607b", "melg607", "mt19937"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_step_is_f2_linear(name, data):
    spec = get_spec(name)
    gen = make_generator(spec)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = BitVector.random(spec.k, rng)
    y = BitVector.random(spec.k, rng)
    lhs = _step_vector(gen, x ^ y)
    rhs = _step_vector(gen, x) ^ _step_vector(gen, y)
    assert lhs == rhs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_zero_state_is_fixed(name):
    spec = get_spec(name)
    gen = make_generator(spec)
    gen.set_state_vector(BitVector.zeros(spec.k))
    gen.step()
    assert gen.state_vector().popcount() == 0


def _ensemble_of(gens) -> Ensemble:
    """Ensemble whose member e holds the raw words of ``gens[e]``, at cursor 0."""
    spec = gens[0].spec
    ens = Ensemble.zeros(spec, len(gens))
    for e, gen in enumerate(gens):
        for j in range(spec.n):  # logical word j; WELL keeps its newest at the cursor
            ens.st[ens.rec.index(0, j), e] = gen.st[gen.rec.index(gen.cursor, j)]
        if spec.has_lung:
            ens.lung[e] = gen.lung
    return ens


def _unequal_cursors(spec):
    gens = [make_generator(spec, seed=seed) for seed in (1, 2, 3)]
    for lead, gen in enumerate(gens):
        for _ in range(7 * lead):
            gen.step()
    return gens


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_state_rows_match_per_bit_reference(spec):
    gens = _unequal_cursors(spec)
    ens = _ensemble_of(gens)
    for _ in range(5):  # an off-zero ensemble cursor too
        ens.rec.step(ens)
        for gen in gens:
            gen.step()
    rows = [BitVector.from_limbs(row, spec.k) for row in ens.state_rows()]
    assert rows == [_per_bit_state_vector(gen) for gen in gens]


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_grid_codec_roundtrips_many_bits_per_member(spec):
    rng = np.random.default_rng(spec.k)
    pairs = np.unique(rng.integers(0, [grid_size(spec), 4], size=(300, 2)), axis=0)
    ens = Ensemble.zeros(spec, 4)
    set_grid_bits(ens.rec, ens.st, ens.lung, pairs[:, 0], pairs[:, 1])
    grid, member = grid_bits(ens.rec, ens.st, ens.cursor, ens.lung)
    assert np.array_equal(np.unique(np.stack([grid, member], axis=1), axis=0), pairs)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_dead_range_is_the_only_gap_in_the_grid(spec):
    canon = grid_canonical(spec)
    assert np.array_equal(np.flatnonzero(canon < 0), np.arange(grid_size(spec))[dead_bits(spec)])
    assert np.array_equal(canon[canonical_grid(spec)], np.arange(spec.k))


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_zero_states_through_the_grid_codec(spec):
    ens = Ensemble.zeros(spec, 3)
    grid, member = grid_bits(ens.rec, ens.st, ens.cursor, ens.lung)
    assert grid.size == member.size == 0
    set_grid_bits(ens.rec, ens.st, ens.lung, grid, member)
    assert not ens.st.any() and (ens.lung is None or not ens.lung.any())
    assert not ens.state_rows().any()
    gen = make_generator(spec, seed=1)
    gen.set_state_vector(BitVector.zeros(spec.k))
    assert gen.st == [0] * spec.n and gen.lung in (None, 0)
    assert gen.state_vector() == BitVector.zeros(spec.k)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ensemble_lanes_match_scalar_generators(name):
    # Three scalar streams, loaded into one ensemble as raw words, must
    # emit the same words (tempering, lags) and end in the same canonical
    # states.
    spec = get_spec(name)
    gens = _unequal_cursors(spec)
    ens = _ensemble_of(gens)
    for _ in range(500):
        ens.rec.step(ens)
        assert ens.rec.output(ens).tolist() == [gen.next_word() for gen in gens]
    rows = [BitVector.from_limbs(row, spec.k) for row in ens.state_rows()]
    assert rows == [gen.state_vector() for gen in gens]
