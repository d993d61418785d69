"""Generator streams, seeding, state codecs, and F2-linearity."""

from __future__ import annotations

import hashlib
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spectra import (
    Family,
    GeneratorState,
    get_spec,
    list_specs,
    make_generator,
)
from f2spectra.bitlinalg import BitVector
from f2spectra.generators import base, parse_params, recurrence
from f2spectra.generators.base import (
    canonical_grid,
    dead_bits,
    grid_bits,
    grid_canonical,
    grid_size,
    set_grid_bits,
    word_dtype,
)
from f2spectra.generators.ensemble import Ensemble, probe_images
from f2spectra.generators.melg import Melg
from f2spectra.generators.mt import Mt
from f2spectra.generators.well import Well
from f2spectra.gf2poly import output_bit_sequence
from f2spectra.zeroland import trajectory_trace

from _oracles import bit_vector, hamming, probe_images_full_window, xor
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


# -- the .params parser -------------------------------------------------------

#: SHA-256 of ``repr(spec)`` for each bundled .params file, as parsed.
SPEC_REPR_SHA256 = {
    "mt19937": "5cc65f338c5057057cc94c108f2c9de2e998c3972a8db1c7b640f963b74dc880",
    "mt19937-64id1": "8b99a15790f22bcc1dead6bfe0bc3f5d5c1a74ddbf3ff4fe4475f13553d2f7c4",
    "mt19937-64id3": "dd5db6ce59311c36c12db7fc0a9f4fc3b55e8496f97036370285e5c8b5b0a45a",
    "well607b": "2c6325f8dd1b880f2493eec0d42b5482784b6df8654f79f0dfdfc554f2ccb520",
    "well1024a": "dc306ad4abc761ac658b8fee0f6059ff4c2c8bc5d1006a1d0d187fe0adac6760",
    "well19937a": "cedd9167bdab7ec28d98e7cbc19b94dfe9671c62baa80c4f75e50f1e99bb9b0b",
    "melg607": "777652beb9d03ba4230c559fafdb0f8bfbb3e4faf55bc973d3edb2e6fac07cd9",
    "melg19937": "2592ba155a4b0276f5e777b0d2a856f99e429e347a1c2e3f9f7d0d93cde26355",
}


def _params_text(name):
    path = resources.files("f2spectra") / "params" / f"{name.replace('-', '_')}.params"
    return path.read_text()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_bundled_params_parse_to_frozen_specs(name):
    spec = parse_params(_params_text(name))
    assert hashlib.sha256(repr(spec).encode()).hexdigest() == SPEC_REPR_SHA256[name]
    assert spec == get_spec(name)


def _edited(name, old, new):
    text = _params_text(name)
    assert old in text
    return text.replace(old, new, 1)


PARAMS_ERRORS = {
    "no-equals": ("mt19937", "n=624\n", "n 624\n", r"^line 7: expected key=value, got 'n 624'$"),
    "unknown-key": ("mt19937", "m=397\n", "m=397\nmm=3\n", r"^line 9: unrecognized key 'mm'$"),
    "folded-field": ("mt19937", "temper_u=11\n", "temper_u=11\ntemper=11\n",
                     r"^line 12: unrecognized key 'temper'$"),
    "r-beside-p": ("well607b", "p=1\n", "p=1\nr=1\n", r"^line 15: unrecognized key 'r'$"),
    "p-on-mt": ("mt19937", "r=31\n", "r=31\np=1\n", r"^line 10: unrecognized key 'p'$"),
    "missing-n": ("mt19937", "n=624\n", "", r"^missing key 'n'$"),
    "missing-r": ("mt19937", "r=31\n", "", r"^missing key 'r'$"),
    "missing-temper": ("mt19937", "temper_s=7\n", "", r"^missing key 'temper_s'$"),
    "missing-family": ("well607b", "family=WELL\n", "", r"^missing key 'family'$"),
    "missing-p": ("well607b", "p=1\n", "", r"^missing key 'p'$"),
    "missing-transform": ("well607b", "T7=ZERO\n", "", r"^missing key 'T7'$"),
    "bad-kind": ("well607b", "T2=ZERO\n", "T2=ROT:3\n", r"^bad transform 'ROT:3'$"),
    "no-amount": ("well607b", "T2=ZERO\n", "T2=XS\n", r"^bad transform 'XS'$"),
    "shift-right": ("well607b", "T2=ZERO\n", "T2=SH:32\n",
                    r"^transform shift 32 out of range for 32-bit words$"),
    "shift-left": ("well607b", "T2=ZERO\n", "T2=XS:-32\n",
                   r"^transform shift -32 out of range for 32-bit words$"),
    "key-twice": ("mt19937", "n=624\n", "n=624\nn=625\n",
                  r"^line 8: key 'n' given twice, first on line 7$"),
    "bad-integer": ("mt19937", "m=397\n", "m=39x\n", r"^line 8: m=39x is not an integer literal$"),
    "bad-folded-integer": ("melg607", "p=31\n", "p=3l\n",
                           r"^line \d+: p=3l is not an integer literal$"),
    "temper-on-melg": ("melg607", "lag=3\n", "lag=3\ntemper_u=11\n",
                       r"^line \d+: unrecognized key 'temper_u'$"),
    # each key the family's recurrence reads
    "missing-mt-a": ("mt19937", "a=0x9908B0DF\n", "", r"^missing key 'a'$"),
    "missing-mt-m": ("mt19937", "m=397\n", "", r"^missing key 'm1'$"),  # the three-tap form
    "missing-mt-temper_u": ("mt19937", "temper_u=11\n", "", r"^missing key 'temper_u'$"),
    "missing-mt64id3-m2": ("mt19937-64id3", "m2=151\n", "", r"^missing key 'm2'$"),
    "missing-well-m3": ("well607b", "m3=13\n", "", r"^missing key 'm3'$"),
    **{f"missing-melg-{key}": ("melg607", line, "", f"^missing key '{key}'$") for key, line in (
        ("a", "a=0x81F1FD68012348BC\n"), ("b", "b=0x66EDC62A6BF8C826\n"), ("m", "m=5\n"),
        ("lag", "lag=3\n"), ("s1", "s1=13\n"), ("s2", "s2=35\n"), ("s3", "s3=30\n"),
    )},
}


@pytest.mark.parametrize("case", sorted(PARAMS_ERRORS))
def test_params_errors_name_their_line_or_key(case):
    name, old, new, message = PARAMS_ERRORS[case]
    with pytest.raises(ValueError, match=message):
        parse_params(_edited(name, old, new))


def test_params_shift_bounds_are_open():
    text = _edited("well607b", "T2=ZERO\n", "T2=SH:31\n")
    assert parse_params(text).transforms[2] == ("SH", 31)
    text = _edited("well607b", "T2=ZERO\n", "T2=XS:-31\n")
    assert parse_params(text).transforms[2] == ("XS", -31)


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
    values = gen.reals(500)
    assert all(0.0 <= v < 1.0 for v in values)
    twin = make_generator(name, seed=11)
    assert values == [twin.reals(1)[0] for _ in range(500)]


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


def test_raw_state_word_order_after_seeding():
    # The seeding recurrence fills the raw state in seed-file order: oldest
    # word first for MT and MELG, newest first for WELL.
    assert make_generator("well607b", seed=5489).get_raw_state().words[:3] == (
        0x1571, 0x4D98EE96, 0xAF25F095)
    assert make_generator("mt19937", seed=5489).get_raw_state().words[:3] == (
        0x1571, 0x4D98EE96, 0xAF25F095)
    assert make_generator("melg607", seed=5489).get_raw_state().words[:3] == (
        0x1571, 0xB5347F47116BD3DE, 0x9165B5762D1A61AE)


def _per_bit_state_vector(gen) -> BitVector:
    """Oracle for the vectorised codec: walk the canonical layout bit by bit
    (newest word first, MSB first, dead low bits of the oldest word skipped,
    lung last)."""
    spec = gen.spec
    words = gen.window[::-1]
    lows = [0] * (spec.n - 1) + [spec.r]
    if spec.has_lung:
        words.append(gen.lung)
        lows.append(0)
    return bit_vector(
        (word >> b) & 1 for word, low in zip(words, lows) for b in range(spec.w - 1, low - 1, -1)
    )


ALL_SPECS_AND_TOYS = [
    *(get_spec(name) for name in ALL_NAMES), TOY_MT8, TOY_MELG, TOY_WELL_DEAD_TAP
]


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_codec_matches_per_bit_reference(spec):
    gen = make_generator(spec, seed=21)
    for _ in range(17):  # a window off the buffer's front, past a copy back for the toys
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
    words = list(gen.get_raw_state().words)
    words[-1] ^= (1 << spec.r) - 1  # WELL's seed-file order ends with the oldest word
    twin = make_generator(spec)
    twin.set_raw_state(GeneratorState(tuple(words)))
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
    lhs = _step_vector(gen, xor(x, y))
    rhs = xor(_step_vector(gen, x), _step_vector(gen, y))
    assert lhs == rhs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_zero_state_is_fixed(name):
    spec = get_spec(name)
    gen = make_generator(spec)
    gen.set_state_vector(BitVector(spec.k, 0))
    gen.step()
    assert gen.state_vector().value == 0


def _ensemble_of(gens) -> Ensemble:
    """Ensemble whose member e holds the ring of ``gens[e]``, at buffer offset 0."""
    spec = gens[0].spec
    ens = Ensemble(spec, len(gens))
    for e, gen in enumerate(gens):
        ens.window[:, e] = gen.window
        if spec.has_lung:
            ens.lung[e] = gen.lung
    return ens


def _staggered(spec):
    """Three generators 0, 7 and 14 steps past seeding: their windows sit
    at different buffer offsets, and the toys' past a copy back."""
    gens = [make_generator(spec, seed=seed) for seed in (1, 2, 3)]
    for lead, gen in enumerate(gens):
        for _ in range(7 * lead):
            gen.step()
    return gens


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_state_rows_match_per_bit_reference(spec):
    gens = _staggered(spec)
    ens = _ensemble_of(gens)
    for _ in range(5):  # an ensemble window off the buffer's front too
        ens.rec.run(ens, 1)
        for gen in gens:
            gen.step()
    rows = [BitVector.from_limbs(row, spec.k) for row in ens.state_rows()]
    assert rows == [_per_bit_state_vector(gen) for gen in gens]


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_grid_codec_roundtrips_many_bits_per_member(spec):
    rng = np.random.default_rng(spec.k)
    pairs = np.unique(rng.integers(0, [grid_size(spec), 4], size=(300, 2)), axis=0)
    ens = Ensemble(spec, 4)
    set_grid_bits(spec, ens.window, ens.lung, pairs[:, 0], pairs[:, 1])
    grid, member = grid_bits(spec, ens.window, ens.lung)
    assert np.array_equal(np.unique(np.stack([grid, member], axis=1), axis=0), pairs)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_dead_range_is_the_only_gap_in_the_grid(spec):
    canon = grid_canonical(spec)
    assert np.array_equal(np.flatnonzero(canon < 0), np.arange(grid_size(spec))[dead_bits(spec)])
    assert np.array_equal(canon[canonical_grid(spec)], np.arange(spec.k))


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_zero_states_through_the_grid_codec(spec):
    ens = Ensemble(spec, 3)
    grid, member = grid_bits(spec, ens.window, ens.lung)
    assert grid.size == member.size == 0
    set_grid_bits(spec, ens.window, ens.lung, grid, member)
    assert not ens.window.any() and (ens.lung is None or not ens.lung.any())
    assert not ens.state_rows().any()
    gen = make_generator(spec, seed=1)
    gen.set_state_vector(BitVector(spec.k, 0))
    assert gen.window == [0] * spec.n and gen.lung in (None, 0)
    assert gen.state_vector() == BitVector(spec.k, 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ensemble_lanes_match_scalar_generators(name):
    # Three scalar streams, loaded into one ensemble as raw words, must
    # emit the same words (tempering, lags) and end in the same canonical
    # states, from each window offset of the ensemble (see ``_offsets``)
    # through one copy back to its buffer's front.
    spec = get_spec(name)
    for start in _offsets(spec):
        gens = _staggered(spec)
        ens = _ensemble_of(gens)
        ens.rec.run(ens, start)
        for gen in gens:
            gen.step(start)
        assert ens.start == start
        for _ in range(len(ens.buf) - spec.n - start + 3):
            out = []
            ens.rec.run(ens, 1, out)
            assert out[0].tolist() == [gen.next_word() for gen in gens]
        assert ens.start == 3
        rows = [BitVector.from_limbs(row, spec.k) for row in ens.state_rows()]
        assert rows == [gen.state_vector() for gen in gens]


# -- the batched step loop ---------------------------------------------------


def _offsets(spec):
    """Window offsets 0, 1, room - 1 and room: a run of more than
    room - offset steps crosses a copy back to the buffer's front, and one
    from offset room starts with one."""
    room = len(make_generator(spec).buf) - spec.n
    return (0, 1, room - 1, room)


def _at_offset(spec, seed, start):
    """A seeded generator stepped until its window starts at ``buf[start]``."""
    gen = make_generator(spec, seed=seed)
    gen.step(start)
    assert gen.start == start
    return gen


def _counts(spec):
    return (0, 1, spec.n - 1, spec.n, spec.n + 1)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_run_equals_single_steps_on_a_scalar_ring(spec):
    for start in _offsets(spec):
        for count in _counts(spec):
            batched, single = _at_offset(spec, 5, start), _at_offset(spec, 5, start)
            out = [-1]  # run appends after what the list holds
            batched.rec.run(batched, count, out)
            expected = [-1]
            for _ in range(count):
                single.rec.run(single, 1, expected)
            assert out == expected, (start, count)
            assert batched.get_raw_state() == single.get_raw_state(), (start, count)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_run_equals_single_steps_on_an_ensemble_ring(spec):
    gens = [make_generator(spec, seed=seed) for seed in (1, 2, 3)]
    for start in _offsets(spec):
        for count in _counts(spec):
            batched, single = _ensemble_of(gens), _ensemble_of(gens)
            for ens in (batched, single):
                ens.rec.run(ens, start)
                assert ens.start == start
            out, expected = [], []
            batched.rec.run(batched, count, out)
            for _ in range(count):
                single.rec.run(single, 1, expected)
            assert np.array_equal(np.array(out), np.array(expected)), (start, count)
            assert np.array_equal(batched.window, single.window), (start, count)
            if spec.has_lung:
                assert np.array_equal(batched.lung, single.lung)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_a_step_writes_only_the_two_newest_words_and_the_lung(spec):
    # The premise of the probe's shifted images and of advance_stream's
    # copy back from word n - 1: a step from window start c leaves every
    # word but c + n - 1 and c + n as it was, words c .. c + n - 2 included.
    # And the premise of the probe's read set: with every ring word outside
    # the offsets rec.reads made random, the step writes the same words and
    # lung and emits the same word.
    dt = word_dtype(spec)
    rng = np.random.default_rng(spec.n)
    rec = recurrence(spec, dt)
    n = spec.n
    assert set(rec.reads) <= set(range(n))
    unread = [o for o in range(n) if o not in rec.reads]
    for c in (0, 1, n - 1):
        words = rng.integers(0, spec.word_mask, size=(2 * n, 4), dtype=dt, endpoint=True)
        lung = rng.integers(0, spec.word_mask, size=4, dtype=dt, endpoint=True)
        ring = base.Ring(words.copy(), lung.copy() if spec.has_lung else None)
        ring.start = c
        out = []
        rec.run(ring, 1, out)
        assert ring.start == c + 1
        written = np.flatnonzero((ring.buf != words).any(axis=1))
        assert set(written.tolist()) <= {c + n - 1, c + n}, c
        assert c + n in written, c
        other = words.copy()
        other[[c + o for o in unread]] = rng.integers(
            0, spec.word_mask, size=(len(unread), 4), dtype=dt, endpoint=True)
        other_ring = base.Ring(other, lung.copy() if spec.has_lung else None)
        other_ring.start = c
        other_out = []
        rec.run(other_ring, 1, other_out)
        assert np.array_equal(other_ring.buf[written], ring.buf[written]), c
        assert np.array_equal(other_out[0], out[0]), c
        if spec.has_lung:
            assert np.array_equal(other_ring.lung, ring.lung), c


@pytest.mark.parametrize("name", ALL_NAMES)
def test_words_and_reals_equal_the_single_call_streams(name):
    spec = get_spec(name)
    count = spec.n + 3
    batched, single = make_generator(spec, seed=77), make_generator(spec, seed=77)
    assert batched.words(count) == [single.next_word() for _ in range(count)]
    assert batched.reals(count) == [single.reals(1)[0] for _ in range(count)]
    batched.step(count)
    for _ in range(count):
        single.step()
    assert batched.words(5) == [single.next_word() for _ in range(5)]
    assert batched.words(0) == [] and batched.reals(0) == []


@pytest.mark.parametrize("name", ALL_NAMES)
def test_reals_use_the_published_conversion(name):
    spec = get_spec(name)
    words = make_generator(spec, seed=3).words(40)
    if spec.family is Family.WELL:
        expected = [w / 2**32 for w in words]
    elif spec.w == 32:
        expected = [((hi >> 5) * 2**26 + (lo >> 6)) / 2**53 for hi, lo in zip(words[::2], words[1::2])]
    else:
        expected = [(w >> 11) / 2**53 for w in words]
    assert make_generator(spec, seed=3).reals(len(expected)) == expected


# -- the block path ------------------------------------------------------------


def _per_step_words(gen, count):
    out = []
    gen.rec.run(gen, count, out)
    return out


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_block_path_equals_the_per_step_loop(spec, monkeypatch):
    # Every family takes the block path at every count, whatever its span,
    # so the small generators and the toys test it too.
    monkeypatch.setattr(base, "_BLOCK_SPAN", 1)
    span = make_generator(spec).rec.span
    assert span >= 1
    counts = {1, 2, span - 1, span, span + 1, spec.n, 2 * spec.n + 3} - {0}
    if spec.name in ALL_NAMES:  # the toys' spans of 1-2 words would take seconds
        counts.add(40000)
    for start in _offsets(spec):
        for count in sorted(counts):
            blocked, single = _at_offset(spec, 5, start), _at_offset(spec, 5, start)
            words = blocked.word_array(count)
            assert words.dtype == np.dtype(word_dtype(spec)), (start, count)
            assert words.tolist() == _per_step_words(single, count), (start, count)
            assert blocked.window == single.window, (start, count)
            assert blocked.lung == single.lung, (start, count)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_block_readers_equal_their_per_step_versions(name):
    spec = get_spec(name)
    count = 3 * spec.n + 5
    words = _per_step_words(make_generator(spec, seed=41), 2 * count)
    if spec.family is Family.WELL:
        reals = [word * 2**-32 for word in words[:count]]
    elif spec.w == 32:
        reals = [((hi >> 5) * 2**26 + (lo >> 6)) * 2**-53 for hi, lo in zip(words[::2], words[1::2])]
    else:
        reals = [(word >> 11) * 2**-53 for word in words[:count]]
    assert make_generator(spec, seed=41).reals(count) == reals

    bits = output_bit_sequence(spec, count, seed=41)
    assert bits == sum((word & 1) << i for i, word in enumerate(words[:count]))

    p = 10
    trace = trajectory_trace(make_generator(spec, seed=41), p=p, max_n=count * (spec.w // 32))
    weights = [hamming(word) for word in words[:count]]
    expected = [sum(weights[i : i + p]) / (p * spec.w) for i in range(count - p + 1)]
    assert trace.values.tolist() == expected  # both divisions are correctly rounded


SMALL_SPAN_NAMES = ("well607b", "well1024a", "melg607")


@pytest.mark.parametrize("name", SMALL_SPAN_NAMES)
def test_word_array_on_the_per_step_path_equals_the_per_step_loop(name):
    # A WELL step rewrites the word before the one it appends, so the
    # stream is copied back from word n - 1 on, not from word n.
    spec = get_spec(name)
    for start in _offsets(spec):
        for count in (1, 2, spec.n - 1, spec.n, spec.n + 1):
            stream, single = _at_offset(spec, 5, start), _at_offset(spec, 5, start)
            words = stream.word_array(count)
            assert words.dtype == np.dtype(word_dtype(spec)), (start, count)
            assert words.tolist() == _per_step_words(single, count), (start, count)
            assert stream.window == single.window, (start, count)
            assert stream.lung == single.lung, (start, count)


def test_the_span_alone_picks_the_block_path(monkeypatch):
    # The block path runs on each count; the cast recurrence it runs on is
    # resolved once per recurrence, not once per call.
    resolved, array_recurrence = [], base._array_recurrence
    reached = []

    def record(family, spec):
        resolved.append(spec.name)
        return array_recurrence(family, spec)

    monkeypatch.setattr(base, "_array_recurrence", record)
    for family in (Mt, Well, Melg):
        def blocks(self, buf, *args, _blocks=family.blocks):
            reached.append(self.spec.name)
            return _blocks(self, buf, *args)

        monkeypatch.setattr(family, "blocks", blocks)
    counts = (1, 2, 63, 64, 5000)
    for name in SMALL_SPAN_NAMES:
        assert make_generator(name).rec.span < base._BLOCK_SPAN
        gen = make_generator(name, seed=1)
        for count in counts:
            gen.word_array(count)
    assert reached == resolved == []
    for name in ("mt19937", "mt19937-64id1", "mt19937-64id3", "well19937a", "melg19937"):
        assert make_generator(name).rec.span >= base._BLOCK_SPAN
        gen = make_generator(name, seed=1)
        for count in counts:
            gen.word_array(count)
            assert reached.pop() == name, count
            assert reached == []
        assert resolved == [name]
        resolved.clear()


def test_spans_of_the_bundled_generators():
    # n - (largest tap) for MT, n - m for MELG, the smallest tap for WELL
    spans = {name: make_generator(name).rec.span for name in ALL_NAMES}
    assert spans == {"mt19937": 227, "mt19937-64id1": 156, "mt19937-64id3": 88,
                     "well607b": 8, "well1024a": 3, "well19937a": 70,
                     "melg607": 4, "melg19937": 230}


# -- the one-step probe of the state grid --------------------------------------


def _sorted_pairs(rows, cols):
    order = np.lexsort((rows, cols))
    return np.stack([rows[order], cols[order]])


def _assert_same_probe(got, expected):
    (rows, cols, outputs), (e_rows, e_cols, e_outputs) = got, expected
    assert rows.dtype == cols.dtype == np.int64
    assert np.array_equal(_sorted_pairs(rows, cols), _sorted_pairs(e_rows, e_cols))
    assert outputs.dtype == e_outputs.dtype
    assert np.array_equal(outputs, e_outputs)


@pytest.mark.parametrize("spec", ALL_SPECS_AND_TOYS, ids=lambda s: s.name)
def test_probe_matches_the_full_window_oracle(spec):
    # The whole grid, dead bits and lung included (matrix extraction drops
    # both), then lane ranges that start and end mid-word: the grid cut
    # into seven parts, and one from three bits before the dead bits (the
    # oldest word's low r bits) to the end of the grid.
    size, w = grid_size(spec), spec.w
    bounds = [size * t // 7 for t in range(8)]
    assert any(b % w for b in bounds)
    dead = dead_bits(spec)
    ranges = [(0, size), *zip(bounds[:-1], bounds[1:]), (dead.start - 3, size)]
    for lo, hi in ranges:
        _assert_same_probe(probe_images(spec, lo, hi), probe_images_full_window(spec, lo, hi))


def test_probe_of_an_empty_lane_range():
    spec = TOY_MT8
    rows, cols, outputs = probe_images(spec, 5, 5)
    assert rows.size == cols.size == outputs.size == 0
    assert rows.dtype == cols.dtype == np.int64
    assert outputs.dtype == np.dtype(word_dtype(spec))
