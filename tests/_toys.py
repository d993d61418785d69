"""Small generator specs shared by the tests: quick to probe exhaustively,
and each with a layout corner the bundled generators lack."""

from __future__ import annotations

from f2spectra import Family, GeneratorSpec

#: 8-bit words in 64-bit storage, 2 dead bits.
TOY_MT8 = GeneratorSpec(
    name="toy-mt8",
    family=Family.MT32,
    w=8,
    n=3,
    r=2,
    init_f=1812433253,
    init_shift=30,
    a=0xB1,
    m=1,
    temper=(3, 0xD7, 2, 0x75, 3, 0x16, 1),
)
#: Output lag 1: the output reads the whole oldest word, dead bits included.
TOY_MELG = GeneratorSpec(
    name="toy-melg",
    family=Family.MELG,
    w=64,
    n=4,
    r=33,
    init_f=6364136223846793005,
    init_shift=62,
    a=0x5C32E06DF730FC42,
    m=2,
    lag=1,
    s1=23,
    s2=33,
    s3=16,
    b=0x66EDC62A6BF8C826,
)
#: Tap m1 = n - 1 reads the whole oldest word, so the recurrence itself
#: reads the 5 dead bits, which no bundled generator does.
TOY_WELL_DEAD_TAP = GeneratorSpec(
    name="toy-well-dead-tap",
    family=Family.WELL,
    w=32,
    n=4,
    r=5,
    init_f=1812433253,
    init_shift=30,
    m1=3,
    m2=1,
    m3=2,
    transforms=(("XS", -18), ("XS", -14), ("ID", 0), ("XS", 18),
                ("XS", -24), ("XS", 5), ("XS", -1), ("ZERO", 0)),
)
