"""Generator registry: .params files -> GeneratorSpec -> instances.

Each bundled generator is declared by one key=value file under
``f2spectra/params/``; the registry parses them once and hands out
frozen specs and fresh generator objects by name.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from importlib import resources

from .base import Family, Generator, GeneratorSpec, GeneratorState, Recurrence
from .melg import Melg
from .mt import Mt
from .well import Well

__all__ = [
    "Family",
    "Generator",
    "GeneratorSpec",
    "GeneratorState",
    "GENERATOR_NAMES",
    "get_spec",
    "list_specs",
    "make_generator",
    "parse_params",
    "recurrence",
]

#: Bundled generators, smallest-to-largest within each family group.
GENERATOR_NAMES = (
    "mt19937",
    "mt19937-64id1",
    "mt19937-64id3",
    "well607b",
    "well1024a",
    "well19937a",
    "melg607",
    "melg19937",
)

_FAMILY_RECURRENCE = {
    Family.MT32: Mt,
    Family.MT64_ID1: Mt,
    Family.MT64_ID3: Mt,
    Family.WELL: Well,
    Family.MELG: Melg,
}


def parse_params(text: str) -> GeneratorSpec:
    """Build a spec from key=value text; ``#`` starts a comment.

    The keys are ``GeneratorSpec``'s field names, and three the files keep
    in their published form, which are folded into fields: MT's
    ``temper_u`` .. ``temper_l`` into ``temper``, WELL's ``T0`` .. ``T7``
    into ``transforms`` (grammar in ``well.py``), and the ``p`` of WELL
    (dead low bits) and MELG (live high bits) into ``r``, which MT files
    state.  Every value but ``name`` and ``family`` is an integer literal.
    Besides the fields without a default, each family needs the keys its
    recurrence reads: MT ``a``, the tempering and either one tap ``m`` or
    three ``m1`` .. ``m3``; WELL ``m1`` .. ``m3`` and the transforms; MELG
    ``a``, ``b``, ``m``, ``lag`` and ``s1`` .. ``s3``.  Errors are
    ``ValueError``s naming the offending line or key; a key may be given
    once.
    """
    lines: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            first = lines[key][0]
            raise ValueError(f"line {lineno}: key {key!r} given twice, first on line {first}")
        lines[key] = (lineno, value)

    def take(key: str) -> tuple[int, str]:
        """(line number, value) of ``key``, which must be given."""
        if key not in lines:
            raise ValueError(f"missing key {key!r}")
        return lines.pop(key)

    def integer(key: str, lineno: int, value: str) -> int:
        try:
            return int(value, 0)
        except ValueError:
            raise ValueError(f"line {lineno}: {key}={value} is not an integer literal") from None

    def take_int(key: str) -> int:
        return integer(key, *take(key))

    family, w = Family(take("family")[1]), take_int("w")
    fields: dict[str, object] = {"family": family, "w": w}
    if family is Family.WELL:
        fields["transforms"] = tuple(_parse_transform(take(f"T{t}")[1], w) for t in range(8))
        fields["r"] = take_int("p")
        needed: tuple[str, ...] = ("m1", "m2", "m3")
    elif family is Family.MELG:
        fields["r"] = w - take_int("p")
        needed = ("a", "b", "m", "lag", "s1", "s2", "s3")
    else:
        fields["temper"] = tuple(take_int(f"temper_{x}") for x in "udsbtcl")
        needed = ("a", "m") if "m" in lines else ("a", "m1", "m2", "m3")
    spec_fields = dataclasses.fields(GeneratorSpec)
    needed += tuple(f.name for f in spec_fields if f.default is dataclasses.MISSING)
    plain = {field.name for field in spec_fields} - {"temper", "transforms"}
    for key, (lineno, value) in lines.items():
        if key not in plain or key in fields:  # ``r`` where ``p`` gives it
            raise ValueError(f"line {lineno}: unrecognized key {key!r}")
        fields[key] = value if key == "name" else integer(key, lineno, value)
    for key in needed:
        if key not in fields:
            raise ValueError(f"missing key {key!r}")
    return GeneratorSpec(**fields)


def _parse_transform(token: str, w: int) -> tuple[str, int]:
    if token in ("ID", "ZERO"):
        return (token, 0)
    kind, _, amount = token.partition(":")
    if kind not in ("XS", "SH") or not amount:
        raise ValueError(f"bad transform {token!r}")
    t = int(amount)
    if not -w < t < w:
        raise ValueError(f"transform shift {t} out of range for {w}-bit words")
    return (kind, t)


@lru_cache(maxsize=None)
def _load_specs() -> dict[str, GeneratorSpec]:
    specs: dict[str, GeneratorSpec] = {}
    root = resources.files("f2spectra") / "params"
    for entry in root.iterdir():
        if entry.name.endswith(".params"):
            spec = parse_params(entry.read_text())
            specs[spec.name] = spec
    missing = set(GENERATOR_NAMES) - set(specs)
    if missing:
        raise RuntimeError(f"missing parameter files for: {sorted(missing)}")
    return specs


def get_spec(name: str) -> GeneratorSpec:
    specs = _load_specs()
    try:
        return specs[name]
    except KeyError:
        raise KeyError(f"unknown generator {name!r}; known: {', '.join(list_specs())}") from None


def list_specs() -> tuple[str, ...]:
    specs = _load_specs()
    bundled = [n for n in GENERATOR_NAMES if n in specs]
    extras = sorted(set(specs) - set(GENERATOR_NAMES))
    return tuple(bundled + extras)


def make_generator(spec: GeneratorSpec | str, seed: int | None = None) -> Generator:
    if isinstance(spec, str):
        spec = get_spec(spec)
    return Generator(recurrence(spec, int), seed)


def recurrence(spec: GeneratorSpec, cast) -> Recurrence:
    """The family recurrence of ``spec``, its constants cast by ``cast``."""
    return _FAMILY_RECURRENCE[spec.family](spec, cast)
