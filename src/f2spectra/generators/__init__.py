"""Generator registry: .params files -> GeneratorSpec -> instances.

Each bundled generator is declared by one key=value file under
``f2spectra/params/``; the registry parses them once and hands out
frozen specs and fresh generator objects by name.
"""

from __future__ import annotations

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

_INT_KEYS = {
    "w", "n", "m", "m1", "m2", "m3", "r", "p", "a", "lag",
    "s1", "s2", "s3", "b", "init_f", "init_shift",
    "temper_u", "temper_d", "temper_s", "temper_b", "temper_t", "temper_c", "temper_l",
}


def parse_params(text: str) -> GeneratorSpec:
    """Build a spec from key=value text (# comments, transform grammar)."""
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _INT_KEYS:
            fields[key] = int(value, 0)
        else:
            fields[key] = value

    family = Family(str(fields.pop("family")))
    w = int(fields.pop("w"))
    transforms = None
    if family is Family.WELL:
        slots = []
        for t in range(8):
            slots.append(_parse_transform(str(fields.pop(f"T{t}")), w))
        transforms = tuple(slots)

    temper = None
    if "temper_u" in fields:
        temper = tuple(int(fields.pop(f"temper_{x}")) for x in "udsbtcl")

    # Normalize the per-family dead-bit conventions to a single r: MT files
    # state r directly, WELL files state p = dead low bits, MELG files state
    # p = live high bits.
    if family is Family.WELL:
        r = int(fields.pop("p"))
    elif family is Family.MELG:
        r = w - int(fields.pop("p"))
    else:
        r = int(fields.pop("r"))

    known = {"name", "n", "m", "m1", "m2", "m3", "a", "lag", "s1", "s2", "s3", "b",
             "init_f", "init_shift"}
    extra = set(fields) - known
    if extra:
        raise ValueError(f"unrecognized keys: {sorted(extra)}")

    return GeneratorSpec(
        name=str(fields["name"]),
        family=family,
        w=w,
        n=int(fields["n"]),
        r=r,
        init_f=int(fields["init_f"]),
        init_shift=int(fields["init_shift"]),
        a=fields.get("a"),
        m=fields.get("m"),
        m1=fields.get("m1"),
        m2=fields.get("m2"),
        m3=fields.get("m3"),
        temper=temper,
        transforms=transforms,
        lag=fields.get("lag"),
        s1=fields.get("s1"),
        s2=fields.get("s2"),
        s3=fields.get("s3"),
        b=fields.get("b"),
    )


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
