"""Small shared helpers."""

from __future__ import annotations

import os

#: Integers from here up have more decimal digits than Python converts to
#: or from text by default (``sys.int_info.default_max_str_digits``, 4300),
#: so text meant for other readers writes them in hex, which has no cap.
LONG_INT = 10**4300


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit argument, else F2SPECTRA_THREADS, else 1."""
    if threads is None:
        env = os.environ.get("F2SPECTRA_THREADS") or "1"
        try:
            threads = int(env)
        except ValueError as exc:
            raise ValueError(f"F2SPECTRA_THREADS must be an integer, got {env!r}") from exc
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    return threads
