"""Small shared helpers."""

from __future__ import annotations

import os


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
