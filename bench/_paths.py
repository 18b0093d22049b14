"""Locations inside the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def source_present() -> bool:
    return (SRC / "qmonogamy" / "__init__.py").is_file()


def use_checkout_source():
    """Import qmonogamy from this checkout's ``src/``, never from elsewhere."""
    if not source_present():
        raise SystemExit(f"error: {SRC / 'qmonogamy'} not found; run from a qmonogamy checkout")
    sys.path.insert(0, str(SRC))
