"""Benchmark-harness option for the evaluation backend.

``--cache-dir DIR`` persists every estimate to DIR so a second benchmark
run against the same cache skips re-estimation.  It is forwarded to
``common.make_evaluator`` through ``S2FA_CACHE_DIR`` so the
``lru_cache``-memoized helpers observe it before any evaluator is built.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The benches import each other via plain ``from common import ...``.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_addoption(parser):
    group = parser.getgroup("s2fa")
    group.addoption(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent evaluation cache directory")


def pytest_configure(config):
    cache_dir = config.getoption("--cache-dir", default=None)
    if cache_dir is not None:
        os.environ["S2FA_CACHE_DIR"] = cache_dir
