"""Seed derivation for reproducible experiments.

Every random draw in the package goes through a Philox4x64-10 counter
generator keyed as ``key = (seed << 64) | substream``, so realizations
are portable across platforms and independent across substreams. Trial
parallelism derives one substream per trial.
"""

from __future__ import annotations

import numbers

import numpy as np


def _is_int(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def make_rng(seed: int, substream: int = 0) -> np.random.Generator:
    if not (_is_int(seed, 0) and _is_int(substream, 0)):
        raise ValueError(f"seed and substream must be integers >= 0, got {seed!r}, {substream!r}")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(substream)))
