"""Named random substreams so one top-level seed drives every module
without the streams perturbing each other."""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Generator for the (seed, label) substream.  Same pair, same stream."""
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    )


def epoch_seed(seed: int, epoch: int) -> int:
    """Stable per-epoch shuffle seed derived from the run seed."""
    return int(rng_for(seed, f"epoch-{epoch}").integers(0, 2**31 - 1))
