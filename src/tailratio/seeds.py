"""Seed handling: generator coercion and deterministic substream derivation."""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["substream", "derive_seed"]

SeedLike = Union[int, Sequence[int], np.random.Generator]

SEED_ENV_VAR = "TAILRATIO_SEED"


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce an int, int sequence, or Generator into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    return np.random.default_rng(list(seed))


def substream(*key: int) -> np.random.Generator:
    """Independent generator for the substream identified by an integer key path.

    Key paths that differ only by trailing zeros are one stream: numpy's
    SeedSequence pads a key with zero words, so substream(S), substream(S, 0),
    substream(S, 0, 0) and default_rng(S) draw the same bits.  For one seed S,
    `gen`'s mated draws, `fit --train-fraction`'s split and replicate 0's split
    in `sim-pvalues` therefore share bits.  The keys are kept, because changing
    one would change every seeded output.
    """
    return np.random.default_rng(list(key))


def derive_seed(*key: int) -> int:
    """Deterministic integer seed derived from an integer key path."""
    return int(substream(*key).integers(2**31))
