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
    """Independent generator for the substream identified by an integer key path."""
    return np.random.default_rng(list(key))


def derive_seed(*key: int) -> int:
    """Deterministic integer seed derived from an integer key path."""
    return int(substream(*key).integers(2**31))
