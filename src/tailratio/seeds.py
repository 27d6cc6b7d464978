"""Seed handling: every random stream in the package is named by an integer key path.

A seed argument is a key path: a sequence of integers in [0, 2**32), or one
such integer, which is the one-element path.  `substream` is the only place
a key path becomes a generator.  A stream drawn under a master seed S is
keyed (S, ..., purpose): the elements between name the replicate, channel,
restart or cell, and the last names what the stream is for, so two purposes
never share a stream for one S.
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = ["substream"]

Key = Union[int, Sequence[int]]

# The purpose of a stream: the last element of every key path built from a master seed.
# Purpose 5 named the retired uniform bootstrap null; it stays unused so the
# toy cells keep their streams.
GEN_MATED, GEN_NONMATED, SPLIT, RESTART, RESAMPLE = range(5)
TOY_CELL = 6


def key_path(seed: Key) -> tuple[int, ...]:
    """The key path a seed argument names, checked: an int is the one-element path."""
    try:
        path = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    except TypeError:
        raise DomainError(f"a seed is an integer or a sequence of integers, got {seed!r}") from None
    if not path:
        raise DomainError("a key path needs at least one element")
    for k in path:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < 2**32:
            raise DomainError(f"key path elements must be integers in [0, 2**32), got {k!r}")
    return tuple(int(k) for k in path)


def substream(*key: int) -> np.random.Generator:
    """Independent generator for the stream named by an integer key path.

    The stream is seeded from the words [len(key), *key], one word per
    element, so no two key paths share an encoding: paths of different
    lengths differ in the first word.
    """
    path = key_path(key)
    return np.random.default_rng([len(path), *path])
