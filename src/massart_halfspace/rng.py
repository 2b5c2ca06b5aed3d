"""Seed derivation for reproducible, splittable random streams.

Every random draw in this package flows through a numpy Generator backed
by the Philox counter-based bit generator. Substreams are derived from a
64-bit base seed plus a path of small integers, so independent consumers
(the example stream of a trial, its label flips, its selection sample)
never share state and never collide across trials.
"""
from __future__ import annotations

import numpy as np

# Purpose codes used as the last component of a substream path. These are
# part of the reproducibility contract: changing them invalidates seeds
# recorded in old result files.
STREAM_X = 0
STREAM_FLIP = 1
STREAM_OPT = 2
STREAM_PSGD = 3
STREAM_SELECT = 4
STREAM_VERIFY = 5

_MAX_SEED = 2**64 - 1


def _check_path(base_seed: int, path: tuple[int, ...]) -> None:
    if not isinstance(base_seed, (int, np.integer)):
        raise ValueError(f"base seed must be an integer, got {type(base_seed).__name__}")
    if not 0 <= int(base_seed) <= _MAX_SEED:
        raise ValueError(f"base seed must be an unsigned 64-bit integer, got {base_seed}")
    for p in path:
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise ValueError(f"substream path components must be non-negative integers, got {p!r}")


def substream_seed(base_seed: int, *path: int) -> np.random.SeedSequence:
    """Derive the seed sequence for the substream at `path` under `base_seed`."""
    _check_path(base_seed, path)
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(p) for p in path))


def make_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Construct a Philox-backed generator for the given substream."""
    return np.random.Generator(np.random.Philox(substream_seed(base_seed, *path)))


def derive_seed(base_seed: int, *path: int) -> int:
    """Collapse a substream path to a plain 64-bit seed.

    Useful when a component wants to own a whole family of substreams of
    its own (it can treat the derived value as a new base seed).
    """
    return int(substream_seed(base_seed, *path).generate_state(1, np.uint64)[0])
