"""Deterministic random-number streams.

Every stochastic stage derives its generator from a root seed plus an
integer path, so results do not depend on evaluation order: point k of a
sweep always sees the stream ``derive_rng(root_seed, k)`` no matter how
the points are scheduled.

Splitting rule: ``SeedSequence(entropy=root_seed, spawn_key=path)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _seed_sequence(root_seed: int, path: tuple) -> np.random.SeedSequence:
    """SeedSequence(entropy=root_seed, spawn_key=path) after the range
    checks of derive_rng."""
    root_seed = int(root_seed)
    path = tuple(int(p) for p in path)
    if not 0 <= root_seed < 2**128:
        raise ConfigError(f"root seed must lie in [0, 2**128), got {root_seed}")
    if not all(0 <= p < 2**32 for p in path):
        raise ConfigError(f"seed path elements must lie in [0, 2**32), got {path}")
    return np.random.SeedSequence(entropy=root_seed, spawn_key=path)


def derive_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Child generator for the given root seed and integer path.

    Identical (root_seed, path) pairs always produce identical streams;
    distinct pairs give statistically independent streams.  The root seed
    must lie in [0, 2**128) and each path element in [0, 2**32), else
    ConfigError: SeedSequence reads integers as 32-bit words and pads the
    root to four words before the path, so outside these ranges distinct
    pairs can give the same words (derive_rng(3, 2**32) would be
    derive_rng(3, 0, 1)).
    """
    return np.random.default_rng(_seed_sequence(root_seed, path))


def child_seed(root_seed: int, *path: int) -> int:
    """Deterministic integer seed for the given path.

    For stages that take a root seed rather than a generator (e.g. one
    noise draw per sweep point), pass ``child_seed(seed, point_index)``.
    The value is derive_rng(root_seed, *path).integers(2**63): for the
    range 2**63, Lemire's bounded draw that integers() makes reduces to
    the first raw 64-bit output shifted right by one, so the bit
    generator alone gives it, without a Generator around it.
    """
    return int(np.random.PCG64(_seed_sequence(root_seed, path)).random_raw()) >> 1
