"""Deterministic random-number streams.

Every stochastic stage derives its generator from a root seed plus an
integer path, so results do not depend on evaluation order: point k of a
sweep always sees the stream ``derive_rng(root_seed, k)`` no matter how
the points are scheduled.

Splitting rule: ``SeedSequence(entropy=root_seed, spawn_key=path)``.

derive_rng and child_seed build that SeedSequence one key at a time.
The acquisition core needs one stream per shot, so two private
functions give the same streams for a whole array of keys at once:
_child_seeds(root, count) is child_seed(root, i) for every i <
count, and _derived_states(seeds) is the raw PCG64 (state, inc) that
derive_rng(s) starts from, for every seed s.  Both run SeedSequence's
pool mix and generate_state (numpy's bit_generator.pyx, after O'Neill's
seed_seq_fe) as uint32 array arithmetic, then PCG64's 128-bit set-seed
step (and, for a child seed, one XSL-RR output) on Python ints.  The
tests hold both to derive_rng and child_seed, which stay the public API.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# SeedSequence's hash constants and pool size (numpy bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _check_root_seed(root_seed: int) -> int:
    """The root seed as an int; ConfigError unless it is an integer in
    [0, 2**128).  A float with a fractional part is refused, not
    truncated: 1.5 would run as seed 1."""
    try:
        value = int(root_seed)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != root_seed or not 0 <= value < 2**128:
        raise ConfigError(f"root seed must lie in [0, 2**128), got {root_seed!r}")
    return value


def _seed_sequence(root_seed: int, path: tuple) -> np.random.SeedSequence:
    """SeedSequence(entropy=root_seed, spawn_key=path) after the range
    checks of derive_rng."""
    root_seed = _check_root_seed(root_seed)
    path = tuple(int(p) for p in path)
    if not all(0 <= p < 2**32 for p in path):
        raise ConfigError(f"seed path elements must lie in [0, 2**32), got {path}")
    return np.random.SeedSequence(entropy=root_seed, spawn_key=path)


def derive_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Child generator for the given root seed and integer path.

    Identical (root_seed, path) pairs always produce identical streams;
    distinct pairs give statistically independent streams.  The root seed
    must be an integer in [0, 2**128) and each path element in
    [0, 2**32), else ConfigError: SeedSequence reads integers as 32-bit
    words and pads the root to four words before the path, so outside
    these ranges distinct pairs can give the same words
    (derive_rng(3, 2**32) would be derive_rng(3, 0, 1)).
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


def _pcg64_seeded(pool: list[np.ndarray]) -> list[tuple[int, int]]:
    """(state, inc) of PCG64 seeded from each row of SeedSequence pools.

    pool holds the four uint32 pool words, each an array over the rows.
    generate_state(4, uint64) hashes the words in turn into eight uint32
    words, read pairwise as little-endian uint64 values v0..v3; PCG64
    takes seed (v0 << 64 | v1) and stream (v2 << 64 | v3) and runs
    pcg_setseq_128_srandom_r: inc = stream << 1 | 1, then two LCG steps
    around adding the seed.
    """
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        words.append(value ^ (value >> np.uint32(16)))
    halves = [
        ((words[2 * k + 1].astype(np.uint64) << np.uint64(32)) | words[2 * k]).tolist()
        for k in range(4)
    ]
    seeded = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        seeded.append((state, inc))
    return seeded


def _mixed_pool(entropy: list[np.ndarray], rows: int) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on entropy words given column by column.

    entropy[j] is word j of every row's assembled entropy, a uint32 array
    of shape (rows,) or (1,) when all rows share it; there are at least
    _POOL_SIZE words.  Returns the four pool words, each of shape (rows,).
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return [np.broadcast_to(word, (rows,)) for word in pool]


def _words(ints: list[int]) -> list[np.ndarray]:
    """The four uint32 words of each root seed, least significant first:
    word j of every seed as one array."""
    return [np.array([(s >> (32 * j)) & _MASK32 for s in ints], dtype=np.uint32)
            for j in range(_POOL_SIZE)]


def _derived_states(seeds) -> list[tuple[int, int]]:
    """(state, inc) of derive_rng(s).bit_generator before its first draw,
    for each root seed s, with derive_rng's range check.

    Without a path SeedSequence reads a root of fewer than four words as
    if it were padded with zero words, so every root is mixed as four.
    """
    ints = [_check_root_seed(s) for s in seeds]
    if not ints:
        return []
    return _pcg64_seeded(_mixed_pool(_words(ints), len(ints)))


def _set_state(generator: np.random.Generator, state: tuple[int, int]) -> None:
    """Puts generator, a PCG64 Generator, at the (state, inc) pair of
    _derived_states, so that it draws what derive_rng(s) would."""
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _child_seeds(root_seed: int, count: int) -> np.ndarray:
    """child_seed(root_seed, i) for i in range(count), as uint64, with
    child_seed's range checks.

    With a path the root is padded to four words and the path element is
    the fifth; each seed is the first XSL-RR output of its PCG64 (the
    xor of the state's halves rotated right by its top six bits) shifted
    right by one.
    """
    root_seed = _check_root_seed(root_seed)
    if count > 2**32:
        raise ConfigError(f"seed path elements must lie in [0, 2**32), got {count - 1}")
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    path = np.arange(count, dtype=np.uint32)
    seeded = _pcg64_seeded(_mixed_pool(_words([root_seed]) + [path], count))
    out = []
    for state, inc in seeded:
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64) ^ (state & _MASK64)
        r = state >> 122
        out.append((((x >> r) | (x << (64 - r))) & _MASK64) >> 1)
    return np.array(out, dtype=np.uint64)
