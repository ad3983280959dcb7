"""Deterministic random-number streams.

Every stochastic stage derives its generator from a root seed plus an
integer path, so results do not depend on evaluation order: point k of a
sweep always sees the stream ``derive_rng(child_seed(root_seed, k))`` no
matter how the points are scheduled.

Splitting rule: ``SeedSequence(entropy=root_seed, spawn_key=path)``.

derive_rng and child_seed build that SeedSequence one key at a time.
The acquisition core and the telegraph spectrum need one stream per
shot or chunk, so one private function gives all of them at once:
_child_states(root, count) is the raw PCG64 (state, inc) that
derive_rng(child_seed(root, i)) starts from, for every i < count, and
_set_state puts a Generator there.  It runs SeedSequence's pool mix and
generate_state (numpy's bit_generator.pyx, after O'Neill's seed_seq_fe)
as uint32 array arithmetic, and PCG64's 128-bit set-seed step and each
child seed's XSL-RR output on Python ints.  The tests hold it to
derive_rng and child_seed, which stay the public API.
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


def _child_states(root_seed: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of derive_rng(child_seed(root_seed, i)).bit_generator
    before its first draw, for i in range(count), with child_seed's range
    checks.

    With a path the root is padded to four words and the path element is
    the fifth; each child seed is the first XSL-RR output of its PCG64
    (the xor of the state's halves rotated right by its top six bits)
    shifted right by one.  Without a path SeedSequence reads a root of
    fewer than four words as if padded with zero words, so each child
    seed, below 2**63, is mixed as its two low words and two zero words.
    """
    root_seed = _check_root_seed(root_seed)
    if count > 2**32:
        raise ConfigError(f"seed path elements must lie in [0, 2**32), got {count - 1}")
    if count <= 0:
        return []
    words = [np.array([(root_seed >> (32 * j)) & _MASK32], dtype=np.uint32)
             for j in range(_POOL_SIZE)] + [np.arange(count, dtype=np.uint32)]
    seeds = []
    for state, inc in _pcg64_seeded(_mixed_pool(words, count)):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64) ^ (state & _MASK64)
        r = state >> 122
        seeds.append((((x >> r) | (x << (64 - r))) & _MASK64) >> 1)
    seeds = np.array(seeds, dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint32)
    words = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    return _pcg64_seeded(_mixed_pool(words, count))


def _set_state(generator: np.random.Generator, state: tuple[int, int]) -> None:
    """Puts generator, a PCG64 Generator, at a (state, inc) pair such as
    _child_states gives, so that it draws what the stream from there would."""
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
