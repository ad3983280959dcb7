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
as uint32 array arithmetic, except for the root's part of the mix,
which every child shares and which runs once on ints, and PCG64's
128-bit set-seed step and each child seed's XSL-RR output as uint64
arithmetic on the two 64-bit halves.  The tests hold it to derive_rng
and child_seed, which stay the public API.
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
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), its
# uint64 halves and the 32-bit limbs of its low half.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HIGH, _PCG_MULT_LOW = _PCG_MULT >> 64, _PCG_MULT & _MASK64
_MULT_LIMBS = (_PCG_MULT_LOW & _MASK32, _PCG_MULT_LOW >> 32)


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    """The constants of calls successive hashmix calls: call k xors
    with constants[k] and multiplies by constants[k + 1]."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# mix_entropy of five words makes 20 hashmix calls: four for the words
# that fill the pool, twelve for the cross mix, whose (src, dst) pairs
# are listed in call order, and the last four for the fifth word (a path
# element); generate_state(4, uint64) makes eight.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 20)
_CROSS_MIX = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE)
              if src != dst]
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


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


def _hashmix(value: np.ndarray, k: int, constants: list[int]) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 array as hash call k."""
    value = value ^ constants[k]
    value *= constants[k + 1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> 16
    return result


def _root_pool(root_seed: int) -> list[np.ndarray]:
    """mix_entropy's pool after the root's four words, on ints: the part
    of the pool mix that every child of the root shares.  Returns the
    pool words as uint32 arrays of shape (1,)."""
    constants = _MIX_CONSTANTS

    def hashmix(value: int, k: int) -> int:
        value = (value ^ constants[k]) * constants[k + 1] & _MASK32
        return value ^ value >> 16

    pool = [hashmix(root_seed >> 32 * j & _MASK32, j) for j in range(_POOL_SIZE)]
    for k, (src, dst) in enumerate(_CROSS_MIX, _POOL_SIZE):
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src], k)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    return [np.array([word], dtype=np.uint32) for word in pool]


def _mixed_pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """mix_entropy's pool of four uint32 entropy words given column by
    column: word j of every row, an array of shape (rows,) or (1,)."""
    pool = [_hashmix(word, j, _MIX_CONSTANTS) for j, word in enumerate(words)]
    for k, (src, dst) in enumerate(_CROSS_MIX, _POOL_SIZE):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, _MIX_CONSTANTS))
    return pool


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on (high, low) uint64 halves; the carry is the
    top bit of the halved low halves' sum."""
    carry = ((a[1] >> 1) + (b[1] >> 1) + (a[1] & b[1] & 1)) >> 63
    return a[0] + b[0] + carry, a[1] + b[1]


def _lcg_step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """state * _PCG_MULT + inc mod 2**128 on (high, low) uint64 halves.
    The high half of the low halves' product comes from 32-bit limbs,
    whose products fit in 64 bits."""
    high, low = state
    a0, a1 = low & _MASK32, low >> 32
    p00, p01, p10 = a0 * _MULT_LIMBS[0], a0 * _MULT_LIMBS[1], a1 * _MULT_LIMBS[0]
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * _MULT_LIMBS[1] + (p01 >> 32) + (p10 >> 32) + (middle >> 32)
    product = (carry + low * _PCG_MULT_HIGH + high * _PCG_MULT_LOW, low * _PCG_MULT_LOW)
    return _add128(product, inc)


def _pcg64_seeded(pool: list[np.ndarray]) -> tuple[tuple, tuple]:
    """(state, inc) of PCG64 seeded from each row of SeedSequence pools,
    as (high, low) uint64 halves; pool holds the four uint32 pool words,
    each an array over the rows.

    generate_state(4, uint64) hashes the words in turn into eight uint32
    words, read pairwise as little-endian uint64 values v0..v3; PCG64
    takes seed (v0 << 64 | v1) and stream (v2 << 64 | v3) and runs
    pcg_setseq_128_srandom_r: inc = stream << 1 | 1, then two LCG steps
    around adding the seed.
    """
    words = [_hashmix(pool[i % _POOL_SIZE], i, _STATE_CONSTANTS).astype(np.uint64)
             for i in range(2 * _POOL_SIZE)]
    seed_high, seed_low, stream_high, stream_low = (
        words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc = (stream_high << 1 | stream_low >> 63, stream_low << 1 | 1)
    return _lcg_step(_add128(inc, (seed_high, seed_low)), inc), inc


def _ints(halves: tuple) -> list[int]:
    """The 128-bit ints whose (high, low) uint64 halves are given."""
    return [high << 64 | low for high, low in zip(halves[0].tolist(), halves[1].tolist())]


def _child_states(root_seed: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of derive_rng(child_seed(root_seed, i)).bit_generator
    before its first draw, for i in range(count), with child_seed's range
    checks.

    With a path the root is padded to four words and the path element is
    the fifth, so the root's part of the pool mix is the same for every
    child and runs once.  Each child seed is the first XSL-RR output of
    its PCG64 (the xor of the state's halves rotated right by its top
    six bits) shifted right by one.  Without a path SeedSequence reads a
    root of fewer than four words as if padded with zero words, so each
    child seed, below 2**63, is mixed as its two low words and two zero
    words.
    """
    root_seed = _check_root_seed(root_seed)
    if count > 2**32:
        raise ConfigError(f"seed path elements must lie in [0, 2**32), got {count - 1}")
    if count <= 0:
        return []
    path = np.arange(count, dtype=np.uint32)
    pool = [_mix(word, _hashmix(path, _POOL_SIZE + len(_CROSS_MIX) + dst, _MIX_CONSTANTS))
            for dst, word in enumerate(_root_pool(root_seed))]
    state, inc = _pcg64_seeded(pool)
    high, low = _lcg_step(state, inc)
    x = high ^ low
    rotation = high >> 58
    seeds = (x >> rotation | x << (64 - rotation & 63)) >> 1
    zero = np.zeros(1, dtype=np.uint32)
    state, inc = _pcg64_seeded(_mixed_pool([
        (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]))
    return list(zip(_ints(state), _ints(inc)))


def _set_state(generator: np.random.Generator, state: tuple[int, int]) -> None:
    """Puts generator, a PCG64 Generator, at a (state, inc) pair such as
    _child_states gives, so that it draws what the stream from there would."""
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
