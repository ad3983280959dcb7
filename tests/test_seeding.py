"""Random-number streams derived from a root seed and an integer path."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdmsim import ConfigError, child_seed
from fdmsim.seeding import _child_states, _set_state, derive_rng

roots = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 2**128 - 1))
paths = st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple)


def test_integral_float_roots_are_their_integer():
    assert child_seed(3.0, 1) == child_seed(3, 1)
    assert child_seed(np.uint64(2**63), 1) == child_seed(2**63, 1)


def test_same_path_same_stream():
    a = derive_rng(11, 2, 5).standard_normal(64)
    b = derive_rng(11, 2, 5).standard_normal(64)
    np.testing.assert_array_equal(a, b)
    assert child_seed(11, 2, 5) == child_seed(11, 2, 5)


# derandomize: the same examples on every run, so the suite stays
# deterministic.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(root_a=roots, path_a=paths, root_b=roots, path_b=paths)
def test_distinct_paths_give_distinct_uncorrelated_streams(root_a, path_a, root_b, path_b):
    assume((root_a, path_a) != (root_b, path_b))
    n = 4096
    a = derive_rng(root_a, *path_a).standard_normal(n)
    b = derive_rng(root_b, *path_b).standard_normal(n)
    assert not np.any(a == b)
    assert child_seed(root_a, *path_a) != child_seed(root_b, *path_b)
    # independent streams: the sample correlation is N(0, 1/n); 5 sigma
    assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(n)


@pytest.mark.parametrize(
    "key",
    [(-1,), (2**128,), (1, -2), (3, 2**32), (5, 0, 2**40),
     # a fractional, NaN or infinite root would run as some other seed
     (1.5,), (math.nan,), (math.inf,), (2.5, 1),
     # so would such a path element, or a bool in either place
     (3, 1.5), (3, math.nan), (3, math.inf), (True,), (np.True_,), (3, True)],
)
def test_out_of_range_keys_are_rejected(key):
    # (3, 2**32) would read the same words as (3, 0, 1)
    with pytest.raises(ConfigError):
        derive_rng(*key)
    with pytest.raises(ConfigError):
        child_seed(*key)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(root=roots, path=paths)
@example(root=0, path=())
@example(root=2**128 - 1, path=(2**32 - 1, 0, 2**32 - 1))
def test_child_seed_is_the_first_integer_of_the_derived_stream(root, path):
    # The construction child_seed replaces: a whole Generator for one draw.
    expected = int(derive_rng(root, *path).integers(2**63))
    assert child_seed(root, *path) == expected
    assert 0 <= expected < 2**63


def stream_state(rng: np.random.Generator) -> tuple[int, int]:
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


# The root's word boundaries, up to the largest root.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(root=roots, count=st.integers(1, 40))
@example(root=0, count=1)
@example(root=2**32 - 1, count=2)
@example(root=2**32, count=2)
@example(root=2**64 - 1, count=2)
@example(root=2**64, count=2)
@example(root=2**128 - 1, count=3)
def test_vectorized_streams_equal_child_seed_and_derive_rng(root, count):
    expected = [stream_state(derive_rng(child_seed(root, i))) for i in range(count)]
    assert _child_states(root, count) == expected


def test_set_state_moves_one_generator_from_stream_to_stream():
    generator = np.random.Generator(np.random.PCG64(0))
    for i, state in enumerate(_child_states(2**64 + 5, 4)):
        _set_state(generator, state)
        expected = derive_rng(child_seed(2**64 + 5, i))
        # An odd count of 32-bit draws leaves half a 64-bit output
        # buffered, which the next stream must not see.
        for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda g: g.standard_normal(5)):
            np.testing.assert_array_equal(draw(generator), draw(expected))


@pytest.mark.parametrize("seeds", [[-1], [2**128, 2**129], [np.int64(-2), -2**64],
                                   [0.5, 7.25, math.nan]])
def test_derived_states_reject_out_of_range_roots(seeds):
    for root in seeds:
        with pytest.raises(ConfigError, match="root seed"):
            _child_states(root, 3)


def test_child_states_reject_out_of_range_counts():
    # Checked before anything is allocated: path elements end at 2**32 - 1.
    with pytest.raises(ConfigError, match="path"):
        _child_states(0, 2**32 + 1)
    assert _child_states(0, 0) == []
