import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design,
    LevelPartition,
    RngStream,
    SliceSizes,
    level_midpoints,
    levels_from_values,
)


@pytest.mark.parametrize("n", [1, 2, 7, 17, 400])
def test_level_midpoints_roundtrip(n):
    levels = np.arange(1, n + 1)
    mids = level_midpoints(levels, n)
    assert np.all(mids > 0) and np.all(mids < 1)
    assert np.all(np.diff(mids) > 0)
    # Midpoint of bin a classifies back into bin a, and rounds back to a.
    assert np.array_equal(np.ceil(mids * n).astype(int), levels)
    assert np.array_equal(levels_from_values(mids, n), levels)


def test_slice_sizes_basics():
    s = SliceSizes((2, 5, 10))
    assert s.t == 3
    assert s.n == 17
    assert s.offsets() == (0, 2, 7, 17)


def test_slice_sizes_rejects_bad_input():
    with pytest.raises(ValueError):
        SliceSizes(())
    with pytest.raises(ValueError):
        SliceSizes((3, 0))
    with pytest.raises(ValueError):
        SliceSizes((3, -1))


@pytest.mark.parametrize("sizes", [(3.7, 3), (3.0, 3), (True, 3), ("3", 3), (None,)])
def test_slice_sizes_rejects_non_integers(sizes):
    with pytest.raises(ValueError, match="slice sizes must be integers"):
        SliceSizes(sizes)


def test_slice_sizes_accept_numpy_integers():
    s = SliceSizes((np.int64(3), np.int32(4), 5))
    assert s.sizes == (3, 4, 5)
    assert all(type(v) is int for v in s.sizes)
    for sizes in ([3, 4, 5], np.array([3, 4, 5]), np.array([3, 4, 5], dtype=np.uint8)):
        s = SliceSizes(sizes)
        assert s.sizes == (3, 4, 5)
        assert all(type(v) is int for v in s.sizes)


@pytest.mark.parametrize(
    "sizes",
    [5, np.int64(5), {3: 1, 4: 2}, {3, 4}, (s for s in (3, 4)), np.array([[3, 4]]), "34"],
    ids=["int", "numpy-int", "dict", "set", "generator", "2-D-array", "str"],
)
def test_slice_sizes_rejects_other_containers(sizes):
    # A dict would give its keys and a set or an iterator its own order; an
    # int is not iterable at all. Each is an error naming the slice sizes.
    with pytest.raises(ValueError, match=r"^slice sizes must be a tuple, a list or a 1-D integer array, got "):
        SliceSizes(sizes)


def test_level_partition_validates_cover():
    sizes = SliceSizes((2, 3))
    LevelPartition(((4, 1), (2, 3, 5)), sizes)  # ok, any order in
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (3, 4)), sizes)  # cardinality mismatch
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (2, 3, 4)), sizes)  # duplicate level
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (3, 4, 6)), sizes)  # not a cover of 1..5


def test_level_partition_sorts_groups():
    part = LevelPartition(((4, 1), (5, 2, 3)), SliceSizes((2, 3)))
    assert part.groups == ((1, 4), (2, 3, 5))
    assert np.allclose(part.group_midpoints(0), [1 / 10, 7 / 10])


def test_design_shape_checks():
    sizes = SliceSizes((2, 3))
    with pytest.raises(ValueError):
        Design(np.zeros((4, 2)), sizes)  # 4 rows, sizes imply 5
    with pytest.raises(ValueError):
        Design(np.zeros(5), sizes)  # not 2-D
    d = Design(np.arange(10, dtype=float).reshape(5, 2) / 10.0, sizes)
    assert d.n == 5 and d.p == 2
    assert d.slice_offsets == (0, 2, 5)


def test_design_rejects_sizes_that_are_not_slice_sizes():
    with pytest.raises(ValueError, match=r"^sizes must be a SliceSizes, got \(2,\)"):
        Design(np.zeros((2, 1)), sizes=(2,))


def test_rng_stream_is_pure_and_splits():
    s = RngStream(42)
    a = s.split(1, 2).generator().random(4)
    b = s.split(1, 2).generator().random(4)
    assert np.array_equal(a, b)
    # split is associative over components
    assert s.split(1).split(2) == s.split(1, 2)
    # sibling paths give different draws
    c = s.split(1, 3).generator().random(4)
    assert not np.array_equal(a, c)
    # parent and child differ too
    d = s.split(1).generator().random(4)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        s.split(-1)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None])
def test_rng_stream_rejects_non_integer_seeds(seed):
    with pytest.raises(ValueError, match="^stream seed must be an integer"):
        RngStream(seed)


@pytest.mark.parametrize("path", [(2.7,), (1, 2.0), (True,), ("3",)])
def test_rng_stream_rejects_non_integer_path_components(path):
    with pytest.raises(ValueError, match="^stream path component must be an integer"):
        RngStream(1, path)
    with pytest.raises(ValueError, match="^stream path component must be an integer"):
        RngStream(1).split(*path)


def test_rng_stream_rejects_negative_seed_at_construction():
    with pytest.raises(ValueError, match="^stream seed must be nonnegative"):
        RngStream(-1)


def test_rng_stream_accepts_numpy_integers():
    s = RngStream(np.int64(3), (np.uint8(2),)).split(np.int32(5))
    assert s == RngStream(3, (2, 5))
    assert type(s.seed) is int and all(type(c) is int for c in s.path)


def test_rng_stream_distinct_seeds_differ():
    a = RngStream(1).split(0).generator().random(8)
    b = RngStream(2).split(0).generator().random(8)
    assert not np.array_equal(a, b)


_words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1),  # one word
        st.integers(2**32, 2**128 - 1),  # two to four words
        st.integers(2**128, 2**130),  # more words than the pool holds
    ),
    path=st.lists(_words, max_size=2),
    head=st.lists(_words, max_size=3),
    tail=st.lists(_words, max_size=3),
    first=st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
    count=st.integers(1, 600),
)
@example(seed=7, path=[], head=[3], tail=[1], first=2**32 - 5, count=600)
def test_batched_keys_match_seed_sequence(seed, path, head, tail, first, count):
    # Each yielded generator's Philox holds exactly the state numpy's own
    # SeedSequence + Philox path gives: the key bit for bit, counter 0 and
    # an empty buffer. The range may start anywhere and end at 2**32.
    base = RngStream(seed, tuple(path))
    replicates = range(first, min(first + count, 2**32))
    for r, gen in zip(replicates, base.generators(tuple(head), replicates, tuple(tail))):
        spawn_key = tuple(path) + tuple(head) + (r,) + tuple(tail)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
        got = gen.bit_generator.state
        want = np.random.Philox(seq).state
        assert np.array_equal(got["state"]["key"], seq.generate_state(2, np.uint64))
        assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
        assert np.array_equal(got["buffer"], want["buffer"])
        assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
            want[k] for k in ("buffer_pos", "has_uint32", "uinteger")
        ]
    assert r == replicates[-1]


_DRAWS = {
    "permutation-int": lambda gen: gen.permutation(23),
    "permutation-array": lambda gen: gen.permutation(level_midpoints(np.arange(1, 12), 11)),
    "random": lambda gen: gen.random(5),
    "integers": lambda gen: gen.integers(4, size=3),
}


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize("role", [0, 1, 2])
def test_batched_generators_draw_as_per_replicate_generators(draw, role):
    # Streams are counter-based, so a range keyed on its own, wherever it
    # starts, draws what each of its streams draws alone.
    seed, code, fn = 20240817_000123, 3, _DRAWS[draw]
    for replicates in (range(300), range(137, 300), range(299, 300), range(150, 150)):
        batched = [fn(gen) for gen in RngStream(seed).generators((code,), replicates, (role,))]
        assert len(batched) == len(replicates)
        for r, got in zip(replicates, batched):
            want = fn(RngStream(seed).split(code, r, role).generator())
            assert np.array_equal(got, want)


def test_batched_generators_yield_nothing_for_zero_count():
    for replicates in (range(0), range(7, 7), range(9, 3), range(2**32, 2**32)):
        assert list(RngStream(5).generators((1,), replicates, (2,))) == []


@pytest.mark.parametrize(
    "head, count, tail, message",
    [
        ((2.7,), 3, (), "^stream path component must be an integer"),
        ((1,), 3, (True,), "^stream path component must be an integer"),
        ((-1,), 3, (), "^stream path components must be nonnegative"),
        ((1,), 3, (-2,), "^stream path components must be nonnegative"),
    ],
)
def test_batched_generators_reject_loose_inputs(head, count, tail, message):
    # Rejected when called, with the messages RngStream itself uses.
    with pytest.raises(ValueError, match=message):
        RngStream(1).generators(head, range(count), tail)


@pytest.mark.parametrize(
    "replicates",
    [
        pytest.param(3, id="int"),
        pytest.param(2.0, id="float"),
        pytest.param(True, id="bool"),
        pytest.param([0, 1, 2], id="list"),
        pytest.param(range(0, 6, 2), id="step-2"),
        pytest.param(range(-1, 3), id="negative-start"),
        pytest.param(range(0, 2**32 + 1), id="stop-past-2**32"),
    ],
)
def test_batched_generators_reject_a_bad_replicate_range(replicates):
    # Only a range of step 1 within [0, 2**32] names replicate streams;
    # anything else is rejected when called, naming the argument.
    message = r"^replicates must be a range of step 1 within \[0, 2\*\*32\], got "
    with pytest.raises(ValueError, match=message + re.escape(repr(replicates)) + "$"):
        RngStream(1).generators((1,), replicates, (2,))
