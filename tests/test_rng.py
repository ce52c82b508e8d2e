import numpy as np
import pytest

from voimc import RngStream


def test_same_coordinates_reproduce_bitwise():
    a = RngStream(123, (4, 5)).generator().random(64)
    b = RngStream(123, (4, 5)).generator().random(64)
    assert np.array_equal(a, b)


def test_child_path_accumulates():
    s = RngStream(9)
    assert s.child(1).path == (1,)
    assert s.child(1, 2).path == (1, 2)
    assert s.child(1).child(2) == s.child(1, 2)


def test_distinct_paths_differ():
    root = RngStream(7)
    a = root.child(0).generator().random(32)
    b = root.child(1).generator().random(32)
    c = root.child(0, 0).generator().random(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_distinct_streams_look_independent():
    # crude but effective: correlations across many sibling streams stay small
    root = RngStream(2024)
    draws = np.array([root.child(i).generator().random(512) for i in range(40)])
    centered = draws - draws.mean(axis=1, keepdims=True)
    corr = np.corrcoef(centered)
    off_diag = corr[~np.eye(40, dtype=bool)]
    assert np.abs(off_diag).max() < 0.2  # ~4.5 sigma for n=512


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(3, (-2,))


def test_generator_restarts_at_stream_origin():
    s = RngStream(11, (3,))
    first = s.generator().random(8)
    again = s.generator().random(8)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("seed", [1.5, 3.0, True, False, "3", None])
def test_bad_seed_rejected_when_built(seed):
    with pytest.raises(ValueError, match="seed"):
        RngStream(seed)


@pytest.mark.parametrize("path", [(1.0,), (True,), (0, "1"), (2, -1), (np.float64(2),)])
def test_bad_index_rejected_when_built(path):
    with pytest.raises(ValueError, match="stream index"):
        RngStream(3, path)
    with pytest.raises(ValueError, match="stream index"):
        RngStream(3).child(*path)


def test_numpy_integers_and_list_path_normalised():
    s = RngStream(np.int64(3), [np.int32(1), 2])
    assert s == RngStream(3, (1, 2))
    assert type(s.seed) is int
    assert s.path == (1, 2) and all(type(ix) is int for ix in s.path)
    assert s.child(4).path == (1, 2, 4)


def test_stream_is_sfc64_seeded_from_its_coordinates():
    bits = RngStream(123, (4, 5)).generator().bit_generator
    assert type(bits) is np.random.SFC64
    assert bits.seed_seq.entropy == 123
    assert bits.seed_seq.spawn_key == (4, 5)
