import numpy as np

from hypcap.rng import CounterRNG, stream_key, uniform01, uniform_angle


def test_deterministic_per_key():
    a = uniform01(42, np.arange(1000), 7)
    b = uniform01(42, np.arange(1000), 7)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = uniform01(42, 0, np.arange(1000))
    b = uniform01(42, 1, np.arange(1000))
    assert not np.array_equal(a, b)
    c = uniform01(43, 0, np.arange(1000))
    assert not np.array_equal(a, c)


def test_range_and_mean():
    u = uniform01(1, np.arange(200_000), 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_angle_range():
    th = uniform_angle(stream_key(3, np.arange(10_000)), 2)
    assert th.min() >= 0.0 and th.max() < 2 * np.pi
    # first circular moment of uniform angles is near zero
    assert abs(np.exp(1j * th).mean()) < 0.03


def test_angle_from_key_matches_uniform01():
    # walks derive each stream key once and draw every step's angle from it
    streams = np.arange(5000, dtype=np.uint64)
    for counter in (0, 7, np.arange(5000, dtype=np.uint64), 1 << 63):
        th = uniform_angle(stream_key(11, streams), counter)
        want = uniform01(11, streams, counter) * (2.0 * np.pi)
        assert np.array_equal(th, want)


def test_counter_wrapper_sequence():
    r1 = CounterRNG(9, stream=4)
    r2 = CounterRNG(9, stream=4)
    seq1 = [r1.uniform() for _ in range(10)]
    seq2 = [r2.uniform() for _ in range(10)]
    assert seq1 == seq2
    assert len(set(seq1)) == 10


def test_counter_wrapper_randint_bounds():
    r = CounterRNG(5)
    vals = [r.randint(3, 12) for _ in range(500)]
    assert min(vals) >= 3 and max(vals) <= 12
    assert len(set(vals)) == 10
