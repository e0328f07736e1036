"""Tests for the refinable Brownian path.

Distributional checks run at moderate sample counts with 4-sigma bands, so
they are deterministic in practice for the pinned seeds.  The draw-order
contract (batched queries consume the generator exactly like single queries)
is pinned bit for bit.
"""

import math

import numpy as np
import pytest

from adaptsde.core import mesh_times
from adaptsde.wiener import WienerPath


def uniform_knots(n, T=1.0):
    """Knot times of n equal steps, accumulated as a solve accumulates them."""
    return mesh_times(np.full(n, T / n))


def knots_drawn(path):
    """How many knots the path has drawn: each new knot takes ``dim`` normals
    from the path's generator, so replaying its seed counts them."""
    rng = np.random.default_rng(path.seed)
    for n in range(10_000):
        if rng.bit_generator.state == path.rng.bit_generator.state:
            return n
        rng.standard_normal(path.dim)
    raise AssertionError("the generator state is not a replay of the seed")


def assert_knots(path, times):
    """The path's knots are exactly ``times``, which include 0: every one of
    them is a knot, and the path drew no others."""
    path.values_on_grid(times)
    assert knots_drawn(path) == len(times) - 1


def test_starts_pinned_at_zero():
    p = WienerPath(2, seed=0)
    assert_knots(p, [0.0])
    np.testing.assert_array_equal(p.value_at(0.0), np.zeros(2))
    assert_knots(p, [0.0])


def test_dim_validation():
    with pytest.raises(ValueError):
        WienerPath(0, seed=1)


def test_negative_time_rejected():
    p = WienerPath(1, seed=1)
    with pytest.raises(ValueError):
        p.value_at(-0.5)


def test_value_is_reproducible_and_immutable():
    p = WienerPath(3, seed=42)
    v1 = p.value_at(1.3)
    v1_again = p.value_at(1.3)
    np.testing.assert_array_equal(v1, v1_again)
    v1_again[:] = 99.0  # returned arrays are copies
    np.testing.assert_array_equal(p.value_at(1.3), v1)


def test_same_seed_same_path():
    a = WienerPath(2, seed=7)
    b = WienerPath(2, seed=7)
    ts = [0.3, 0.9, 0.6, 2.0, 1.7]
    for t in ts:
        np.testing.assert_array_equal(a.value_at(t), b.value_at(t))
    assert_knots(a, [0.0, *sorted(ts)])
    assert_knots(b, [0.0, *sorted(ts)])


def test_different_seeds_differ():
    a = WienerPath(1, seed=1).value_at(1.0)
    b = WienerPath(1, seed=2).value_at(1.0)
    assert a != b


def test_increment_and_ordering():
    p = WienerPath(1, seed=5)
    w1 = p.value_at(1.0)
    inc = p.increment(1.0, 2.5)
    np.testing.assert_array_equal(p.value_at(2.5), w1 + inc)
    with pytest.raises(ValueError):
        p.increment(2.0, 1.0)


def test_bridge_preserves_existing_knots():
    p = WienerPath(2, seed=9)
    w2 = p.value_at(2.0)
    w1 = p.value_at(1.0)  # bridge insertion between 0 and 2
    np.testing.assert_array_equal(p.value_at(2.0), w2)
    # the interior knot lies strictly between its neighbours in time
    assert_knots(p, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(p.values_on_grid([0.0, 1.0, 2.0]), [np.zeros(2), w1, w2])
    assert np.all(np.isfinite(w1))


class TestDrawOrderContract:
    """Batched methods must consume the stream exactly like single queries."""

    def test_value_at_many_bitwise_equals_sequential(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            seed = int(rng.integers(0, 2**31))
            p1, p2 = WienerPath(m, seed), WienerPath(m, seed)
            first = np.sort(rng.uniform(0, 2, size=4))
            for t in first:
                np.testing.assert_array_equal(p1.value_at(t), p2.value_at(t))
            qs = np.unique(np.round(rng.uniform(0, 3, size=15), 5))
            got = p1.value_at_many(qs)
            want = np.stack([p2.value_at(t) for t in qs])
            np.testing.assert_array_equal(got, want)
            knots = np.unique(np.concatenate(([0.0], first, qs)))
            assert_knots(p1, knots)
            assert_knots(p2, knots)

    def test_refine_bitwise_equals_midpoint_loop(self):
        knots = uniform_knots(5)
        grid0 = np.linspace(0, 1, 6)
        p1, p2 = WienerPath(2, seed=77), WienerPath(2, seed=77)
        for t in grid0[1:]:
            p1.value_at(t)
            p2.value_at(t)
        fine = p1.refine_uniform(knots, levels=3)
        g = grid0.copy()
        for _ in range(3):
            mids = 0.5 * (g[:-1] + g[1:])
            for t in mids:  # level by level, left to right
                p2.value_at(t)
            nxt = np.empty(2 * len(g) - 1)
            nxt[0::2], nxt[1::2] = g, mids
            g = nxt
        assert_knots(p1, fine)
        assert_knots(p2, fine)
        np.testing.assert_array_equal(p1.values_on_grid(fine), p2.values_on_grid(fine))

    def test_extension_batch_matches_loop(self):
        p1, p2 = WienerPath(1, seed=3), WienerPath(1, seed=3)
        ts = [0.5, 1.25, 1.5, 3.0]
        got = p1.value_at_many(ts)
        want = np.stack([p2.value_at(t) for t in ts])
        np.testing.assert_array_equal(got, want)


def test_value_at_many_validates_input():
    p = WienerPath(1, seed=0)
    with pytest.raises(ValueError):
        p.value_at_many([0.5, 0.5])
    with pytest.raises(ValueError):
        p.value_at_many([0.9, 0.3])
    with pytest.raises(ValueError):
        p.value_at_many([-1.0, 0.5])


def test_value_at_many_mixed_known_and_new():
    p = WienerPath(2, seed=21)
    known = p.value_at(1.0)
    out = p.value_at_many([0.5, 1.0, 1.5])
    np.testing.assert_array_equal(out[1], known)
    assert out.shape == (3, 2)


def test_refine_counts_and_spacings():
    p = WienerPath(1, seed=13)
    knots = uniform_knots(16)
    p.value_at_many(np.linspace(0, 1, 17)[1:])
    fine = p.refine_uniform(knots, levels=2)
    assert len(fine) == 16 * 4 + 1
    assert_knots(p, fine)
    np.testing.assert_allclose(np.diff(fine), 1 / 64, rtol=1e-12)

    p2 = WienerPath(1, seed=13)
    knots2 = uniform_knots(4)
    p2.value_at_many(np.linspace(0, 1, 5)[1:])
    fine2 = p2.refine_uniform(knots2, levels=2)
    assert len(fine2) == 17


def test_refine_requires_existing_knots():
    p = WienerPath(1, seed=2)
    with pytest.raises(ValueError, match="not a knot"):
        p.refine_uniform(uniform_knots(4), levels=1)


def test_refine_twice_skips_existing_midpoints():
    p = WienerPath(1, seed=6)
    knots = uniform_knots(4)
    p.value_at_many(np.linspace(0, 1, 5)[1:])
    p.refine_uniform(knots, levels=1)
    n = knots_drawn(p)
    vals_before = p.values_on_grid(np.linspace(0, 1, 9))
    fine = p.refine_uniform(knots, levels=2)  # first level already present
    assert len(fine) == 17
    assert_knots(p, fine)
    assert n == 8
    np.testing.assert_array_equal(p.values_on_grid(np.linspace(0, 1, 9)), vals_before)


def test_values_on_grid_gathers_without_drawing():
    p = WienerPath(2, seed=4)
    ts = [0.25, 0.5, 1.0]
    want = np.stack([p.value_at(t) for t in ts])
    n = knots_drawn(p)
    got = p.values_on_grid(ts)
    np.testing.assert_array_equal(got, want)
    assert knots_drawn(p) == n
    with pytest.raises(ValueError, match="not a knot"):
        p.values_on_grid([0.3])


class TestDistribution:
    def test_increment_variance_scales_linearly(self):
        n = 20000
        p = WienerPath(1, seed=100)
        vals = p.value_at_many(0.25 * np.arange(1, n + 1))
        incs = np.diff(vals[:, 0], prepend=0.0)
        band = 4 * math.sqrt(2.0 / n)
        assert abs(incs.var() / 0.25 - 1.0) <= band
        assert abs(incs.mean() / math.sqrt(0.25)) <= 4 / math.sqrt(n)

    def test_bridge_midpoint_mean_and_variance(self):
        n = 20000
        p = WienerPath(1, seed=200)
        knots = p.value_at_many(np.arange(1.0, n + 2))
        mids = p.value_at_many(np.arange(1.0, n + 1) + 0.5)
        left = knots[:-1, 0]
        right = knots[1:, 0]
        # standardized midpoint residuals should be N(0, 1)
        z = (mids[:, 0] - 0.5 * (left + right)) / 0.5
        assert abs(z.mean()) <= 4 / math.sqrt(len(z))
        assert abs(z.var() - 1.0) <= 4 * math.sqrt(2.0 / len(z))

    def test_half_increments_uncorrelated(self):
        n = 20000
        p = WienerPath(1, seed=300)
        knots = p.value_at_many(np.arange(1.0, n + 1))
        mids = p.value_at_many(np.arange(0.0, n - 1) + 0.5)
        w = np.concatenate(([0.0], knots[:, 0]))
        first = mids[:, 0] - w[: n - 1]
        second = w[1:n] - mids[:, 0]
        prod = first * second
        # each half has variance 1/2; the product has std 1/2 under independence
        assert abs(prod.mean()) <= 4 * 0.5 / math.sqrt(len(prod))


def test_multidimensional_components_independent():
    p = WienerPath(3, seed=17)
    n = 5000
    vals = p.value_at_many(np.arange(1.0, n + 1))
    incs = np.diff(vals, axis=0, prepend=np.zeros((1, 3)))
    c = np.corrcoef(incs.T)
    off = c[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 4 / math.sqrt(n))


def test_dump_replay_byte_identical():
    def build():
        q = WienerPath(2, seed=99)
        q.value_at_many([0.2, 0.7, 1.9])
        fine = q.refine_uniform([0.0, 0.2, 0.7, 1.9], levels=2)
        assert_knots(q, fine)
        return fine, q.values_on_grid(fine)

    (t1, w1), (t2, w2) = build(), build()
    assert t1.tobytes() == t2.tobytes()
    assert w1.tobytes() == w2.tobytes()
