"""Tests for the refinable Brownian path.

Distributional checks run at moderate sample counts with 4-sigma bands, so
they are deterministic in practice for the pinned seeds.  The draw-order
contract (batched queries consume the generator exactly like single queries)
is pinned bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsde.core import mesh_times
from adaptsde.wiener import WienerPath


def uniform_knots(n, T=1.0):
    """Knot times of n equal steps, accumulated as a solve accumulates them."""
    return mesh_times(np.full(n, T / n))


def knots_drawn(path):
    """How many knots the path has drawn: each new knot takes ``dim`` normals
    from the path's generator, so replaying its seed sequence counts them."""
    rng = np.random.default_rng(path.rng.bit_generator.seed_seq)
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


def midpoint_loop(path, grid, levels):
    """Refine ``grid`` the slow way: one ``value_at`` per midpoint, level by
    level, left to right.  Returns the fine grid."""
    g = np.asarray(grid, dtype=float)
    for _ in range(levels):
        mids = 0.5 * (g[:-1] + g[1:])
        for t in mids:
            path.value_at(t)
        nxt = np.empty(2 * len(g) - 1)
        nxt[0::2], nxt[1::2] = g, mids
        g = nxt
    return g


def assert_same_paths(p1, p2, knots):
    """Both paths hold exactly ``knots``, with the same values bit for bit,
    and their generators are in the same state."""
    knots = np.unique(knots)
    assert_knots(p1, knots)
    assert_knots(p2, knots)
    assert p1.values_on_grid(knots).tobytes() == p2.values_on_grid(knots).tobytes()
    assert p1.rng.bit_generator.state == p2.rng.bit_generator.state


def test_dim_validation():
    with pytest.raises(ValueError):
        WienerPath(0, seed=1)
    # A float or bool is no component count: 2.5 used to give dim 2, True dim 1.
    for dim in (2.5, True):
        with pytest.raises(ValueError, match=rf"^dim must be an integer, got {dim!r}$"):
            WienerPath(dim, seed=1)
    assert WienerPath(np.int64(2), seed=1).dim == 2


def test_negative_time_rejected():
    p = WienerPath(1, seed=1)
    with pytest.raises(ValueError):
        p.value_at(-0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected_and_path_unharmed(t):
    p, q = WienerPath(1, seed=0), WienerPath(1, seed=0)
    with pytest.raises(ValueError):
        p.value_at(t)
    with pytest.raises(ValueError):
        p.increment(0.0, t)
    np.testing.assert_array_equal(p.value_at(0.5), q.value_at(0.5))
    assert np.isfinite(p.value_at(0.25)).all()


@pytest.mark.parametrize(
    "ts", [[0.25, math.inf], [0.25, math.nan, 0.5], [math.nan], [0.25, 0.5, math.nan], [-math.inf, 1.0]]
)
def test_value_at_many_rejects_non_finite_times(ts):
    p, q = WienerPath(2, seed=3), WienerPath(2, seed=3)
    with pytest.raises(ValueError):
        p.value_at_many(ts)
    assert_same_paths(p, q, [0.0])
    np.testing.assert_array_equal(p.value_at_many([0.5, 1.0]), q.value_at_many([0.5, 1.0]))


def test_refine_rejects_empty_and_non_finite_grids():
    p = WienerPath(1, seed=8)
    p.value_at(1.0)
    with pytest.raises(ValueError):
        p.refine_uniform([])
    with pytest.raises(ValueError, match="not a knot"):
        p.refine_uniform([0.0, math.nan, 1.0])
    with pytest.raises(ValueError, match="not a knot"):
        p.refine_uniform([0.0, 1.0, math.inf])
    with pytest.raises(ValueError, match="not a knot"):
        p.values_on_grid([0.0, math.nan])
    assert_knots(p, [0.0, 1.0])


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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    knots=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6, unique=True),
    queries=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12, unique=True),
)
def test_draw_many_is_value_at_many_without_the_merge(m, seed, knots, queries):
    # Known, bridged and forward times alike: the draw returns the bytes
    # value_at_many returns, advances the generator as it does and leaves
    # the store as it was.
    p1, p2 = WienerPath(m, seed=seed), WienerPath(m, seed=seed)
    for p in (p1, p2):
        p.value_at_many(sorted(knots))
    qs = np.array(sorted(queries))
    n, t, w = p2._n, p2._t[: p2._n].tobytes(), p2._w[: p2._n].tobytes()
    want = p1.value_at_many(qs)
    got = p2._draw_many(qs)[0]
    assert got.tobytes() == want.tobytes()
    assert p2.rng.bit_generator.state == p1.rng.bit_generator.state
    assert (p2._n, p2._t[:n].tobytes(), p2._w[:n].tobytes()) == (n, t, w)


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


def test_refined_grid_values_are_a_read_only_view():
    p = WienerPath(2, seed=5)
    p.value_at_many(np.linspace(0, 1, 5)[1:])
    fine = p.refine_uniform(uniform_knots(4), levels=2)
    vals = p.values_on_grid(fine)
    before = vals.tobytes()
    with pytest.raises(ValueError):
        vals[0] = 1.0
    p.value_at_many(np.linspace(0.01, 1.5, 7))  # bridges and extends
    assert vals.tobytes() == before
    assert p.values_on_grid(fine).tobytes() == before


def test_refine_midpoints_that_round_onto_knots():
    """Knots one ulp apart: some midpoints round onto a knot and are kept
    without a draw, exactly as the per-midpoint loop keeps them."""
    ts = np.concatenate(([0.0], 1.0 + np.spacing(1.0) * np.arange(6), [1.5]))
    p1, p2 = WienerPath(2, seed=41), WienerPath(2, seed=41)
    p1.value_at_many(ts[1:])
    p2.value_at_many(ts[1:])
    fine = p1.refine_uniform(ts, levels=3)
    want = midpoint_loop(p2, ts, 3)
    assert fine.tobytes() == want.tobytes()
    assert len(np.unique(fine)) < len(fine)
    assert_same_paths(p1, p2, fine)


# Times on a 1/1024 lattice, knots on a 1/8 one: many new times share a host
# interval (ranks >= 1), some hit existing knots, some lie past the end.
lattice = st.integers(1, 3 * 1024).map(lambda i: i / 1024)
coarse = st.integers(1, 16).map(lambda i: i / 8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    first=st.lists(coarse, max_size=8),
    queries=st.lists(lattice | coarse, max_size=40),
)
def test_value_at_many_is_sequential_value_at(m, seed, first, queries):
    p1, p2 = WienerPath(m, seed), WienerPath(m, seed)
    for t in first:  # in query order, so bridges among the knots too
        p1.value_at(t)
        p2.value_at(t)
    qs = np.unique(queries)
    got = p1.value_at_many(qs)
    want = np.array([p2.value_at(t) for t in qs]).reshape(len(qs), m)
    assert got.tobytes() == want.tobytes()
    assert_same_paths(p1, p2, np.concatenate(([0.0], first, qs)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=10),
    levels=st.integers(1, 3),
    again=st.integers(0, 2),
    data=st.data(),
)
def test_refine_is_the_midpoint_loop(m, seed, steps, levels, again, data):
    """On every knot of the path (strided fill), on a contiguous run of
    knots, on any subset of them, and refined a second time."""
    knots = mesh_times(np.array(steps))
    p1, p2 = WienerPath(m, seed), WienerPath(m, seed)
    p1.value_at_many(knots[1:])
    p2.value_at_many(knots[1:])
    pick = data.draw(st.sampled_from(["all", "run", "subset"]))
    grid = knots
    if pick == "run":
        lo = data.draw(st.integers(0, len(knots) - 1))
        grid = knots[lo : data.draw(st.integers(lo + 1, len(knots)))]
    elif pick == "subset":
        keep = data.draw(st.lists(st.booleans(), min_size=len(knots), max_size=len(knots)))
        grid = knots[np.array(keep)] if any(keep) else knots[:1]
    fine = p1.refine_uniform(grid, levels)
    want = midpoint_loop(p2, grid, levels)
    assert fine.tobytes() == want.tobytes()
    drawn = [knots, fine]
    if again:
        fine = p1.refine_uniform(grid, levels + again)
        want = midpoint_loop(p2, grid, levels + again)
        assert fine.tobytes() == want.tobytes()
        drawn.append(fine)
    assert_same_paths(p1, p2, np.concatenate(drawn))
    assert p1.values_on_grid(fine).tobytes() == p2.values_on_grid(fine).tobytes()


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    warm=st.sampled_from([0, 1, 62, 63, 64, 126, 127]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["forward", "forward", "same", "back", "bridge"]),
            st.floats(1e-4, 0.1),
            st.integers(0, 2**16),
        ),
        max_size=60,
    ),
)
def test_increment_is_a_value_at_pair(m, seed, warm, ops):
    """Forward steps across the store's growth points, zero-length and
    backward-starting increments, and bridge queries in between leave the
    knots, values, returned increments and generator state of the
    ``value_at(t_a)``, ``value_at(t_b)`` pairs."""
    p1, p2 = WienerPath(m, seed), WienerPath(m, seed)
    knots = [0.0]
    steps = [("forward", 1 / 128, 0)] * warm + ops
    for kind, dt, pick in steps:
        if kind == "bridge":
            t = knots[-1] * pick / 2**16
            assert p1.value_at(t).tobytes() == p2.value_at(t).tobytes()
            knots = sorted(set(knots) | {t})
            continue
        if kind == "forward":
            t_a = knots[-1]
        elif kind == "same":
            t_a = knots[pick % len(knots)]
        else:  # a knot before the last, once there is one
            t_a = knots[pick % max(1, len(knots) - 1)]
        t_b = t_a if kind == "same" else t_a + dt
        got = p1.increment(t_a, t_b)
        wa = p2.value_at(t_a)
        want = p2.value_at(t_b) - wa
        assert got.shape == (m,) and got.tobytes() == want.tobytes()
        got[:] = np.nan  # the increment is the caller's own array
        knots = sorted(set(knots) | {t_a, t_b})
    assert_same_paths(p1, p2, knots)
