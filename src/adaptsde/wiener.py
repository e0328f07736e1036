"""Refinable multi-dimensional Brownian paths with bridge insertion.

A :class:`WienerPath` lazily materializes point values of one Wiener process
realization.  Querying a time beyond the last known value draws a forward
Gaussian increment; querying between two known values draws from the Brownian
bridge conditioned on the flanking knots.  Either way the new value becomes a
permanent knot, so adaptive runs, reference refinements and fixed-step runs
that share the path all see one consistent realization.

Values depend on the order in which times are first queried (the bridge is
conditionally sampled), so callers that need reproducibility must query in a
canonical order.  The harness uses: adaptive run first, then reference
refinement, then fixed-grid queries, everything in ascending time.

Draw-order contract.  ``value_at_many`` and ``refine_uniform`` leave the
knots, bit for bit, and the generator state that ``value_at`` calls in
ascending time would: numpy fills arrays from the stream in row order, the
batched methods draw in ascending time order, and ``_bridge_rows`` does the
scalar bridge's arithmetic.  ``increment(t_a, t_b)`` leaves what
``value_at(t_a)`` then ``value_at(t_b)`` would; a forward step, from the
last knot to a later time, goes straight to ``_extend``.

Storage.  Knots sit in sorted buffers with amortized-constant appends.
``value_at_many`` classifies its times with one search, bridges new interior
times in vector passes by rank in their host interval (rank r is flanked by
the rank r - 1 value, rank 0 by existing knots), extends past the end and
merges once; ``_draw_many`` is that draw without the merge, for values read
once, and ``_draw_at`` is the draw itself, on any sorted knots and any
generator.  ``refine_uniform`` takes one ``value_at_many`` per level.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import require_integer

__all__ = ["WienerPath"]


def _bridge_rows(t, ta, tb, wa, wb, z, out=None, work=None) -> np.ndarray:
    """``WienerPath._bridge``'s arithmetic (IEEE + and * commute) at times ``t``
    of any shape, into ``out`` of shape ``t.shape + (m,)``; ``z`` and the
    ``(3,) + t.shape`` ``work`` are scratch."""
    after, span, sd = np.empty((3, *np.shape(t))) if work is None else work
    np.subtract(t, ta, out=after)
    np.subtract(tb, ta, out=span)
    np.subtract(tb, t, out=sd)
    sd *= after
    sd /= span
    after /= span
    out = np.subtract(wb, wa, out=out)
    out *= after[..., None]
    out += wa
    z *= np.sqrt(sd, out=sd)[..., None]
    out += z
    return out


def _draw_at(normals, kt: np.ndarray, kw: np.ndarray, ts: np.ndarray, host=None) -> tuple:
    """Values at the ascending times ``ts`` on knots ``kt`` with values
    ``kw``: ``(values, times, host rows, new-time mask)``.  A time on a knot
    takes its value (a repeated knot time has one value), one between knots
    is bridged by rank in its interval, one past the last knot extends the
    path.  ``normals(h, out)`` fills ``out`` with a row of m normals per new
    time with host row ``h``: a generator's gives ``value_at``'s draws and
    bits on each time in turn.  Where ``kt`` is sorted only piecewise, pass
    ``host``, ``np.searchsorted`` within each time's piece.  Times past the
    last knot draw their normals into ``values`` and are cumulated there,
    so a forward draw allocates no other array of its size."""
    n, out = len(kt), np.empty((len(ts), kw.shape[1]))
    host = np.searchsorted(kt, ts) if host is None else host
    known = kt[np.minimum(host, n - 1)] == ts
    out[known] = kw[host[known]]
    inner = np.flatnonzero(~known & (host < n))
    if len(inner):
        t, h = ts[inner], host[inner]
        # rank: new times before this one in its host interval
        rank = np.arange(len(h)) - np.searchsorted(h, h, side="left")
        z = np.empty((len(h), kw.shape[1]))
        normals(h, z)
        vals = np.empty_like(z)
        by_rank, ends = np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank)).tolist()
        for r, (lo, hi) in enumerate(zip([0] + ends, ends)):
            j = by_rank[lo:hi]
            ta, wa = (t[j - 1], vals[j - 1]) if r else (kt[h[j] - 1], kw[h[j] - 1])
            vals[j] = _bridge_rows(t[j], ta, kt[h[j]], wa, kw[h[j]], z[j])
        out[inner] = vals
    cut = len(ts) - np.count_nonzero(host == n)  # times past the last knot, a suffix
    if cut < len(ts):
        # Forward increments, cumulated from the last knot value so the
        # additions associate as in repeated single-step extension.
        steps = out[cut:]
        normals(host[cut:], steps)
        steps *= np.sqrt(np.diff(np.concatenate((kt[n - 1 :], ts[cut:]))))[:, None]
        steps[0] += kw[n - 1]
        np.cumsum(steps, axis=0, out=steps)
    return out, ts, host, ~known


class WienerPath:
    """One realization of an m-dimensional Wiener process, refinable on demand.

    Parameters
    ----------
    dim
        Number of independent components m, a positive integer.
    seed
        Seed for the per-path generator; any value accepted by
        ``numpy.random.default_rng``.
    """

    def __init__(self, dim: int, seed=None):
        require_integer("dim", dim)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.rng = np.random.default_rng(seed)
        # Sorted knot storage in preallocated buffers; row 0 is t=0 -> 0.
        self._cap = 64
        self._t = np.zeros(self._cap)
        self._w = np.zeros((self._cap, self.dim))
        self._n = 1

    # -- basic queries ----------------------------------------------------

    def _search(self, t: float) -> int:
        return int(np.searchsorted(self._t[: self._n], t, side="left"))

    def _knot_rows(self, ts: np.ndarray) -> np.ndarray:
        """Store rows of ``ts``, every one of which must be a knot."""
        rows = np.searchsorted(self._t[: self._n], ts, side="left")
        known = self._t[np.minimum(rows, self._n - 1)] == ts
        if not known.all():
            raise ValueError(f"time {ts[~known][0]} is not a knot of this path")
        return rows

    def value_at(self, t: float) -> np.ndarray:
        """Brownian value W(t), drawing and recording it if unknown.

        Returns a copy; knot values are immutable once created.
        """
        t = float(t)
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be finite and nonnegative, got {t}")
        idx = self._search(t)
        if idx < self._n and self._t[idx] == t:
            return self._w[idx].copy()
        if idx == self._n:
            val = self._extend(t)
        else:
            val = self._bridge(idx, t)
        return val.copy()

    def increment(self, t_a: float, t_b: float) -> np.ndarray:
        """W(t_b) - W(t_a) for 0 <= t_a <= t_b.

        A forward step from the last knot skips :meth:`value_at`'s searches.
        """
        if t_a > t_b:
            raise ValueError(f"need t_a <= t_b, got {t_a} > {t_b}")
        last = self._n - 1
        if t_a == self._t[last] and t_a < t_b < math.inf:
            wa = self._w[last]  # the view keeps its values if the store grows
            return self._extend(t_b) - wa
        wa = self.value_at(t_a)
        wb = self.value_at(t_b)
        return wb - wa

    # -- storage helpers ----------------------------------------------------

    def _grow_to(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = max(need, 2 * self._cap)
        t = np.empty(cap)
        w = np.empty((cap, self.dim))
        t[: self._n] = self._t[: self._n]
        w[: self._n] = self._w[: self._n]
        self._t, self._w, self._cap = t, w, cap

    def _append_block(self, ts: np.ndarray, ws: np.ndarray) -> None:
        k = len(ts)
        self._grow_to(self._n + k)
        self._t[self._n : self._n + k] = ts
        self._w[self._n : self._n + k] = ws
        self._n += k

    def _insert_block(self, idx: np.ndarray, ts: np.ndarray, ws: np.ndarray) -> None:
        """Merge new knots before positions ``idx`` of the current storage."""
        self._t = np.insert(self._t[: self._n], idx, ts)
        self._w = np.insert(self._w[: self._n], idx, ws, axis=0)
        self._n = len(self._t)
        self._cap = self._n

    # -- internal draw helpers --------------------------------------------

    def _extend(self, t: float) -> np.ndarray:
        """Draw W(t) past the last knot, a forward increment N(0, (t-t_L) I),
        and append it in place."""
        n = self._n
        val = self.rng.standard_normal(self.dim)
        if n == self._cap:
            self._grow_to(n + 1)
        val *= math.sqrt(t - self._t[n - 1])
        val += self._w[n - 1]
        self._t[n] = t
        self._w[n] = val
        self._n = n + 1
        return val

    def _bridge(self, idx: int, t: float) -> np.ndarray:
        """Draw W(t) between knots idx-1 and idx from the Brownian bridge."""
        ta, tb = self._t[idx - 1], self._t[idx]
        wa, wb = self._w[idx - 1], self._w[idx]
        alpha = (t - ta) / (tb - ta)
        var = (t - ta) * (tb - t) / (tb - ta)
        z = self.rng.standard_normal(self.dim)
        val = wa + alpha * (wb - wa) + math.sqrt(var) * z
        self._insert_block(np.array([idx]), np.array([t]), val[None, :])
        return val

    # -- batched queries ---------------------------------------------------

    def value_at_many(self, ts: Sequence[float]) -> np.ndarray:
        """Values at strictly ascending times, shape ``(len(ts), m)``: the
        knots and generator state of ``value_at`` on each time in turn."""
        out, ts, host, new = self._draw_many(ts)
        self._merge(host[new], ts[new], out[new])
        return out

    def _draw_many(self, ts: Sequence[float]) -> tuple:
        """``value_at_many``'s draw without its merge: ``(values, times, host
        rows, new-time mask)``.  The generator advances as in
        ``value_at_many``, so the path must not be queried again where the
        unmerged values would have been knots."""
        ts = np.asarray(ts, dtype=float)
        if len(ts) and not (ts[0] >= 0.0 and ts[-1] < math.inf):
            raise ValueError("times must be finite and nonnegative")
        if not (ts[1:] > ts[:-1]).all():
            raise ValueError("times must be strictly ascending")
        normals = lambda new, out: self.rng.standard_normal(out=out)
        return _draw_at(normals, self._t[: self._n], self._w[: self._n], ts)

    def _merge(self, host: np.ndarray, ts: np.ndarray, ws: np.ndarray) -> None:
        """Record new knots before their ascending store rows ``host``; those
        past the last knot append."""
        cut = int(np.searchsorted(host, self._n))
        if cut:
            self._insert_block(host[:cut], ts[:cut], ws[:cut])
        if cut < len(host):
            self._append_block(ts[cut:], ws[cut:])

    def refine_uniform(self, times: Sequence[float], levels: int = 1) -> np.ndarray:
        """Bisect every interval of the ascending knot ``times`` ``levels`` times.

        The times must be knots, as a solve's ``mesh_times()`` are.
        Midpoints are drawn level by level, left to right, the canonical
        order; one that is already a knot is kept without a draw.  Returns
        the fine grid, ``(len(times) - 1) * 2**levels + 1`` times.
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        grid = np.asarray(times, dtype=float)
        if not len(grid):
            raise ValueError("times must hold at least one knot")
        self._knot_rows(grid)
        stride = 1 << levels
        fine = np.empty((len(grid) - 1) * stride + 1)
        fine[::stride] = grid
        for s in [stride >> i for i in range(levels)]:
            mid = np.add(fine[:-1:s], fine[s::s], out=fine[s // 2 :: s])
            mid *= 0.5
            self.value_at_many(np.unique(mid))
        return fine

    def values_on_grid(self, ts: Sequence[float]) -> np.ndarray:
        """Knot values at ``ts`` without drawing; a run of consecutive knots,
        such as a grid just refined, comes back as a read-only view."""
        ts = np.asarray(ts, dtype=float)
        lo = self._search(ts[0]) if len(ts) else 0
        if np.array_equal(self._t[lo : min(lo + len(ts), self._n)], ts):
            view = self._w[lo : lo + len(ts)]
            view.flags.writeable = False
            return view
        return self._w[self._knot_rows(ts)]
