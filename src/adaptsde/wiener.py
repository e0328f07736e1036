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

Batched queries (``value_at_many``, ``refine_uniform``) draw several normals
with one generator call.  numpy's Generator fills arrays from the stream in
row order, so a batch of k draws consumes the stream exactly like k single
draws; the batched methods therefore produce bit-identical knots to the
equivalent sequence of ``value_at`` calls.  A unit test pins that property.

Knots are held in flat numpy buffers with amortized-constant appends, so
marching a path forward, bisecting every interval of a mesh, and gathering
values on a large grid all run at array speed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["WienerPath"]


class WienerPath:
    """One realization of an m-dimensional Wiener process, refinable on demand.

    Parameters
    ----------
    dim
        Number of independent components m.
    seed
        Seed for the per-path generator; any value accepted by
        ``numpy.random.default_rng``.
    """

    def __init__(self, dim: int, seed=None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # Sorted knot storage in preallocated buffers; row 0 is t=0 -> 0.
        self._cap = 64
        self._t = np.zeros(self._cap)
        self._w = np.zeros((self._cap, self.dim))
        self._n = 1

    # -- basic queries ----------------------------------------------------

    def _search(self, t: float) -> int:
        return int(np.searchsorted(self._t[: self._n], t, side="left"))

    def value_at(self, t: float) -> np.ndarray:
        """Brownian value W(t), drawing and recording it if unknown.

        Returns a copy; knot values are immutable once created.
        """
        t = float(t)
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        idx = self._search(t)
        if idx < self._n and self._t[idx] == t:
            return self._w[idx].copy()
        if idx == self._n:
            val = self._extend(t)
        else:
            val = self._bridge(idx, t)
        return val.copy()

    def increment(self, t_a: float, t_b: float) -> np.ndarray:
        """W(t_b) - W(t_a) for 0 <= t_a <= t_b."""
        if t_a > t_b:
            raise ValueError(f"need t_a <= t_b, got {t_a} > {t_b}")
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
        """Draw W(t) past the last knot: forward increment N(0, (t-t_L) I)."""
        dt = t - self._t[self._n - 1]
        z = self.rng.standard_normal(self.dim)
        val = self._w[self._n - 1] + math.sqrt(dt) * z
        self._append_block(np.array([t]), val[None, :])
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

    def _bridge_batch(self, host_idx: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Bridge-draw several times at once, one per distinct host interval.

        ``host_idx[j]`` is the index of the right flanking knot of ``ts[j]``
        (all intervals distinct, so the draws are conditionally independent).
        Consumes the stream exactly like sequential ``value_at`` calls in
        list order, then rebuilds the knot storage once.
        """
        ts = np.asarray(ts, dtype=float)
        host_idx = np.asarray(host_idx)
        ta = self._t[host_idx - 1]
        tb = self._t[host_idx]
        wa = self._w[host_idx - 1]
        wb = self._w[host_idx]
        alpha = (ts - ta) / (tb - ta)
        var = (ts - ta) * (tb - ts) / (tb - ta)
        z = self.rng.standard_normal((len(ts), self.dim))
        new_vals = wa + alpha[:, None] * (wb - wa) + np.sqrt(var)[:, None] * z
        self._insert_block(host_idx, ts, new_vals)
        return new_vals

    def _extend_batch(self, ts: Sequence[float]) -> np.ndarray:
        """Forward-draw several ascending times past the last knot at once."""
        ts = np.asarray(ts, dtype=float)
        dts = np.diff(np.concatenate(([self._t[self._n - 1]], ts)))
        z = self.rng.standard_normal((len(ts), self.dim))
        steps = np.sqrt(dts)[:, None] * z
        # Cumulate starting from the last knot value so the float additions
        # associate exactly as in repeated single-step extension.
        vals = np.cumsum(np.vstack([self._w[self._n - 1], steps]), axis=0)[1:]
        self._append_block(ts, vals)
        return vals

    # -- batched queries ---------------------------------------------------

    def value_at_many(self, ts: Iterable[float]) -> np.ndarray:
        """Values at an ascending sequence of times, shape ``(len(ts), m)``.

        Draw order is ascending, identical to calling ``value_at`` on each
        time in turn, and the results are bit-identical to doing so.  Existing
        knots are returned without consuming randomness.
        """
        ts = [float(t) for t in ts]
        if any(t < 0 for t in ts):
            raise ValueError("times must be nonnegative")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly ascending")
        n = len(ts)
        out = np.empty((n, self.dim))
        pending: list[tuple[int, float, int]] = []  # (output slot, time, host idx)

        def flush_pending():
            if not pending:
                return
            vals = self._bridge_batch(
                np.array([p[2] for p in pending]), np.array([p[1] for p in pending])
            )
            for (slot, _, _), v in zip(pending, vals):
                out[slot] = v
            pending.clear()

        j = 0
        while j < n:
            t = ts[j]
            idx = self._search(t)
            if idx < self._n and self._t[idx] == t:
                out[j] = self._w[idx]
                j += 1
                continue
            if idx == self._n:
                # Everything from here on extends the path; one cumsum batch.
                flush_pending()
                out[j:] = self._extend_batch(ts[j:])
                break
            # Interior insertion. Batch only if this host interval holds no
            # other pending or upcoming new time; otherwise draws within the
            # interval are sequentially dependent.
            next_in_same = j + 1 < n and ts[j + 1] < self._t[idx]
            prev_in_same = bool(pending) and pending[-1][2] == idx
            if next_in_same or prev_in_same:
                flush_pending()
                out[j] = self.value_at(t)
            else:
                pending.append((j, t, idx))
            j += 1
        flush_pending()
        return out

    def refine_uniform(self, times: Sequence[float], levels: int = 1) -> np.ndarray:
        """Bisect every interval of the ascending knot ``times`` ``levels`` times.

        The times must already be knots of the path (a solve's
        ``mesh_times()`` are, after the solve).  Midpoints are inserted level
        by level, left to right, which is the canonical refinement order.
        Returns the fine time grid, ``(len(times) - 1) * 2**levels + 1`` knots.
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        grid = np.asarray(times, dtype=float)
        pos = np.searchsorted(self._t[: self._n], grid, side="left")
        known = (pos < self._n) & (self._t[np.minimum(pos, self._n - 1)] == grid)
        if not known.all():
            bad = grid[~known][0]
            raise ValueError(f"time {bad} is not a knot of this path")
        for _ in range(levels):
            mids = 0.5 * (grid[:-1] + grid[1:])
            self._insert_midpoints(mids)
            fine = np.empty(2 * len(grid) - 1)
            fine[0::2] = grid
            fine[1::2] = mids
            grid = fine
        return grid

    def _insert_midpoints(self, mids: np.ndarray) -> None:
        """Insert ascending interior times whose host intervals are distinct.

        Times that already exist as knots are skipped without consuming
        randomness (can happen when a mesh is refined twice).
        """
        times = self._t[: self._n]
        idx = np.searchsorted(times, mids, side="left")
        fresh = (idx == self._n) | (times[np.minimum(idx, self._n - 1)] != mids)
        mids, idx = mids[fresh], idx[fresh]
        if len(mids) == 0:
            return
        interior = idx < self._n
        self._bridge_batch(idx[interior], mids[interior])
        tail = mids[~interior]
        if len(tail):
            self._extend_batch(tail)

    def values_on_grid(self, ts: Sequence[float]) -> np.ndarray:
        """Gather existing knot values without drawing; error on missing times."""
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self._t[: self._n], ts, side="left")
        ok = (idx < self._n) & (self._t[np.minimum(idx, self._n - 1)] == ts)
        if not ok.all():
            bad = float(ts[~ok][0])
            raise ValueError(f"time {bad} is not a knot of this path")
        return self._w[idx].copy()
