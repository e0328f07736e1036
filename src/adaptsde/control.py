"""Admissible timestep selection driven by the drift response.

The controller proposes

    raw = h_max * min( max( 1/||f_y||, ||y||/||f_y|| ), 1 )

which keeps ``h * ||f(y)||`` of the order ``h_max * max(1, ||y||)`` (a linear
growth bound in the state) while never exceeding ``h_max``.  A raw proposal
at or below ``h_min`` signals that the step-size floor is active: the
decision is then ``h_min`` with the backstop flag set, and the caller must
take one step of that length with a scheme that is strongly convergent on
its own.  Every other decision is the raw proposal itself, above ``h_min``,
so on an adaptive mesh the steps of exactly ``h_min`` (the final, truncated
step aside) are the backstop steps.  A zero drift response proposes
``h_max`` with no backstop.

:func:`propose_step` decides for one state, :func:`propose_steps` for a
stack of them, row by row; the two give the same bits.  Both take norms as
the square root of a dot product: a sum of squares rounds differently, and
a different norm changes the mesh.  :func:`propose_step` wraps
:func:`_decide`, the rule ``solve`` calls itself with the state's squared
norm it already has.

Both raise ``FloatingPointError`` on a NaN or infinite entry of the state or
the drift response.  Such an entry makes its squared norm non-finite, so the
entrywise test runs only then; a finite state whose squared norm overflows
passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MeshConfig

__all__ = ["StepDecision", "propose_step", "propose_steps"]


@dataclass(frozen=True)
class StepDecision:
    """Accepted step size and whether the backstop must take the step."""

    h: float
    use_backstop: bool


def propose_step(y: np.ndarray, f_y: np.ndarray, config: MeshConfig) -> StepDecision:
    """Propose the next step from state ``y`` and drift response ``f_y = f(y)``.

    ``f_y`` is passed in rather than recomputed so the controller never
    spends extra drift evaluations.  Raises on non-finite inputs, which
    indicate an upstream blow-up.
    """
    y = np.asarray(y, dtype=float)
    f_y = np.asarray(f_y, dtype=float)
    return StepDecision(*_decide(y, f_y, np.vdot(y, y), config))


def _decide(y: np.ndarray, f_y: np.ndarray, yy: float, config: MeshConfig) -> tuple[float, bool]:
    """:func:`propose_step`'s ``(h, use_backstop)`` for float arrays ``y`` and
    ``f_y``, given ``yy = np.vdot(y, y)``."""
    ff = np.vdot(f_y, f_y)
    if not (math.isfinite(ff) and math.isfinite(yy)) and not (
        np.isfinite(y).all() and np.isfinite(f_y).all()
    ):
        raise FloatingPointError("non-finite state or drift passed to step controller")
    if ff == 0.0:
        return config.h_max, False
    raw = config.h_max * min(max(1.0, math.sqrt(yy)) / math.sqrt(ff), 1.0)
    if raw <= config.h_min:
        return config.h_min, True
    return raw, False


def propose_steps(
    y: np.ndarray, f_y: np.ndarray, config: MeshConfig
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`propose_step` for each row of ``y`` and ``f_y``, shape (k, d).

    Returns the step sizes and the backstop mask, both of shape (k,), equal
    bit for bit to the row-by-row decisions.  Raises on non-finite inputs.
    """
    norm_f, norm_y = np.sqrt(np.vecdot(f_y, f_y)), np.sqrt(np.vecdot(y, y))
    if not np.isfinite(norm_f + norm_y).all() and not (
        np.isfinite(y).all() and np.isfinite(f_y).all()
    ):
        raise FloatingPointError("non-finite state or drift passed to step controller")
    with np.errstate(divide="ignore"):
        # A zero drift response divides to inf and so proposes h_max.
        raw = config.h_max * np.minimum(np.maximum(1.0, norm_y) / norm_f, 1.0)
    backstop = (raw <= config.h_min) & (norm_f != 0.0)
    return np.where(backstop, config.h_min, raw), backstop
