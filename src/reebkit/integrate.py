"""Adaptive Dormand-Prince 4(5) integrator with a post-step projection hook.

The numeric Reeb flow, the cross-check of the closed form, relies on the
projection hook to renormalize to the unit sphere after every accepted step;
the linearized flow needs no integrator, as it is the closed form itself.
scipy's solvers do not expose a per-step hook, so the stepper is implemented
here; tests cross-check it against ``scipy.integrate.solve_ivp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationFailure

# The most steps any integration or page-crossing scan may take; work beyond
# it is refused rather than run for unbounded time.
_MAX_STEPS = 50_000

# Dormand-Prince 4(5) tableau (same pair as scipy's RK45).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass
class IntegrationResult:
    t_end: float
    y_end: np.ndarray
    n_steps: int
    n_fev: int


def _rms_error(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def dopri45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: Sequence[float],
    t1: float,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_step: float = np.inf,
) -> IntegrationResult:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t1`` (either direction).

    ``project`` is applied to the state after every accepted step; the state
    at the end time is reported.  A span that needs more than ``_MAX_STEPS``
    steps of at most ``max_step`` is refused up front, and the integration
    stops after ``_MAX_STEPS`` accepted steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return IntegrationResult(t0, y, 0, 0)
    if span / max_step > _MAX_STEPS:
        raise IntegrationFailure(
            f"integration over {span:g} needs more than {_MAX_STEPS} steps of at most {max_step:g}"
        )

    h = direction * min(span / 16.0, max_step, 0.1)
    k = np.empty((7, y.size))
    n_steps = 0
    n_fev = 0
    t_final = float(t1)

    while direction * (t_final - t) > 1e-15 * max(1.0, abs(t)):
        if n_steps == _MAX_STEPS:
            raise IntegrationFailure(f"integration needs more than {_MAX_STEPS} steps")
        h = direction * min(abs(h), max_step, abs(t_final - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise IntegrationFailure(f"step size underflow at t={t!r}")

        k[0] = rhs(t, y)
        for i in range(1, 7):
            yi = y + h * (_A[i] @ k[:i])
            k[i] = rhs(t + _C[i] * h, yi)
        n_fev += 7
        y5 = y + h * (_B5 @ k)
        y4 = y + h * (_B4 @ k)
        err = _rms_error(y5 - y4, y, y5, rtol, atol)

        if err <= 1.0:
            t = t + h
            y = y5
            if project is not None:
                y = project(y)
            n_steps += 1
        factor = 0.9 * (max(err, 1e-16)) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))

    return IntegrationResult(t, y, n_steps, n_fev)
