"""Adaptive tensor-product quadrature over boxes of a few dimensions.

Each cell carries two Gauss-Legendre estimates (orders 7 and 11 per axis);
their difference is the error estimate.  Cells are arrays ``lo, hi`` of
shape ``(cells, n)``, refined in rounds: each round bisects along its widest
axis every cell of the smallest largest-error-first prefix whose errors
cover the excess over the tolerance.  A round's cells take one integrand
call per rule and chunk of at most ``poly.RESIDUE_CHUNK`` points.
Integrands are vectorised callables over broadcastable coordinate arrays
with a leading cell axis, and may be complex-valued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import poly
from .counting import BudgetExceededError

_LOW_ORDER = 7
_HIGH_ORDER = 11


@dataclass
class QuadratureResult:
    value: float | complex
    abs_error_estimate: float
    evaluations: int
    converged: bool = True


_X_LOW, _W_LOW = np.polynomial.legendre.leggauss(_LOW_ORDER)
_X_HIGH, _W_HIGH = np.polynomial.legendre.leggauss(_HIGH_ORDER)


def _tensor_rule(func, lo, hi, x, w) -> np.ndarray:
    """The tensor rule (x, w) on each cell [lo[i], hi[i]], one integrand
    call per chunk of at most ``poly.RESIDUE_CHUNK`` points."""
    m, n = lo.shape
    k = len(x)
    step = max(1, poly.RESIDUE_CHUNK // k**n)
    out = np.empty(m, dtype=complex)
    for s in range(0, m, step):
        a, b = lo[s : s + step], hi[s : s + step]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        grids, weight = [], 1.0
        for i in range(n):
            shape = (-1,) + (1,) * i + (k,) + (1,) * (n - 1 - i)
            grids.append((mid[:, i, None] + half[:, i, None] * x).reshape(shape))
            weight = weight * (half[:, i, None] * w).reshape(shape)
        vals = func(grids) * weight
        out[s : s + step] = np.sum(vals.reshape(len(a), -1), axis=1)
    return out


def _estimates(func, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(high-order estimate, error estimate) of each cell."""
    low = _tensor_rule(func, lo, hi, _X_LOW, _W_LOW)
    high = _tensor_rule(func, lo, hi, _X_HIGH, _W_HIGH)
    return high, np.abs(high - low)


def integrate_box(
    func: Callable[[Sequence[np.ndarray]], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    tol: float,
    pre_subdivisions: int = 1,
    max_evaluations: int = 4_000_000,
) -> QuadratureResult:
    """Integrate a vectorised integrand over a box to absolute tolerance,
    from ``pre_subdivisions`` cells per axis, or the most that fit in
    ``max_evaluations``.  One cell past ``max_evaluations`` raises
    BudgetExceededError; the last round may pass it by two cells at most."""
    n = len(bounds)
    per_cell = _LOW_ORDER**n + _HIGH_ORDER**n
    if per_cell > max_evaluations:
        raise BudgetExceededError(
            f"{per_cell} evaluations per cell exceed budget {max_evaluations}"
        )
    k = max(1, int(pre_subdivisions))
    while k**n * per_cell > max_evaluations:
        k -= 1
    edges = np.array([np.linspace(float(a), float(b), k + 1) for a, b in bounds])
    index = np.indices((k,) * n).reshape(n, -1).T
    axes = np.arange(n)
    lo, hi = edges[axes, index], edges[axes, index + 1]

    high, err = _estimates(func, lo, hi)
    evaluations = len(lo) * per_cell
    error = float(err.sum())
    while error > tol and evaluations < max_evaluations:
        order = np.argsort(-err, kind="stable")
        cover = np.cumsum(err[order])
        count = min(
            len(order),
            int(np.searchsorted(cover, error - tol)) + 1,
            -(-(max_evaluations - evaluations) // (2 * per_cell)),
        )
        split, kept = order[:count], order[count:]
        a, b = lo[split], hi[split]
        rows, axis = np.arange(count), np.argmax(b - a, axis=1)
        child_lo, child_hi = np.concatenate([a, a]), np.concatenate([b, b])
        mid = (a[rows, axis] + b[rows, axis]) / 2.0
        child_hi[rows, axis] = child_lo[rows + count, axis] = mid
        child_high, child_err = _estimates(func, child_lo, child_hi)
        evaluations += len(child_lo) * per_cell
        lo = np.concatenate([lo[kept], child_lo])
        hi = np.concatenate([hi[kept], child_hi])
        high = np.concatenate([high[kept], child_high])
        err = np.concatenate([err[kept], child_err])
        error = float(err.sum())

    value = complex(high.sum())
    if value.imag == 0:
        value = value.real
    return QuadratureResult(
        value=value,
        abs_error_estimate=error,
        evaluations=evaluations,
        converged=error <= tol,
    )
