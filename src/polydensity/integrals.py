"""Archimedean densities: the oscillatory integral I(B; gamma), the
logarithmic integral Li_f, the log-moments J(k), and the (log P)^{-1}
expansion of Li_f.

All integrands live on the unscaled box; homogeneity of the top-degree form
(f_0(P t) = P^d f_0(t)) moves the scaling into the integrand, which keeps
the quadrature domain fixed and well conditioned for every P.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .intervals import certify_above, value_range
from .poly import Box, MultiPoly, PolynomialError
from .quadrature import QuadratureResult, integrate_box

#: absolute quadrature tolerance of I(B; gamma)
OSCILLATORY_TOL = 1e-9
#: absolute quadrature tolerance of Li_f(P*B); the unscaled box gets LI_TOL / P^n
LI_TOL = 1e-8
#: absolute quadrature tolerance of each log-moment J(k)
MOMENT_TOL = 1e-10


def _float_bounds(box: Box) -> list[tuple[float, float]]:
    return [(float(a), float(b)) for a, b in box.intervals]


def oscillatory_integral(f0: MultiPoly, box: Box, gamma: float) -> QuadratureResult:
    """I(B; gamma) = integral over B of e(gamma * f0(x)) dx.

    A form that splits over disjoint variable blocks,
    ``f0 = c + sum_j g_j(x_{A_j})`` (see ``MultiPoly.variable_blocks``),
    factorises on the box: ``I = e(gamma c) * prod_{free i} (b_i - a_i) *
    prod_j I_j`` with ``I_j`` the integral of ``e(gamma g_j)`` over the
    block's own axes.  Each of the ``m`` blocks is integrated to
    ``OSCILLATORY_TOL / (2 m V_j)``, where ``V_j`` is the volume of every
    other axis; blocks equal as polynomials on equal intervals are
    integrated once.  The reported error is the bound
    ``prod_{free i} (b_i - a_i) * sum_j e_j prod_{k != j} (|I_k| + e_k)`` on
    the error of the product.  The result has converged when every block
    did and that bound is at most ``OSCILLATORY_TOL``.  A form whose single
    block holds every variable is integrated over the whole box to
    ``OSCILLATORY_TOL``.  Each block may hold at most 4 variables.
    """
    if not f0.is_homogeneous():
        raise PolynomialError("oscillatory integral expects the top-degree form")
    constant, blocks = f0.variable_blocks()
    if any(len(variables) > 4 for variables, _ in blocks):
        raise PolynomialError("desk scale: at most 4 variables per block")
    if len(blocks) == 1 and len(blocks[0][0]) == f0.n_vars:
        return _phase_integral(f0, box, gamma, OSCILLATORY_TOL)
    widths = [b - a for a, b in _float_bounds(box)]
    volume = math.prod(widths)
    if volume == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    used = {i for variables, _ in blocks for i in variables}
    free_volume = math.prod(w for i, w in enumerate(widths) if i not in used)
    # equal blocks on equal intervals, such as x1^2 and x2^2 on [1, 2]^2,
    # share one integral
    distinct: dict[tuple[MultiPoly, Box], QuadratureResult] = {}
    parts = []
    for variables, g in blocks:
        block_box = Box(box.intervals[i] for i in variables)
        if (g, block_box) not in distinct:
            block_volume = math.prod(widths[i] for i in variables)
            tol = OSCILLATORY_TOL * block_volume / (2 * len(blocks) * volume)
            distinct[g, block_box] = _phase_integral(g, block_box, gamma, tol)
        parts.append(distinct[g, block_box])
    value = free_volume
    if constant:
        value *= complex(np.exp(2j * np.pi * gamma * constant))
    error = 0.0
    for j, part in enumerate(parts):
        value *= part.value
        error += part.abs_error_estimate * math.prod(
            abs(other.value) + other.abs_error_estimate
            for k, other in enumerate(parts)
            if k != j
        )
    error *= free_volume
    return QuadratureResult(
        value=value,
        abs_error_estimate=error,
        evaluations=sum(part.evaluations for part in distinct.values()),
        converged=all(part.converged for part in parts) and error <= OSCILLATORY_TOL,
    )


def _phase_integral(
    f0: MultiPoly, box: Box, gamma: float, tol: float
) -> QuadratureResult:
    """The integral of e(gamma * f0) over ``box`` to absolute ``tol``."""

    def integrand(grids):
        return np.exp(2j * np.pi * gamma * f0.evaluate_array(grids))

    lo, hi = value_range(f0, box)
    swing = abs(gamma) * float(hi - lo)
    n = f0.n_vars
    # resolve the phase: aim for <= ~2.5 cycles per cell along every axis,
    # capped so the initial grid stays affordable (the adaptive refinement
    # then works down any remainder)
    per_axis = max(1, math.ceil(swing / 2.5))
    cap = max(1, math.floor(40_000 ** (1.0 / n)))
    per_axis = min(per_axis, cap)
    return integrate_box(
        integrand,
        _float_bounds(box),
        tol,
        pre_subdivisions=per_axis,
        max_evaluations=20_000_000,
    )


def li_f(f: MultiPoly, box: Box, P: float) -> QuadratureResult:
    """Li_f(P*B) = integral over P*B of dx / log f0(x); see :func:`li_joint`."""
    if f.is_constant():
        raise PolynomialError("constant polynomial")
    return li_joint([f], box, P)


def li_joint(polys: Sequence[MultiPoly], box: Box, P: float) -> QuadratureResult:
    """Integral over P*B of dx / prod_i log f_{i0}(x) (joint prime mode).

    Requires every f_{i0}(P*B) within (1, infinity), certified by interval
    arithmetic against the exact rational value of ``P``.
    """
    tops = [f.top_degree_part() for f in polys]
    degs = [f.degree for f in polys]
    # f0(P t) = P^d f0(t) > 1 on B iff f0 > P^{-d} on B
    for f0, d in zip(tops, degs):
        certify_above(f0, box, threshold=1 / Fraction(P) ** d)
    log_p = math.log(P)
    n = polys[0].n_vars
    pn = float(P) ** n

    def integrand(grids):
        denom = 1.0
        for f0, d in zip(tops, degs):
            denom = denom * (d * log_p + np.log(f0.evaluate_array(grids)))
        return 1.0 / denom

    result = integrate_box(integrand, _float_bounds(box), LI_TOL / max(pn, 1.0))
    return QuadratureResult(
        value=result.value * pn,
        abs_error_estimate=result.abs_error_estimate * pn,
        evaluations=result.evaluations,
        converged=result.converged,
    )


def log_moment(f0: MultiPoly, box: Box, k: int) -> QuadratureResult:
    """J(k) = integral over B of (log f0(t))^k dt, for 0 <= k <= 40."""
    if k < 0 or k > 40:
        raise ValueError("k must be in [0, 40]")
    if k == 0:
        return QuadratureResult(float(box.volume), 0.0, 0)
    certify_above(f0, box, threshold=0)

    def integrand(grids):
        return np.log(f0.evaluate_array(grids)) ** k

    return integrate_box(integrand, _float_bounds(box), MOMENT_TOL)


def laurent_expansion(f: MultiPoly, box: Box, P: float, K: int) -> tuple[float, float]:
    """Truncated (log P)^{-1} expansion of Li_f(P*B) with K terms.

    Returns (value, bound) where bound covers both the dropped tail of the
    expansion and the quadrature error of the computed moments.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    log_p = math.log(P)
    if log_p <= 2:
        raise ValueError("requires log P > 2")
    vol = float(box.volume)
    if vol == 0.0:
        return 0.0, 0.0
    f0 = f.top_degree_part()
    d = f.degree
    pn = float(P) ** f.n_vars
    value = (vol / d) * pn / log_p
    moment_error = 0.0
    for k in range(2, K + 1):
        moment = log_moment(f0, box, k - 1)
        value += (
            pn * (-1) ** (k - 1) * moment.value / (d**k * log_p**k)
        )
        moment_error += pn * moment.abs_error_estimate / (d**k * log_p**k)
    lo, hi = value_range(f0, box)
    if lo <= 0:
        certify_above(f0, box, threshold=0)
        raise PolynomialError("could not bound f0 away from 0 on the box")
    log_sup = max(abs(math.log(float(lo))), abs(math.log(float(hi))))
    ratio = log_sup / (d * log_p)
    if ratio >= 0.5:
        raise ValueError(
            "P too small for the geometric tail bound (|log f0| / (d log P) >= 1/2)"
        )
    truncation = 2.0 * vol * log_sup**K * pn / (d ** (K + 1) * log_p ** (K + 1))
    return value, truncation + moment_error
