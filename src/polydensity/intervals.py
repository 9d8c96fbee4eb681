"""Exact interval arithmetic and one best-first bisection over boxes.

Endpoints are Fractions, so every enclosure is rigorous without any
rounding-mode machinery, and the enclosure of a one-point box is the exact
value of f there.  A single Moore–Skelboe bisection (``_bisect``) keeps the
boxes in a heap keyed by the lower end of their enclosure and always splits
the lowest one.  It serves both callers: ``certify_above`` certifies box
positivity of the top-degree form (a hypothesis of the density theorems),
and ``value_range`` bounds the range of f, running the same loop on f and
on -f.  Every run makes at most ``BISECTION_BUDGET`` boxes.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .poly import Box, MultiPoly

#: the most boxes one bisection makes; each costs two interval evaluations
BISECTION_BUDGET = 20000


class PositivityError(ValueError):
    """The required sign condition provably fails on the box."""


class CertificationError(RuntimeError):
    """Bisection budget exhausted before the condition could be certified."""


def _interval_pow(a: Fraction, b: Fraction, e: int) -> tuple[Fraction, Fraction]:
    if e == 0:
        return Fraction(1), Fraction(1)
    if e % 2 == 1 or a >= 0:
        return a**e, b**e
    if b <= 0:
        return b**e, a**e
    return Fraction(0), max(a**e, b**e)


def interval_eval(f: MultiPoly, intervals) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of f over the product of the given intervals."""
    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for exps, coeff in f.terms.items():
        lo, hi = Fraction(1), Fraction(1)
        for (a, b), e in zip(intervals, exps):
            pl, ph = _interval_pow(Fraction(a), Fraction(b), e)
            candidates = (lo * pl, lo * ph, hi * pl, hi * ph)
            lo, hi = min(candidates), max(candidates)
        if coeff >= 0:
            lo_total += coeff * lo
            hi_total += coeff * hi
        else:
            lo_total += coeff * hi
            hi_total += coeff * lo
    return lo_total, hi_total


def _split(intervals) -> tuple[list, list]:
    widths = [b - a for a, b in intervals]
    axis = widths.index(max(widths))
    a, b = intervals[axis]
    mid = (a + b) / 2
    left = list(intervals)
    right = list(intervals)
    left[axis] = (a, mid)
    right[axis] = (mid, b)
    return left, right


def _bisect(f: MultiPoly, box: Box):
    """Best-first bisection towards the minimum of f on the box.

    After the root and after every split, yields ``(bound, sample)`` with
    ``bound <= min f(box) <= sample``: bound is the lowest enclosure in the
    heap, sample the lowest exact value of f at the midpoint of a box made
    so far.  Of boxes with equal bounds the one made last is split first,
    so a bound attained along a whole face is refined depth-first rather
    than box by box across the face.  Ends when the next split would
    exceed ``BISECTION_BUDGET``.
    """
    heap: list = []
    sample = None
    made = 0
    boxes = [box.intervals]
    while made + len(boxes) <= BISECTION_BUDGET:
        for intervals in boxes:
            lo, _ = interval_eval(f, intervals)
            mid, _ = interval_eval(f, [((a + b) / 2,) * 2 for a, b in intervals])
            sample = mid if sample is None else min(sample, mid)
            heapq.heappush(heap, (lo, -made, intervals))
            made += 1
        yield heap[0][0], sample
        boxes = _split(heapq.heappop(heap)[2])


def certify_above(f: MultiPoly, box: Box, threshold=0) -> bool:
    """Certify f > threshold everywhere on the box by best-first bisection.

    Raises PositivityError if f is <= threshold at a box midpoint, and
    CertificationError if the bisection budget runs out first.
    """
    threshold = Fraction(threshold)
    for bound, sample in _bisect(f, box):
        if sample <= threshold:
            raise PositivityError(f"f = {sample} <= {threshold} at a box midpoint")
        if bound > threshold:
            return True
    raise CertificationError("bisection budget exhausted; condition not certified")


def _lower_bound(f: MultiPoly, box: Box, tol: Fraction) -> Fraction:
    for bound, sample in _bisect(f, box):
        if sample - bound <= tol:
            break
    return bound


def value_range(f: MultiPoly, box: Box) -> tuple[Fraction, Fraction]:
    """Outer bounds (lo, hi) with lo <= min f(box) and hi >= max f(box).

    Each bound comes from the best-first bisection (of f for lo, of -f for
    hi), which stops once an exact midpoint value lies within 1/256 of the
    root enclosure's spread (at least 1) of the bound.  If the budget runs
    out first, the bound reached so far is returned; it is still sound.
    """
    lo, hi = interval_eval(f, box.intervals)
    tol = max(hi - lo, 1) / 256
    return _lower_bound(f, box, tol), -_lower_bound(-f, box, tol)
