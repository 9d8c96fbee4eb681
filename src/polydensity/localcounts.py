"""Point counts modulo p and p^2 and the non-archimedean Euler products.

Counting is exact and exhaustive, vectorised with numpy.  Counts modulo p
come from the residue histogram of f: a form split over disjoint sets of
variables is swept block by block and the block histograms are convolved
(the factorisation of Birch and Davenport), so x1^2 + ... + x4^2 costs
four sweeps of p residues, not one of p^4.  Counts modulo p^2 lift the
roots modulo p (a solution modulo p^2 must reduce to one modulo p): a
smooth root has p^(n-1) lifts by Hensel, and the fiber above a singular
root, a common zero of f and its gradient, is all roots or none, since
f(r + p t) = f(r) mod p^2 there.  So only f(r) mod p^2 at the singular
roots is evaluated.  Every sweep runs on the chunked grid
``poly.grid_chunks``, so its memory stays within ``poly.RESIDUE_CHUNK``
points whatever q and n are.

Euler factors are exact rationals; partial products are accumulated as
exact rationals as well, so there is no drift over thousands of factors.
The tail is an empirical estimate, not a bound: the decay exponent comes from
the convergence analysis and the constant is fitted on the last computed
factors.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .counting import BudgetExceededError, is_prime, primes_upto
from .poly import MultiPoly, PolynomialError, common_zeros, grid_chunks


def residue_histogram(f: MultiPoly, q: int, budget: int = 10**8) -> np.ndarray:
    """#{x in (Z/qZ)^n : f(x) = c mod q} for c = 0..q-1, exact int64.

    ``f`` is split into parts in disjoint variable blocks,
    ``f = c + sum_j g_j(x_{A_j})``; each block is swept over its own
    ``q^{|A_j|}`` residues and the block histograms are folded together by
    cyclic convolution mod ``q``.  A variable in no monomial multiplies
    every count by ``q``.  The budget is checked against the full ``q^n``,
    as for a sweep of the whole grid.
    """
    n = f.n_vars
    if q**n > budget:
        raise BudgetExceededError(f"{q}^{n} exceeds budget {budget}")
    if q**n >= 2**63:
        raise BudgetExceededError(f"{q}^{n} residue counts overflow int64")
    constant, blocks = f.variable_blocks()
    hist = None
    for variables, g in blocks:
        block = np.zeros(q, dtype=np.int64)
        for _, coords in grid_chunks([range(q)] * len(variables)):
            block += np.bincount(
                g.evaluate_array(coords, modulus=q).ravel(), minlength=q
            )
        if hist is None:
            hist = block
        else:
            wrapped = np.convolve(hist, block)
            hist = wrapped[:q]
            hist[: q - 1] += wrapped[q:]
    if hist is None:  # f is a constant
        hist = np.zeros(q, dtype=np.int64)
        hist[0] = 1
    free = n - sum(len(variables) for variables, _ in blocks)
    return np.roll(hist, constant % q) * q**free


def count_zeros_mod(f: MultiPoly, modulus: int, budget: int = 10**8) -> int:
    """Exact #{x in (Z/modulus Z)^n : f(x) = 0} for modulus p or p^2."""
    p, k = _prime_power_shape(modulus)
    n_p = int(residue_histogram(f, p, budget)[0])
    if k == 1 or n_p == 0:
        return n_p
    # modulus = p^2: a root r mod p where some partial derivative is a unit
    # has p^(n-1) lifts r + p*t (Hensel).  Where the whole gradient vanishes,
    # Taylor's formula gives f(r + p*t) = f(r) mod p^2 for every t, so all
    # p^n lifts are roots or none is.  f(r) is evaluated exactly: an int64
    # square of a residue mod p^2 overflows once p > 55108.
    grad = [g for g in f.gradient() if g is not None]
    singular = lifted = 0
    for points in common_zeros([f, *grad], p):
        values = f.evaluate_array([c.astype(object) for c in points])
        singular += len(values)
        lifted += int(np.count_nonzero(values % modulus == 0))
    n = f.n_vars
    return (n_p - singular) * p ** (n - 1) + lifted * p**n


def _prime_power_shape(modulus: int) -> tuple[int, int]:
    """(p, k) with modulus = p^k, k in {1, 2}; error otherwise."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    r = math.isqrt(modulus)
    if r * r == modulus and is_prime(r):
        return r, 2
    if is_prime(modulus):
        return modulus, 1
    raise ValueError(f"modulus {modulus} is not p or p^2 for a prime p")


def fixed_prime_divisors(f: MultiPoly) -> set[int]:
    """Primes p with p | f(x) for every integer x; all are <= deg(f)."""
    if f.content() != 1:
        raise PolynomialError("divide out the content first")
    d = f.degree
    out = set()
    for p in map(int, primes_upto(d)):
        if count_zeros_mod(f, p) == p**f.n_vars:
            out.add(p)
    return out


# ---------------------------------------------------------------------------
# Euler factors and products
# ---------------------------------------------------------------------------


def prime_euler_factor(f: MultiPoly, p: int, budget: int = 10**8) -> Fraction:
    """(1 - N_p / p^n) / (1 - 1/p) with N_p = #{f = 0 over F_p^n}: the joint
    factor of the one polynomial f."""
    return joint_euler_factor([f], p, budget)


def squarefree_euler_factor(f: MultiPoly, p: int, budget: int = 10**8) -> Fraction:
    """1 - N_{p^2} / p^{2n} with N_{p^2} = #{f = 0 over (Z/p^2 Z)^n}."""
    return 1 - Fraction(count_zeros_mod(f, p * p, budget), p ** (2 * f.n_vars))


def joint_euler_factor(
    polys: Sequence[MultiPoly], p: int, budget: int = 10**8
) -> Fraction:
    """(1 - N_p / p^n) / (1 - 1/p)^r with N_p counting zeros of the product.

    The union of the r zero sets is swept once via the product polynomial,
    which realises the inclusion-exclusion over the individual sets.
    """
    n = polys[0].n_vars
    prod = polys[0]
    for g in polys[1:]:
        prod = prod * g
    count = count_zeros_mod(prod, p, budget)
    return (1 - Fraction(count, p**n)) / (1 - Fraction(1, p)) ** len(polys)


@dataclass
class EulerProductEstimate:
    value: float
    value_exact: Fraction
    tail_bound: float
    heuristic: bool = False


class HypothesisViolationError(RuntimeError):
    """A convergence hypothesis failed and no force flag was given."""


def euler_product(
    f: MultiPoly | Sequence[MultiPoly],
    mode: str,
    cutoff: int,
    sigma: int = 0,
    budget: int = 10**8,
    force: bool = False,
) -> EulerProductEstimate:
    """Truncated singular series over p <= cutoff, with an empirical tail.

    Modes: 'prime' (needs n - sigma_f >= 3 for convergence, else force),
    'squarefree', 'joint'; a prime factor is the joint factor of the one
    polynomial.  The tail estimate is C * sum_{p > cutoff} p^{-e} with
    e = min(2, (n - sigma_f)/2) and C fitted on the deviation of the last
    ten computed factors from 1; when that exponent would make the sum
    divergent the tail falls back to e = 2 and the estimate is flagged
    heuristic.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if mode not in ("prime", "squarefree", "joint"):
        raise ValueError(f"unknown mode {mode!r}")
    polys = list(f) if isinstance(f, (list, tuple)) else [f]
    if mode != "joint" and len(polys) != 1:
        raise ValueError(f"{mode} mode takes a single polynomial")
    n = polys[0].n_vars
    heuristic = False
    if mode == "prime" and n - sigma < 3:
        if not force:
            raise HypothesisViolationError(
                f"n - sigma_f = {n - sigma} < 3; pass force=True for a "
                "heuristic truncation"
            )
        heuristic = True

    value = Fraction(1)
    tail_window: deque[tuple[int, Fraction]] = deque(maxlen=10)
    for p in map(int, primes_upto(cutoff)):
        if mode == "squarefree":
            factor = squarefree_euler_factor(polys[0], p, budget)
        else:
            factor = joint_euler_factor(polys, p, budget)
        value *= factor
        tail_window.append((p, factor))

    exponent = min(2.0, (n - sigma) / 2)
    if exponent <= 1.05:
        # the nominal exponent gives a divergent tail sum; fall back
        exponent = 2.0
        heuristic = True
    c = 0.0
    for p, factor in tail_window:
        c = max(c, abs(float(factor) - 1.0) * p**exponent)
    tail = c * _prime_tail_sum(cutoff, exponent)
    return EulerProductEstimate(
        value=float(value),
        value_exact=value,
        tail_bound=tail,
        heuristic=heuristic,
    )


def _prime_tail_sum(x: int, e: float) -> float:
    """Estimate of sum over primes p > x of p^{-e} (prime-counting density)."""
    if e <= 1:
        return math.inf
    return x ** (1 - e) / ((e - 1) * math.log(x))

