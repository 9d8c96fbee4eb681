"""Point counts modulo p and p^2 and the non-archimedean Euler products.

Counting is exact and exhaustive, vectorised with numpy.  Counts modulo p
come from the residue histogram of f: a form split over disjoint sets of
variables is swept block by block and the block histograms are convolved
(the factorisation of Birch and Davenport), so x1^2 + ... + x4^2 costs
one sweep of p residues (the four blocks are equal), not one of p^4.
Counts modulo p^2 lift the roots modulo p (a solution modulo p^2 must
reduce to one modulo p): a smooth root has p^(n-1) lifts by Hensel, and the
fiber above a singular root, a common zero of f and its gradient, is all
roots or none, since f(r + p t) = f(r) mod p^2 there.  The gradient splits
by block too, so the singular roots are the points of the product of the
blocks' critical sets (zeros of the block gradient mod p) where f = 0 mod p.
Each block's critical set is found by a sweep of that block alone, and only
the blocks' values mod p^2 there are combined, so x1^2 + x2^2 costs sweeps
of p residues, not of p^2.  Every sweep runs on the chunked grid
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
from .poly import MultiPoly, PolynomialError, critical_points, grid_chunks

#: most residues one zero count visits: the distinct blocks' residues, q^2
#: per convolution, and mod p^2 the tuples of the blocks' critical values
RESIDUE_BUDGET = 10**9


def residue_histogram(f: MultiPoly, q: int) -> np.ndarray:
    """#{x in (Z/qZ)^n : f(x) = c mod q} for c = 0..q-1, exact int64.

    ``f`` is split into parts in disjoint variable blocks,
    ``f = c + sum_j g_j(x_{A_j})``; each distinct block is swept once over
    its own ``q^{|A_j|}`` residues and the block histograms are folded
    together by cyclic convolution mod ``q``.  A variable in no monomial
    multiplies every count by ``q``.  ``RESIDUE_BUDGET`` is checked against
    that work: the distinct blocks' residues plus ``q^2`` per convolution.
    """
    n = f.n_vars
    if q**n >= 2**63:
        raise BudgetExceededError(f"{q}^{n} residue counts overflow int64")
    constant, blocks = f.variable_blocks()
    sizes = {g: len(variables) for variables, g in blocks}
    _check_work(sum(q**m for m in sizes.values()) + q * q * max(len(blocks) - 1, 0))
    hist = None
    swept: dict[MultiPoly, np.ndarray] = {}
    for variables, g in blocks:
        block = swept.get(g)
        if block is None:
            block = swept[g] = np.zeros(q, dtype=np.int64)
            for coords in grid_chunks([range(q)] * len(variables)):
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


def count_zeros_mod(f: MultiPoly, modulus: int) -> int:
    """Exact #{x in (Z/modulus Z)^n : f(x) = 0} for modulus p or p^2."""
    p, k = _prime_power_shape(modulus)
    n_p = int(residue_histogram(f, p)[0])
    if k == 1 or n_p == 0:
        return n_p
    # modulus = p^2: a root r mod p where some partial derivative is a unit
    # has p^(n-1) lifts r + p*t (Hensel).  Where the whole gradient vanishes,
    # Taylor's formula gives f(r + p*t) = f(r) mod p^2 for every t, so all
    # p^n lifts are roots or none is.  With f = c + sum_j g_j(x_{A_j}) the
    # gradient vanishes iff every block's does, so these singular roots are
    # the points of the product of the blocks' critical sets where f = 0 mod
    # p; the blocks' values there are combined, not the points.
    constant, blocks = f.variable_blocks()
    swept = {g: _critical_values(g, p, modulus) for g in {g for _, g in blocks}}
    tallies = [swept[g] for _, g in blocks]
    _check_work(math.prod(len(values) for values, _ in tallies))
    singular = lifted = 0
    for index in grid_chunks([range(len(values)) for values, _ in tallies]):
        total, weight = np.asarray(constant % modulus), np.asarray(1)
        for i, (values, counts) in zip(index, tallies):
            total = total + values[i]
            weight = weight * counts[i]
        total %= modulus
        singular += int(weight[total % p == 0].sum())
        lifted += int(weight[total == 0].sum())
    n = f.n_vars
    free = p ** (n - sum(len(variables) for variables, _ in blocks))
    return (n_p - singular * free) * p ** (n - 1) + lifted * free * p**n


def _check_work(work: int) -> None:
    if work > RESIDUE_BUDGET:
        raise BudgetExceededError(f"{work} residues exceed budget {RESIDUE_BUDGET}")


def _critical_values(
    g: MultiPoly, p: int, modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): the distinct values mod ``modulus`` that g takes on
    the zeros of its gradient mod p, and how many zeros take each.

    The zeros are swept chunk by chunk and folded into the tally, so at most
    one chunk and ``min(modulus, #zeros)`` distinct values are held.
    """
    values = counts = np.empty(0, dtype=np.int64)
    for points in critical_points(g, p):
        found = g.evaluate_array(points, modulus=modulus)
        weights = np.concatenate([counts, np.ones(len(found), dtype=np.int64)])
        values, inverse = np.unique(
            np.concatenate([values, found]), return_inverse=True
        )
        counts = np.zeros(len(values), dtype=np.int64)
        np.add.at(counts, inverse, weights)
    return values, counts


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
    """Primes p with p | f(x) for every integer x; all are <= deg(f).

    On F_p, x^e and x^(1 + (e - 1) mod (p - 1)) agree for e >= 1, and the
    monomials whose exponents are all below p are independent functions on
    F_p^n.  So p divides every value iff every coefficient of f, with its
    exponents reduced that way and equal monomials merged, is 0 mod p: a
    pass over the terms, not over the p^n residues.
    """
    if f.content() != 1:
        raise PolynomialError("divide out the content first")
    out = set()
    for p in map(int, primes_upto(f.degree)):
        reduced: dict[tuple[int, ...], int] = {}
        for exps, c in f.terms.items():
            key = tuple(0 if e == 0 else 1 + (e - 1) % (p - 1) for e in exps)
            reduced[key] = reduced.get(key, 0) + c
        if all(c % p == 0 for c in reduced.values()):
            out.add(p)
    return out


# ---------------------------------------------------------------------------
# Euler factors and products
# ---------------------------------------------------------------------------


def prime_euler_factor(f: MultiPoly, p: int) -> Fraction:
    """(1 - N_p / p^n) / (1 - 1/p) with N_p = #{f = 0 over F_p^n}: the joint
    factor of the one polynomial f."""
    return joint_euler_factor([f], p)


def squarefree_euler_factor(f: MultiPoly, p: int) -> Fraction:
    """1 - N_{p^2} / p^{2n} with N_{p^2} = #{f = 0 over (Z/p^2 Z)^n}."""
    return 1 - Fraction(count_zeros_mod(f, p * p), p ** (2 * f.n_vars))


def joint_euler_factor(polys: Sequence[MultiPoly], p: int) -> Fraction:
    """(1 - N_p / p^n) / (1 - 1/p)^r with N_p counting zeros of the product.

    The union of the r zero sets is swept once via the product polynomial,
    which realises the inclusion-exclusion over the individual sets.
    """
    n = polys[0].n_vars
    prod = polys[0]
    for g in polys[1:]:
        prod = prod * g
    count = count_zeros_mod(prod, p)
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
            factor = squarefree_euler_factor(polys[0], p)
        else:
            factor = joint_euler_factor(polys, p)
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

