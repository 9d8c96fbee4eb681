"""Complete exponential sums, their averages, square-free weights, and the
trigonometric polynomials S, W, Q of the circle-method identities.

Sums over residue space go through a value histogram: the residues of f over
(Z/qZ)^n are tallied once (see ``localcounts.residue_histogram``), after
which one FFT of length q gives S_{a,q} for every a at once.  Sums over
the lattice points of P*B (S(alpha) and the orthogonality count) take the
values of f chunk by chunk from the grid iterator ``poly.grid_chunks``.
The square-free weights g(q, d) and G(q) are exact rationals throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import BudgetExceededError, _fits_int64, _sieve_bools, primes_in_interval
from .intervals import value_range
from .localcounts import residue_histogram
from .poly import Box, MultiPoly, grid_chunks

#: most residues, lattice points or grid entries one sum sweeps
SWEEP_BUDGET = 10**8
#: longest integer interval a W- or Q-sum sieves
INTERVAL_BUDGET = 10**9


def _spectrum(hist: np.ndarray) -> np.ndarray:
    """S_{a,q} for a = 0..q-1 from the value histogram of f mod q.

    fft(hist)[a] = sum_c hist[c] e(-a c / q) = conj(S_{a,q}) for a real
    histogram.
    """
    return np.conj(np.fft.fft(hist))


def complete_exp_sum(f: MultiPoly, a: int, q: int) -> complex:
    """S_{a,q} = sum over (Z/qZ)^n of e(a f(x) / q)."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return complex(1.0)
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    return complex(_spectrum(residue_histogram(f, q, SWEEP_BUDGET))[a % q])


@dataclass
class ExpSumTable:
    """S_{a,q} for all a in [0, q) coprime to q."""

    q: int
    values: dict[int, complex]

    @classmethod
    def build(cls, f: MultiPoly, q: int, budget: int = 10**8) -> "ExpSumTable":
        if q == 1:
            return cls(1, {0: complex(1.0)})
        spectrum = _spectrum(residue_histogram(f, q, budget))
        return cls(q, {a: complex(spectrum[a]) for a in _coprime_residues(q)})

    def csv_rows(self) -> list[list[str]]:
        rows = [["q", "a", "re", "im"]]
        for a in sorted(self.values):
            v = self.values[a]
            rows.append([str(self.q), str(a), repr(v.real), repr(v.imag)])
        return rows


def t_f(f: MultiPoly, q: int, budget: int = 10**8) -> float:
    """T_f(q) = q^{-n} * sum over a coprime to q of |S_{a,q}|."""
    if q == 1:
        return 1.0
    spectrum = _spectrum(residue_histogram(f, q, budget))
    return float(np.sum(np.abs(spectrum[_coprime_residues(q)]))) / q**f.n_vars


def _coprime_residues(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


def _factorize(q: int) -> dict[int, int]:
    out: dict[int, int] = {}
    m = q
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Square-free weights g(q, d) and G(q)
# ---------------------------------------------------------------------------


def g_local(q: int, d: int) -> Fraction:
    """The multiplicative weight g(q, d) for d | q, assembled prime by prime.

    At a prime power (l = v_p(q), m = v_p(d)) the defining relation is
    p^l (1 - p^{-2}) g = 0, 1, or 1 - p^{l-2} according to whether
    l >= m >= 2, m < min(2, l), or l = m <= 1.
    """
    if q < 1 or d < 1 or q % d != 0:
        raise ValueError(f"{d} does not divide {q}")
    value = Fraction(1)
    for p, l in _factorize(q).items():
        m = 0
        dd = d
        while dd % p == 0:
            m += 1
            dd //= p
        value *= _g_prime_power(p, l, m)
    return value


def _g_prime_power(p: int, l: int, m: int) -> Fraction:
    if l >= m >= 2:
        numerator = Fraction(0)
    elif m < min(2, l):
        numerator = Fraction(1)
    elif l == m and l <= 1:
        numerator = 1 - Fraction(p) ** (l - 2)
    else:
        raise ValueError(f"invalid case l={l}, m={m} at p={p}")
    return numerator / (Fraction(p) ** l * (1 - Fraction(1, p * p)))


def _mobius(q: int) -> int:
    factors = _factorize(q)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def big_g_from_definition(q: int) -> Fraction:
    """G(q) = sum over b in [1, q] of e(b/q) g(q, gcd(b, q)), exactly.

    Grouping b by gcd(b, q) = d turns the inner character sum into the
    Ramanujan sum c_{q/d}(1) = mu(q/d), so the total stays rational.
    """
    if q == 1:
        return Fraction(1)
    total = Fraction(0)
    for d in _divisors(q):
        total += _mobius(q // d) * g_local(q, d)
    return total


def big_g(q: int) -> Fraction:
    """G(q) via multiplicativity: G(p) = G(p^2) = -p^{-2} (1 - p^{-2})^{-1},
    zero on non-cube-free q; equal to :func:`big_g_from_definition`."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return Fraction(1)
    value = Fraction(1)
    for p, e in _factorize(q).items():
        if e >= 3:
            value = Fraction(0)
            break
        value *= -Fraction(1, p * p) / (1 - Fraction(1, p * p))
    return value


def _divisors(q: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(q).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# Trigonometric polynomials S, W, Q
# ---------------------------------------------------------------------------


def _lattice_values(f: MultiPoly, box: Box, P: int):
    """The values of f on Z^n intersect P*B, one flat array per grid chunk.

    Raises ArithmeticError unless int64 provably holds every value.
    """
    total = box.lattice_point_count(P)
    if total > SWEEP_BUDGET:
        raise BudgetExceededError(f"{total} lattice points exceed budget")
    ranges = box.lattice_ranges(P)
    if not _fits_int64([f], ranges):
        raise ArithmeticError("lattice values of f may overflow int64")
    for _, coords in grid_chunks(ranges):
        yield f.evaluate_array(coords).ravel()


def w_interval(f: MultiPoly, box: Box, P: int) -> tuple[int, int]:
    """Prime support [P^d min(f0)/2, 2 P^d max(f0)] of the W-sum (outer
    integer bounds from certified range enclosures)."""
    f0 = f.top_degree_part()
    lo, hi = value_range(f0, box)
    d = f.degree
    lo_int = math.floor(Fraction(lo) * P**d / 2)
    hi_int = math.ceil(2 * Fraction(hi) * P**d)
    return lo_int, hi_int


def q_interval(f: MultiPoly, box: Box, P: int) -> tuple[int, int]:
    """Square-free support [(min(f0)-1) P^d, (max(f0)+1) P^d] of the Q-sum."""
    f0 = f.top_degree_part()
    lo, hi = value_range(f0, box)
    d = f.degree
    return (
        math.floor((Fraction(lo) - 1) * P**d),
        math.ceil((Fraction(hi) + 1) * P**d),
    )


def s_alpha(f: MultiPoly, box: Box, P: int, alpha: float) -> complex:
    """S(alpha) = sum over Z^n intersect P*B of e(alpha f(x))."""
    return complex(
        sum(
            np.sum(np.exp(2j * np.pi * alpha * values.astype(np.float64)))
            for values in _lattice_values(f, box, P)
        )
    )


def w_alpha(f: MultiPoly, box: Box, P: int, alpha: float) -> complex:
    """W(alpha) = sum of e(alpha p) over primes p in the W-interval."""
    lo, hi = w_interval(f, box, P)
    if hi - lo > INTERVAL_BUDGET:
        raise BudgetExceededError("W-interval too long")
    primes = primes_in_interval(max(lo, 2), hi)
    return complex(np.sum(np.exp(2j * np.pi * alpha * primes.astype(np.float64))))


def q_alpha_interval(lo: int, hi: int, alpha: float) -> complex:
    """Q(alpha) over an explicit integer interval of square-free m != 0
    (m and -m agree); 0 for an interval holding no such m."""
    if hi - lo > INTERVAL_BUDGET:
        raise BudgetExceededError("Q-interval too long")
    ms = lo + np.flatnonzero(_sieve_bools(lo, hi, squarefree=True))
    return complex(np.sum(np.exp(2j * np.pi * alpha * ms.astype(np.float64))))


def q_alpha(f: MultiPoly, box: Box, P: int, alpha: float) -> complex:
    lo, hi = q_interval(f, box, P)
    return q_alpha_interval(lo, hi, alpha)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def orthogonality_count(f: MultiPoly, box: Box, P: int) -> int:
    """pi_f(P*B) recovered from (1/N) sum_j S(j/N) conj(W(j/N)).

    With N exceeding every frequency, discrete orthogonality of e(.) makes
    the Riemann sum exact; the result is rounded to the nearest integer and
    a residual of 1e-6 or more raises ArithmeticError.
    """
    chunks = list(_lattice_values(f, box, P))
    if not chunks:
        return 0
    values = np.concatenate(chunks)
    lo, hi = w_interval(f, box, P)
    primes = primes_in_interval(max(lo, 2), hi)
    v_min = int(values.min())
    m_max = max(int(values.max()), int(primes.max()) if len(primes) else 0)
    shift = -min(v_min, 0)
    n_grid = m_max + shift + 1
    if n_grid > SWEEP_BUDGET:
        raise BudgetExceededError("orthogonality grid too large")
    hist_v = np.bincount(values + shift, minlength=n_grid)
    hist_p = np.bincount(primes + shift, minlength=n_grid) if len(primes) else (
        np.zeros(n_grid, dtype=np.int64)
    )
    # any length above the largest frequency keeps the identity exact; a
    # power of two keeps pocketfft off its slow path for large prime factors
    n_fft = 1 << (n_grid - 1).bit_length()
    s_spec = np.fft.fft(hist_v, n_fft)
    w_spec = np.fft.fft(hist_p, n_fft)
    total = np.vdot(w_spec, s_spec) / n_fft
    count = int(round(total.real))
    residual = abs(total - count)
    if not residual < 1e-6:
        raise ArithmeticError(f"orthogonality residual {residual}")
    return count


def observatory_check(f: MultiPoly, p: int) -> tuple[float, int]:
    """Both sides of sum_{a in (Z/pZ)*} S_{a,p} = -p^n + p * N_p.

    Returns (lhs real part, rhs); raises ArithmeticError unless the
    imaginary part of the lhs and the lhs-rhs gap are below 1e-6 * p^n.
    """
    n = f.n_vars
    hist = residue_histogram(f, p, SWEEP_BUDGET)
    lhs = complex(np.sum(_spectrum(hist)[1:]))
    rhs = -(p**n) + p * int(hist[0])
    tol = 1e-6 * p**n
    if not abs(lhs.imag) < tol:
        raise ArithmeticError(f"imaginary residue {lhs.imag}")
    if not abs(lhs.real - rhs) < tol:
        raise ArithmeticError(f"observatory mismatch {lhs.real} vs {rhs}")
    return float(lhs.real), rhs

