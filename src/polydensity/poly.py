"""Sparse multivariate integer polynomials, boxes, and structural analysis.

Polynomials are stored as a map from exponent vectors to nonzero integer
coefficients.  Coefficients are Python ints, so all arithmetic is exact and
unbounded.  The zero polynomial is rejected at construction: every analysis
routine downstream (top-degree part, local counting, density prediction)
assumes a nonzero polynomial.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    import sympy


class PolynomialError(ValueError):
    """Invalid polynomial input or operation."""


class ParseError(PolynomialError):
    """Syntax error in a polynomial expression, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MultiPoly:
    """Nonzero sparse polynomial in ``n_vars`` variables over the integers.

    ``terms`` maps exponent tuples (length ``n_vars``) to nonzero integer
    coefficients.  Instances are immutable and hashable.
    """

    __slots__ = ("n_vars", "_terms", "_hash")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], int]):
        if n_vars < 1:
            raise PolynomialError("n_vars must be positive")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n_vars:
                raise PolynomialError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
                )
            if any(e < 0 for e in exps):
                raise PolynomialError(f"negative exponent in {exps}")
            coeff = int(coeff)
            if coeff != 0:
                clean[exps] = coeff
        if not clean:
            raise PolynomialError("the zero polynomial is not allowed")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(
            self, "_hash", hash((n_vars, tuple(sorted(clean.items()))))
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        return max(sum(e) for e in self._terms)

    def is_constant(self) -> bool:
        return self.degree == 0

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n_vars == other.n_vars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiPoly({self.n_vars}, {self.to_string()!r})"

    # -- arithmetic (used by the parser and the analysis routines) --

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(self.n_vars, _add(self._terms, other._terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(self.n_vars, _add(self._terms, _neg(other._terms)))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n_vars, _neg(self._terms))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(self.n_vars, _mul(self._terms, other._terms))

    # -- evaluation --

    def evaluate_int(self, point: Sequence[int]) -> int:
        """Exact value at an integer point."""
        if len(point) != self.n_vars:
            raise PolynomialError(
                f"point has {len(point)} coordinates, expected {self.n_vars}"
            )
        total = 0
        for exps, coeff in self._terms.items():
            prod = coeff
            for x, e in zip(point, exps):
                if e:
                    prod *= int(x) ** e
            total += prod
        return total

    def evaluate_mod(self, point: Sequence[int], modulus: int) -> int:
        total = 0
        for exps, coeff in self._terms.items():
            prod = coeff % modulus
            for x, e in zip(point, exps):
                if e:
                    prod = (prod * pow(int(x), e, modulus)) % modulus
            total = (total + prod) % modulus
        return total

    def evaluate_array(
        self, coords: Sequence[np.ndarray], modulus: int | None = None
    ) -> np.ndarray:
        """Vectorised evaluation over broadcastable coordinate arrays, reduced
        to ``[0, modulus)`` when ``modulus`` is set.

        This is the one place that chooses between int64 and exact
        arithmetic.  Integer coordinates are evaluated in int64 when every
        intermediate provably stays below ``2**62``: below ``modulus**2``
        with a modulus, below :meth:`abs_bound` at the coordinates' extremes
        without one.  Otherwise they become Python ints (object arrays), as
        object coordinates already are; float coordinates are evaluated as
        floats.  The result is a fresh array of the broadcast shape.
        """
        if len(coords) != self.n_vars:
            raise PolynomialError("coordinate arrays do not match n_vars")
        if all(c.dtype.kind in "iuO" for c in coords):
            if any(c.dtype == object for c in coords):
                int64 = False
            elif modulus is not None:
                int64 = modulus**2 <= 2**62
            else:
                radius = [
                    max(-int(c.min()), int(c.max())) if c.size else 0 for c in coords
                ]
                int64 = max(radius) < 2**62 and self.abs_bound(radius) < 2**62
            dtype = np.int64 if int64 else object
            coords = [c.astype(dtype, copy=False) for c in coords]
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        # the first two terms are added into a fresh array in one pass
        total = np.empty(shape, dtype=np.result_type(*coords))
        first = None
        for k, (exps, coeff) in enumerate(self._terms.items()):
            term = coeff if modulus is None else coeff % modulus
            for x, e in zip(coords, exps):
                if e and modulus is None:
                    term = term * x**e
                elif e:
                    term = term * _pow_mod_array(x, e, modulus) % modulus
            if k == 0:
                first = term
                continue
            if k == 1:
                np.add(first, term, out=total)
            else:
                total += term
            if modulus is not None:
                total %= modulus
        if len(self._terms) == 1:
            total[...] = first
        return total

    def abs_bound(self, radius: Sequence[float]) -> int:
        """Upper bound for |f(x)| when |x_i| <= radius[i]."""
        bound = 0
        for exps, coeff in self._terms.items():
            term = abs(coeff)
            for r, e in zip(radius, exps):
                term *= int(math.ceil(abs(r))) ** e
            bound += term
        return bound

    # -- structure --

    def top_degree_part(self) -> "MultiPoly":
        """Homogeneous part of maximal total degree (``f_0``)."""
        d = self.degree
        return MultiPoly(
            self.n_vars, {e: c for e, c in self._terms.items() if sum(e) == d}
        )

    def content(self) -> int:
        """gcd of all coefficients, as a positive integer."""
        return math.gcd(*(abs(c) for c in self._terms.values()))

    def primitive_part(self) -> "MultiPoly":
        c = self.content()
        return self if c == 1 else MultiPoly(
            self.n_vars, {e: v // c for e, v in self._terms.items()}
        )

    def partial(self, i: int) -> "MultiPoly | None":
        """Partial derivative with respect to variable ``i`` (None if zero)."""
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * exps[i]
        out = {e: c for e, c in out.items() if c != 0}
        return MultiPoly(self.n_vars, out) if out else None

    def gradient(self) -> list["MultiPoly | None"]:
        return [self.partial(i) for i in range(self.n_vars)]

    def variable_blocks(self) -> tuple[int, list[tuple[tuple[int, ...], "MultiPoly"]]]:
        """Split ``f = c + sum_j g_j(x_{A_j})`` over disjoint variable sets.

        The blocks ``A_j`` are the connected components of the relation "two
        variables share a monomial".  Returns the constant ``c`` and, per
        block in order of its first variable, ``(A_j, g_j)`` with ``g_j`` a
        polynomial in ``len(A_j)`` variables (``x_{A_j[k]}`` becomes
        ``x_{k+1}``).  Variables in no monomial belong to no block.
        """
        constant = 0
        merged: list[tuple[set[int], dict]] = []
        for exps, coeff in self._terms.items():
            used = {i for i, e in enumerate(exps) if e}
            if not used:
                constant = coeff
                continue
            terms = {exps: coeff}
            for block in [b for b in merged if b[0] & used]:
                merged.remove(block)
                used |= block[0]
                terms.update(block[1])
            merged.append((used, terms))
        blocks = []
        for used, terms in sorted(merged, key=lambda b: min(b[0])):
            variables = tuple(sorted(used))
            projected = {tuple(e[i] for i in variables): c for e, c in terms.items()}
            blocks.append((variables, MultiPoly(len(variables), projected)))
        return constant, blocks

    # -- text and JSON --

    def to_string(self) -> str:
        parts = []
        for exps, coeff in sorted(
            self._terms.items(), key=lambda t: (-sum(t[0]), t[0])
        ):
            monos = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            body = "*".join(monos)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            if parts and not piece.startswith("-"):
                parts.append("+")
            parts.append(piece)
        return "".join(parts)

    def to_sympy(self) -> sympy.Expr:
        import sympy

        xs = sympy.symbols(f"x1:{self.n_vars + 1}")
        expr = sympy.Integer(0)
        for exps, coeff in self._terms.items():
            term = sympy.Integer(coeff)
            for x, e in zip(xs, exps):
                term *= x ** e
            expr += term
        return expr


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


#: most grid points in one chunk of :func:`grid_chunks`
RESIDUE_CHUNK = 1 << 18


def grid_chunks(ranges: Sequence[range], limit: int | None = None):
    """Chunks of the grid ``ranges[0] x ranges[1] x ...`` of unit-step
    ranges in C order.

    Each chunk is a list of ``len(ranges)`` broadcastable arrays, int64 for
    a range inside int64 and of Python ints otherwise; their broadcast lists
    the chunk's grid points, and the chunks follow each other.  The
    trailing axes stay whole while they fit in one chunk, so per-axis work
    such as powers is done once per axis; the leading axes share one axis
    that runs over their combined index.  No chunk holds more than
    ``limit`` points (default ``RESIDUE_CHUNK``), and a grid with an empty
    range has no chunk.
    """
    limit = RESIDUE_CHUNK if limit is None else limit
    sizes = [len(r) for r in ranges]
    if 0 in sizes:
        return
    k = len(ranges)
    trailing, block = 0, 1
    while trailing < k - 1 and block * sizes[k - 1 - trailing] <= limit:
        block *= sizes[k - 1 - trailing]
        trailing += 1
    leading = k - trailing
    tail = [
        _shift(r, np.arange(len(r), dtype=np.int64)).reshape(
            (1,) * (1 + i) + (-1,) + (1,) * (trailing - 1 - i)
        )
        for i, r in enumerate(ranges[leading:])
    ]
    n_rows = math.prod(sizes[:leading])
    rows = limit // block
    for lo in range(0, n_rows, rows):
        index = np.arange(lo, min(n_rows, lo + rows), dtype=np.int64)
        index = index.reshape((-1,) + (1,) * trailing)
        head = []
        for r in reversed(ranges[:leading]):
            head.append(_shift(r, index % len(r)))
            index = index // len(r)
        yield head[::-1] + tail


def _shift(r: range, offsets: np.ndarray) -> np.ndarray:
    """``r.start + offsets``, as Python ints when ``r`` leaves int64."""
    if -(2**63) <= r.start and r.stop <= 2**63:
        return r.start + offsets
    return r.start + offsets.astype(object)


def critical_points(g: "MultiPoly", p: int):
    """Chunks of the points of ``F_p^n`` where the gradient of ``g`` vanishes
    mod ``p``, each a list of ``n`` int64 coordinate arrays.

    The first nonzero partial is evaluated on each sparse chunk of
    :func:`grid_chunks`, every later one only on the points that survive, so
    no chunk holds more than ``RESIDUE_CHUNK`` points.
    """
    first, *rest = [h for h in g.gradient() if h is not None]
    for coords in grid_chunks([range(p)] * g.n_vars):
        zero = first.evaluate_array(coords, modulus=p) == 0
        points = [np.broadcast_to(c, zero.shape)[zero] for c in coords]
        for h in rest:
            keep = h.evaluate_array(points, modulus=p) == 0
            points = [c[keep] for c in points]
        yield points


def _pow_mod_array(x: np.ndarray, e: int, modulus: int) -> np.ndarray:
    """x**e mod modulus by square-and-multiply; intermediates < modulus**2."""
    result = np.ones_like(x)
    base = np.mod(x, modulus)
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------
#
# Grammar (EBNF; ^ binds tightest, +/-/* left-associative, unary minus allowed):
#
#   expr    = term { ("+" | "-") term } ;
#   term    = factor { "*" factor | power } ;      (* juxtaposition multiplies *)
#   factor  = "-" factor | power ;
#   power   = atom [ "^" integer ] ;
#   atom    = integer | variable | "(" expr ")" ;
#   variable = "x" integer          (* x1 ... x{n_vars} *)


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.pos = 0

    def parse(self) -> dict[tuple[int, ...], int]:
        result = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> dict:
        acc = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                acc = _add(acc, self._term())
            elif ch in ("-", "−"):
                self.pos += 1
                acc = _add(acc, _neg(self._term()))
            else:
                return acc

    def _term(self) -> dict:
        acc = self._factor()
        while True:
            ch = self._peek()
            if ch in ("*", "·"):
                self.pos += 1
                acc = _mul(acc, self._factor())
            elif ch == "(" or ch == "x" or ch.isdigit():
                # juxtaposition, e.g. "3x1^2" or "x1(x1+2)"
                acc = _mul(acc, self._power())
            else:
                return acc

    def _factor(self) -> dict:
        if self._peek() in ("-", "−"):
            self.pos += 1
            return _neg(self._factor())
        return self._power()

    def _power(self) -> dict:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            if self._peek() in ("-", "−"):
                raise ParseError("negative exponent", self.pos)
            return _pow_dict(base, self._integer("exponent"), self.n_vars)
        return base

    def _atom(self) -> dict:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "x":
            start = self.pos
            self.pos += 1
            idx = self._integer("variable index")
            if not 1 <= idx <= self.n_vars:
                raise ParseError(
                    f"unknown variable x{idx} (n_vars={self.n_vars})", start
                )
            exps = [0] * self.n_vars
            exps[idx - 1] = 1
            return {tuple(exps): 1}
        if ch.isdigit():
            value = self._integer("integer literal")
            if value == 0:
                return {}
            return {(0,) * self.n_vars: value}
        raise ParseError(
            f"unexpected character {ch!r}" if ch else "unexpected end of input",
            self.pos,
        )

    def _integer(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return int(self.text[start : self.pos])


def _pow_dict(base: dict, e: int, n_vars: int) -> dict:
    acc = {(0,) * n_vars: 1}
    for _ in range(e):
        acc = _mul(acc, base)
    return acc


def parse_polynomial(text: str, n_vars: int) -> MultiPoly:
    """Parse an expression in variables x1..x{n_vars} into canonical form.

    Raises :class:`ParseError` with a character position on bad syntax, and
    :class:`PolynomialError` if the expression simplifies to zero.
    """
    terms = _Parser(text, n_vars).parse()
    if not terms:
        raise PolynomialError("expression simplifies to the zero polynomial")
    return MultiPoly(n_vars, terms)


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with rational endpoints, one closed interval per axis."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple(
            (Fraction(a), Fraction(b)) for a, b in intervals
        )
        if not ivs:
            raise PolynomialError("a box needs at least one interval")
        for a, b in ivs:
            if a > b:
                raise PolynomialError(f"interval [{a}, {b}] has a > b")
        object.__setattr__(self, "intervals", ivs)

    @property
    def n_dims(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for a, b in self.intervals:
            v *= b - a
        return v

    def lattice_ranges(self, p: int) -> list[range]:
        """Integer ranges of ``Z^n`` intersected with ``p * B`` per axis."""
        out = []
        for a, b in self.intervals:
            lo = math.ceil(a * p)
            hi = math.floor(b * p)
            out.append(range(lo, hi + 1))
        return out

    def lattice_point_count(self, p: int) -> int:
        return math.prod(len(r) for r in self.lattice_ranges(p))


# ---------------------------------------------------------------------------
# Singular-locus dimension estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaEstimate:
    """Estimated (or user-supplied) dimension of the singular locus of f_0.

    ``value`` is the dimension of the affine variety grad(f_0) = 0; by
    convention an empty locus has value 0.  ``method`` records whether the
    number was supplied by the user or majority-voted from mod-p point counts.
    """

    value: int
    method: str  # "user-supplied" | "mod-p-estimated"
    witness_primes: tuple[int, ...] = ()


#: residues the sigma estimate may sweep, summed over primes and distinct blocks
SIGMA_BUDGET = 10**8


def singular_dimension_estimate(f0: MultiPoly) -> SigmaEstimate:
    """Estimate sigma_f by counting common zeros of grad(f_0) over F_p.

    For an affine cone of dimension s the count N_p grows like p^s, so
    round(log N_p / log p) recovers s at each prime; the majority of the
    per-prime values wins (ties go to the larger, i.e. more cautious, value).
    The primes are the first three odd ones that divide no coefficient of a
    partial derivative, so that no partial loses a term mod p.
    """
    if not f0.is_homogeneous():
        raise PolynomialError("sigma estimate requires a homogeneous polynomial")
    partials = [c * e for exps, c in f0._terms.items() for e in exps if e]
    odd = (p for p in itertools.count(3, 2) if all(p % q for q in range(3, p, 2)))
    primes = list(itertools.islice((p for p in odd if all(c % p for c in partials)), 3))
    counts = _gradient_zero_counts(f0, primes)
    values = [round(math.log(n, p)) if n else 0 for p, n in zip(primes, counts)]
    majority = max(sorted(set(values)), key=lambda v: (values.count(v), v))
    return SigmaEstimate(majority, "mod-p-estimated", tuple(primes))


def _gradient_zero_counts(f0: MultiPoly, primes: Sequence[int]) -> list[int]:
    """#{x in F_p^n : grad(f_0)(x) = 0 mod p} for each p in ``primes``: the
    gradient splits by block, so p^free times the blocks' counts.  Each
    distinct block is swept once per prime over its own p^{|A_j|} residues;
    past ``SIGMA_BUDGET`` of them in all, PolynomialError."""
    _, blocks = f0.variable_blocks()
    distinct = {g for _, g in blocks}
    work = sum(p**g.n_vars for p in primes for g in distinct)
    if work > SIGMA_BUDGET:
        raise PolynomialError(f"{work} residues exceed budget {SIGMA_BUDGET}")
    free = f0.n_vars - sum(g.n_vars for _, g in blocks)
    counts = []
    for p in primes:
        swept = {g: sum(len(x[0]) for x in critical_points(g, p)) for g in distinct}
        counts.append(p**free * math.prod(swept[g] for _, g in blocks))
    return counts


# ---------------------------------------------------------------------------
# Separability and irreducibility
# ---------------------------------------------------------------------------
#
# Each verdict is first sought on a line.  Restrict f to x = a + t*b, giving
# F(t) over Z, and reduce mod a prime p that does not divide lc F = f_top(b),
# so that F keeps the degree of f mod p.  A factorisation f = g*h over Q
# restricts to F = G*H, and f_top(b) = g_top(b)*h_top(b) keeps deg G = deg g
# and deg H = deg h mod p.  Hence:
#
# - F irreducible mod p  =>  f irreducible;
# - gcd(F, F') = 1 mod p  =>  f square-free (g^2 | f gives G^2 | F);
# - gcd(F_1, F_2) = 1 mod p on one line  =>  f_1, f_2 share no factor.
#
# A certificate only ever says yes.  A verdict that no line and prime
# settles falls back to sympy, which is imported only then.

#: lines x = a + t*b tried by the certificates, drawn from these seeds
_CERTIFICATE_LINES = ("line 0", "line 1", "line 2", "line 3")

#: primes at which each restriction is reduced; near 1000, so a square-free
#: restriction rarely gains a repeated factor mod p (p | its discriminant)
_CERTIFICATE_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033)


def _tmul(F: list[int], G: list[int]) -> list[int]:
    """Product of two coefficient lists (constant term first) over Z."""
    out = [0] * (len(F) + len(G) - 1)
    for i, c in enumerate(F):
        for j, e in enumerate(G):
            out[i + j] += c * e
    return out


def _fp(F: list[int], p: int) -> list[int]:
    """F reduced mod p, without trailing zero coefficients."""
    F = [c % p for c in F]
    while F and F[-1] == 0:
        F.pop()
    return F


def _fp_rem(F: list[int], G: list[int], p: int) -> list[int]:
    """F mod G over F_p; G comes from :func:`_fp` and is nonzero."""
    F = [c % p for c in F]
    dg = len(G) - 1
    inv = pow(G[-1], -1, p)
    for k in range(len(F) - 1, dg - 1, -1):
        q = F[k] * inv % p
        if q:
            for j, c in enumerate(G):
                F[k - dg + j] = (F[k - dg + j] - q * c) % p
    return _fp(F[:dg], p)


def _fp_powmod(F: list[int], e: int, M: list[int], p: int) -> list[int]:
    """F**e mod M over F_p, by square-and-multiply."""
    result, base = [1], _fp_rem(F, M, p)
    while e:
        if e & 1:
            result = _fp_rem(_tmul(result, base), M, p)
        base = _fp_rem(_tmul(base, base), M, p)
        e >>= 1
    return result


def _fp_gcd(F: list[int], G: list[int], p: int) -> list[int]:
    """A gcd of F and G over F_p (not made monic)."""
    while G:
        F, G = G, _fp_rem(F, G, p)
    return F


def _fp_coprime(F: list[int], G: list[int], p: int) -> bool:
    return len(_fp_gcd(F, G, p)) == 1


def _fp_irreducible(F: list[int], p: int) -> bool:
    """Rabin's test in Ben-Or's form: F of degree d is irreducible over F_p
    iff it has no factor of degree k <= d/2, i.e. iff t^(p^k) - t is
    coprime to F for every such k."""
    h = [0, 1]
    for _ in range((len(F) - 1) // 2):
        h = _fp_powmod(h, p, F, p)
        shifted = h + [0] * (2 - len(h))
        shifted[1] -= 1
        if not _fp_coprime(F, _fp(shifted, p), p):
            return False
    return True


def restrict_to_line(f: MultiPoly, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients over Z, constant term first, of ``F(t) = f(a + t*b)``;
    the last one is ``f_top(b)``, which may be 0."""
    F = [0] * (f.degree + 1)
    for exps, coeff in f._terms.items():
        term = [coeff]
        for ai, bi, e in zip(a, b, exps):
            for _ in range(e):
                term = _tmul(term, [ai, bi])
        for k, c in enumerate(term):
            F[k] += c
    return F


def _restrictions(polys: Sequence[MultiPoly]):
    """``(p, [F_i mod p])`` for each certificate line and prime at which
    every restriction ``F_i`` keeps the degree of its polynomial."""
    n = polys[0].n_vars
    for seed in _CERTIFICATE_LINES:
        rng = random.Random(seed)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(1, 50) for _ in range(n)]
        lines = [restrict_to_line(f, a, b) for f in polys]
        for p in _CERTIFICATE_PRIMES:
            if all(F[-1] % p for F in lines):
                yield p, [_fp(F, p) for F in lines]


def certify_irreducible(f: MultiPoly) -> bool:
    """True only if some line's restriction is irreducible mod its prime,
    which proves ``f`` irreducible over Q."""
    return any(_fp_irreducible(F, p) for p, (F,) in _restrictions([f]))


def certify_separable(f: MultiPoly) -> bool:
    """True only if some line's restriction ``F`` has ``gcd(F, F') = 1``
    mod its prime, which proves ``f`` square-free over Q."""
    return any(
        _fp_coprime(F, _fp([k * c for k, c in enumerate(F)][1:], p), p)
        for p, (F,) in _restrictions([f])
    )


def certify_coprime(f: MultiPoly, g: MultiPoly) -> bool:
    """True only if the restrictions of ``f`` and ``g`` to some line are
    coprime mod its prime, which proves that they share no factor."""
    return any(_fp_coprime(F, G, p) for p, (F, G) in _restrictions([f, g]))


def separability_check(f: MultiPoly) -> str:
    """'separable' iff gcd(f, all partials) over Q is constant."""
    if f.is_constant():
        raise PolynomialError("constant polynomial has no separability verdict")
    if certify_separable(f):
        return "separable"
    import sympy

    expr = f.primitive_part().to_sympy()
    xs = sorted(expr.free_symbols, key=lambda s: s.name)
    g = expr
    for x in xs:
        g = sympy.gcd(g, sympy.diff(expr, x))
    return "separable" if g.is_number else "not-separable"


def heuristic_irreducibility(f: MultiPoly) -> str:
    """Verdict in {'irreducible', 'reducible', 'unknown'}.

    'irreducible' when a line certifies it; otherwise exact factorisation
    over the rationals, which settles the verdict either way unless sympy
    gives up.
    """
    if f.is_constant():
        raise PolynomialError("constant polynomial has no irreducibility verdict")
    if certify_irreducible(f):
        return "irreducible"
    import sympy

    expr = f.primitive_part().to_sympy()
    xs = sympy.symbols(f"x1:{f.n_vars + 1}")
    try:
        _, factors = sympy.factor_list(expr, *xs)
    except (sympy.PolynomialError, NotImplementedError):
        return "unknown"
    nontrivial = [(b, m) for b, m in factors if not b.is_number]
    if len(nontrivial) == 1 and nontrivial[0][1] == 1:
        # exact over Q, hence certainly irreducible
        return "irreducible"
    if sum(m for _, m in nontrivial) > 1:
        return "reducible"
    return "unknown"


def pairwise_coprime(polys: Sequence[MultiPoly]) -> bool:
    """Whether no two of ``polys`` share a nonconstant factor over Q."""
    for f, g in itertools.combinations(polys, 2):
        if certify_coprime(f, g):
            continue
        import sympy

        if not sympy.gcd(f.to_sympy(), g.to_sympy()).is_number:
            return False
    return True
