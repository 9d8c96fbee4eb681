# Parsing polynomials and reading off their structure
# ===================================================
#
# Everything in this library starts from a multivariate integer polynomial
# and a rational box.  This script walks through the parser, exact
# evaluation, and the structural quantities (top-degree form, singular
# locus dimension, fixed prime divisors) that decide which density
# predictions are on solid ground.

from fractions import Fraction

from polydensity import (
    Box,
    fixed_prime_divisors,
    parse_polynomial,
    singular_dimension_estimate,
)

# The grammar accepts +, -, *, ^, parentheses, and juxtaposition, with
# variables named x1, x2, ...  Coefficients are arbitrary integers.
f = parse_polynomial("x1^2 + x2^2 + x3^2 + x4^2", 4)
print("f          =", f.to_string())
print("degree     =", f.degree)
print("homogeneous?", f.is_homogeneous())

# Evaluation is exact over the integers (no floats, no overflow).
print("f(1,2,3,4) =", f.evaluate_int([1, 2, 3, 4]))
print("f mod 7    =", f.evaluate_mod([1, 2, 3, 4], 7))

# The top-degree form f0 is what the analytic side sees; for a
# homogeneous f it is f itself.
g = parse_polynomial("x1^3 - x2 + 4", 2)
print("\ng  =", g.to_string())
print("g0 =", g.top_degree_part().to_string())

# sigma is the dimension of the singular locus of f0 (where the gradient
# vanishes).  Small sigma relative to the number of variables is the key
# hypothesis behind every prediction.
sigma = singular_dimension_estimate(f.top_degree_part())
print("\nsigma(f) =", sigma.value, f"({sigma.method})")
print("margin n - sigma =", f.n_vars - sigma.value)

# Some polynomials can never be prime because a fixed prime divides every
# value.  x^2 + x + 2 is always even:
h = parse_polynomial("x1^2 + x1 + 2", 1)
print("\nfixed prime divisors of", h.to_string(), "=", fixed_prime_divisors(h))

# Boxes carry exact rational endpoints; scaling by P and counting lattice
# points is exact too.
box = Box([(Fraction(1, 2), Fraction(3, 2)), (1, 2)])
print("\nlattice points in 10*B:", box.lattice_point_count(10))
