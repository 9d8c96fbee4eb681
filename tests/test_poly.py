"""Polynomial core: parsing, arithmetic, evaluation, structure analysis."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polydensity
from polydensity import (
    Box,
    MultiPoly,
    ParseError,
    PolynomialError,
    pairwise_coprime,
    parse_polynomial,
    separability_check,
    heuristic_irreducibility,
    singular_dimension_estimate,
)
from polydensity.poly import (
    certify_coprime,
    certify_irreducible,
    certify_separable,
    restrict_to_line,
)


class TestParser:
    def test_simple_sum_of_squares(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert f.terms == {(2, 0): 1, (0, 2): 1}

    def test_coefficients_and_constants(self):
        f = parse_polynomial("3x1^2 - 5x2 + 7", 2)
        assert f.terms == {(2, 0): 3, (0, 1): -5, (0, 0): 7}

    def test_implicit_multiplication(self):
        f = parse_polynomial("2x1x2", 2)
        assert f.terms == {(1, 1): 2}

    def test_explicit_multiplication(self):
        f = parse_polynomial("2*x1*x2^3", 2)
        assert f.terms == {(1, 3): 2}

    def test_unary_minus(self):
        f = parse_polynomial("-x1 + 2", 1)
        assert f.terms == {(1,): -1, (0,): 2}

    def test_parentheses(self):
        f = parse_polynomial("(x1 + 1)^2", 1)
        assert f.terms == {(2,): 1, (1,): 2, (0,): 1}

    def test_product_of_factors(self):
        f = parse_polynomial("x1(x1 + 2)", 1)
        assert f.terms == {(2,): 1, (1,): 2}

    def test_caret_binds_tightest(self):
        # 2x1^3 is 2*(x1^3), not (2x1)^3
        f = parse_polynomial("2x1^3", 1)
        assert f.terms == {(3,): 2}

    def test_left_associative_subtraction(self):
        f = parse_polynomial("x1 - 1 - 1", 1)
        assert f.terms == {(1,): 1, (0,): -2}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x1 - x1", 1)

    def test_bad_variable_index(self):
        with pytest.raises(ParseError):
            parse_polynomial("x3 + 1", 2)

    def test_garbage_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + @", 1)
        assert err.value.position == 5

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1^-2", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_polynomial("(x1 + 1", 1)

    def test_roundtrip_through_to_string(self):
        f = parse_polynomial("3x1^2x2 - x2^3 + 41", 2)
        assert parse_polynomial(f.to_string(), 2) == f


class TestArithmetic:
    def test_add_and_mul(self):
        f = parse_polynomial("x1 + 1", 1)
        g = parse_polynomial("x1 - 1", 1)
        assert (f * g).terms == {(2,): 1, (0,): -1}
        assert (f + g).terms == {(1,): 2}

    def test_cancellation_to_zero_raises(self):
        f = parse_polynomial("x1", 1)
        with pytest.raises(PolynomialError):
            _ = f - f

    def test_degree_and_homogeneity(self):
        f = parse_polynomial("x1^2 + x1x2", 2)
        assert f.degree == 2
        assert f.is_homogeneous()
        assert not parse_polynomial("x1^2 + x2", 2).is_homogeneous()

    def test_top_degree_part(self):
        f = parse_polynomial("x1^3 + 4x1x2 + 7", 2)
        assert f.top_degree_part().terms == {(3, 0): 1}

    def test_content_and_primitive(self):
        f = parse_polynomial("6x1^2 + 9", 1)
        assert f.content() == 3
        assert f.primitive_part().terms == {(2,): 2, (0,): 3}

    def test_gradient(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        grad = f.gradient()
        assert grad[0].terms == {(1, 0): 2}
        assert grad[1].terms == {(0, 1): 2}

    def test_partial_of_missing_variable(self):
        f = parse_polynomial("x1^2 + 1", 2)
        assert f.partial(1) is None


class TestEvaluation:
    def test_evaluate_int_big(self):
        f = parse_polynomial("x1^5 - 3x2 + 11", 2)
        x, y = 10**12, -(10**9)
        assert f.evaluate_int([x, y]) == x**5 - 3 * y + 11

    def test_evaluate_mod(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert f.evaluate_mod([3, 4], 5) == 0

    def test_evaluate_array_matches_int(self):
        f = parse_polynomial("2x1^3 - x1x2 + 5", 2)
        rng = np.random.default_rng(1)
        xs = rng.integers(-50, 50, size=(2, 100))
        vals = f.evaluate_array([xs[0], xs[1]])
        for i in range(100):
            assert int(vals[i]) == f.evaluate_int([int(xs[0, i]), int(xs[1, i])])

    def test_evaluate_array_modular(self):
        f = parse_polynomial("x1^3 + 2x1 + 1", 1)
        xs = np.arange(7)
        vals = f.evaluate_array([xs], modulus=7)
        assert all(0 <= v < 7 for v in vals)
        for x in range(7):
            assert int(vals[x]) == f.evaluate_int([x]) % 7

    def test_abs_bound_dominates(self):
        f = parse_polynomial("x1^2 - 3x2 + 4", 2)
        bound = f.abs_bound([10, 10])
        for x in range(-10, 11):
            for y in range(-10, 11):
                assert abs(f.evaluate_int([x, y])) <= bound


class TestBox:
    def test_volume(self):
        box = Box([(1, 2), (Fraction(1, 2), 3)])
        assert box.volume == Fraction(5, 2)

    def test_lattice_ranges_inclusive(self):
        box = Box([(1, 2)])
        r = box.lattice_ranges(10)[0]
        assert (r.start, r.stop) == (10, 21)

    def test_lattice_ranges_rational_endpoints(self):
        box = Box([(Fraction(1, 3), Fraction(2, 3))])
        r = box.lattice_ranges(10)[0]
        # ceil(10/3) = 4, floor(20/3) = 6
        assert (r.start, r.stop) == (4, 7)

    def test_lattice_point_count_clamps_at_zero(self):
        box = Box([(Fraction(1, 10), Fraction(2, 10))])
        assert box.lattice_point_count(1) == 0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(PolynomialError):
            Box([(2, 1)])


class TestStructure:
    def test_sigma_of_nonsingular_quadric(self):
        f0 = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
        est = singular_dimension_estimate(f0)
        assert (est.value, est.witness_primes) == (0, (3, 5, 7))

    def test_sigma_of_degenerate_form(self):
        # grad(x1^2) = (2x1, 0): zero locus is the hyperplane x1 = 0
        f0 = parse_polynomial("x1^2", 2)
        est = singular_dimension_estimate(f0)
        assert est.value == 1

    def test_sigma_of_singular_line(self):
        # grad = (2(x1 - x2), -2(x1 - x2), 2x3) vanishes on the line
        # x1 = x2, x3 = 0, which has p points over F_p for odd p
        f0 = parse_polynomial("(x1 - x2)^2 + x3^2", 3)
        est = singular_dimension_estimate(f0)
        assert est.value == 1

    def test_sigma_rejects_inhomogeneous(self):
        with pytest.raises(PolynomialError):
            singular_dimension_estimate(parse_polynomial("x1^2 + 1", 1))

    @pytest.mark.parametrize(
        "text, n, primes",
        [
            # every partial 3x_i^2 vanishes mod 3
            (" + ".join(f"x{i}^3" for i in range(1, 10)), 9, (5, 7, 11)),
            (" + ".join(f"x{i}^3" for i in range(1, 15)), 14, (5, 7, 11)),
            # 3, 5 and 7 divide the partial 210x4
            ("x1^2 + x2^2 + x3^2 + 105x4^2", 4, (11, 13, 17)),
        ],
    )
    def test_sigma_primes_divide_no_partial_coefficient(self, text, n, primes):
        est = singular_dimension_estimate(parse_polynomial(text, n))
        assert (est.value, est.witness_primes) == (0, primes)

    def test_sigma_budget_counts_swept_residues(self, monkeypatch):
        # the block x^2 is swept once for x1^2 + x2^2, the block x3x4 once:
        # (3 + 5 + 7) + (3^2 + 5^2 + 7^2) = 98 residues
        f0 = parse_polynomial("x1^2 + x2^2 + x3x4", 4)
        monkeypatch.setattr(polydensity.poly, "SIGMA_BUDGET", 98)
        assert singular_dimension_estimate(f0).value == 0
        monkeypatch.setattr(polydensity.poly, "SIGMA_BUDGET", 97)
        with pytest.raises(PolynomialError, match="98 residues exceed budget 97"):
            singular_dimension_estimate(f0)

    def test_separability(self):
        assert separability_check(parse_polynomial("x1^2 + x2^2", 2)) == "separable"
        assert separability_check(parse_polynomial("x1^2", 2)) == "not-separable"

    def test_irreducibility_verdicts(self):
        assert heuristic_irreducibility(parse_polynomial("x1^2 + 1", 1)) == "irreducible"
        assert heuristic_irreducibility(parse_polynomial("x1^2 - 1", 1)) == "reducible"
        assert (
            heuristic_irreducibility(parse_polynomial("x1^2 + x2^2 + x3^2 + x4^2", 4))
            == "irreducible"
        )
        assert heuristic_irreducibility(parse_polynomial("x1^2 - x2^2", 2)) == "reducible"


class TestLineCertificates:
    def test_restriction(self):
        # f(a + t*b) for f = x1^2 + 3*x1*x2 - 5, a = (1, 2), b = (3, -1)
        f = parse_polynomial("x1^2 + 3x1x2 - 5", 2)
        assert restrict_to_line(f, [1, 2], [3, -1]) == [2, 21, 0]

    @pytest.mark.parametrize(
        "text, n",
        [("x1^2 + x2^2 + x3^2 + x4^2", 4), ("x1^2 + 1", 1), ("x1x2 + 1", 2),
         ("x1^3 + 2x2^3 + 3x3^3", 3), ("x1 + 2", 1)],
    )
    def test_certifies_common_irreducibles(self, text, n):
        f = parse_polynomial(text, n)
        assert certify_irreducible(f)
        assert certify_separable(f)

    @pytest.mark.parametrize(
        "text, n",
        [("x1^2 - x2^2", 2), ("x1^2 - 1", 1), ("(x1 + x2)(x1 - 3x2 + 1)", 2),
         ("x1^4 + 1", 1)],
    )
    def test_never_certifies_reducible_or_split_everywhere(self, text, n):
        # x1^4 + 1 is irreducible but splits mod every prime
        assert not certify_irreducible(parse_polynomial(text, n))

    def test_separable_and_coprime_refusals(self):
        assert not certify_separable(parse_polynomial("(x1 + x2)^2 (x1 - 1)", 2))
        f, g = parse_polynomial("x1(x2 + 1)", 2), parse_polynomial("x1 x2 + x1", 2)
        assert not certify_coprime(f, g)
        assert not pairwise_coprime([parse_polynomial("x1 + 3", 2), f, g])
        assert pairwise_coprime([parse_polynomial("x1", 1), parse_polynomial("x1 + 2", 1)])

    def test_fallback_without_deprecation_warnings(self):
        # the mod-p sympy factorisation the certificate replaced warned
        # "Ordered comparisons with modular integers" on these inputs
        cases = {"x1^2 + x1": "reducible", "x1^3 - x1": "reducible",
                 "x1^4 + 1": "irreducible"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdicts = {
                text: heuristic_irreducibility(parse_polynomial(text, 1))
                for text in cases
            }
        assert verdicts == cases
        assert [str(w.message) for w in caught] == []


def _run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(polydensity.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        check=True,
    )
    return proc.stdout.strip()


class TestSympyImportedOnlyAsFallback:
    def test_package_import(self):
        out = _run_isolated(
            "import sys, polydensity, polydensity.cli; print('sympy' in sys.modules)"
        )
        assert out == "False"

    def test_gate_of_gated_workloads(self):
        out = _run_isolated(
            "import sys\n"
            "from polydensity import Box, check_hypotheses, parse_polynomial\n"
            "cases = [\n"
            "    (['x1^2 + x2^2 + x3^2 + x4^2'], [(1, 2)] * 4, 'prime'),\n"
            "    (['x1^2 + x2^2'], [(1, 2)] * 2, 'squarefree'),\n"
            "    (['x1', 'x1 + 2'], [(10000, 10001)], 'joint'),\n"
            "]\n"
            "for texts, box, mode in cases:\n"
            "    polys = [parse_polynomial(t, len(box)) for t in texts]\n"
            "    assert check_hypotheses(polys, Box(box), mode).all_passed\n"
            "print('sympy' in sys.modules)"
        )
        assert out == "False"

    def test_fallback_imports_sympy(self):
        out = _run_isolated(
            "import sys\n"
            "from polydensity import heuristic_irreducibility, parse_polynomial\n"
            "print(heuristic_irreducibility(parse_polynomial('x1^4 + 1', 1)),"
            " 'sympy' in sys.modules)"
        )
        assert out == "irreducible True"
