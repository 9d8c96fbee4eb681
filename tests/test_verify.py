"""Hypothesis gating, experiment orchestration, and report emission."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

import polydensity.intervals
import polydensity.verify

from polydensity import (
    Box,
    ConfigError,
    check_hypotheses,
    count_values,
    parse_config,
    parse_polynomial,
    report_from_dict,
    run_experiment,
)
from polydensity.reports import to_csv, to_json, to_plot_data

ROOT = Path(__file__).resolve().parents[1]


def base_config(**overrides):
    config = {
        "polynomials": ["x1^2 + x2^2"],
        "box": [[1, 2], [1, 2]],
        "mode": "squarefree",
        "P_grid": [50, 100],
        "euler_cutoff": 30,
    }
    config.update(overrides)
    return config


class TestCheckHypotheses:
    def test_four_squares_passes_prime_mode(self):
        f = parse_polynomial("x1^2 + x2^2 + x3^2 + x4^2", 4)
        box = Box([(1, 2)] * 4)
        report = check_hypotheses(f, box, "prime")
        assert report.mode == "theorem-1.2"
        assert report.all_passed
        assert report.sigma_used.value == 0
        # margin: 4 - 0 >= max(4, 1*2 + 1) = 4
        margin = [c for c in report.checks if c.name == "singular-locus-margin"]
        assert margin[0].status == "pass"

    def test_two_squares_fails_prime_passes_squarefree(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        prime_report = check_hypotheses(f, box, "prime")
        assert not prime_report.all_passed
        sf_report = check_hypotheses(f, box, "squarefree")
        assert sf_report.mode == "theorem-1.4"
        assert sf_report.all_passed  # 2 > max(1, 4/3)

    def test_fixed_divisor_detected(self):
        f = parse_polynomial("x1^2 + x1 + 2x2", 2)
        box = Box([(1, 2), (1, 2)])
        report = check_hypotheses(f, box, "prime")
        fixed = [c for c in report.checks if c.name == "no-fixed-prime-divisor"]
        assert fixed[0].status == "fail"
        assert "2" in fixed[0].detail

    def test_box_positivity_failure(self):
        f = parse_polynomial("x1^2 - 2x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        report = check_hypotheses(f, box, "prime", sigma_override=0)
        pos = [c for c in report.checks if c.name == "box-positive"]
        assert pos[0].status == "fail"

    def test_sigma_override_recorded(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        report = check_hypotheses(f, Box([(1, 2), (1, 2)]), "prime", sigma_override=1)
        assert report.sigma_used.value == 1
        assert report.sigma_used.method == "user-supplied"

    def test_joint_mode(self):
        f1 = parse_polynomial("x1", 1)
        f2 = parse_polynomial("x1 + 2", 1)
        report = check_hypotheses([f1, f2], Box([(2, 3)]), "joint")
        assert report.mode == "conjecture-A.3"
        assert report.all_passed

    def test_joint_repeated_factor_fails(self):
        f1 = parse_polynomial("x1", 1)
        f2 = parse_polynomial("3x1", 1)
        report = check_hypotheses([f1, f2], Box([(2, 3)]), "joint")
        coprime = [c for c in report.checks if c.name == "pairwise-coprime"]
        assert coprime[0].status == "fail"

    def test_check_names_and_order(self):
        x = parse_polynomial("x1^2 + x2^2", 2)
        y = parse_polynomial("x1^2 + x2^2 + 2", 2)
        box = Box([(1, 2), (1, 2)])
        names = {
            mode: [c.name for c in check_hypotheses(polys, box, mode).checks]
            for mode, polys in [("prime", x), ("squarefree", x), ("joint", [x, y])]
        }
        assert names == {
            "prime": [
                "irreducible",
                "singular-locus-margin",
                "box-positive",
                "no-fixed-prime-divisor",
            ],
            "squarefree": ["separable", "singular-locus-margin", "box-positive"],
            "joint": [
                "irreducible-1",
                "irreducible-2",
                "pairwise-coprime",
                "box-positive-1",
                "box-positive-2",
                "no-fixed-prime-divisor",
            ],
        }

    def test_single_polynomial_modes_reject_lists(self):
        f1 = parse_polynomial("x1", 1)
        f2 = parse_polynomial("x1 + 2", 1)
        for mode in ("prime", "squarefree"):
            with pytest.raises(ConfigError):
                check_hypotheses([f1, f2], Box([(2, 3)]), mode)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            check_hypotheses(parse_polynomial("x1", 1), Box([(2, 3)]), "both")


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(base_config())
        assert cfg["mode"] == "squarefree"
        assert cfg["polys"][0].degree == 2
        assert cfg["box"].n_dims == 2

    def test_missing_key(self):
        config = base_config()
        del config["P_grid"]
        with pytest.raises(ConfigError):
            parse_config(config)

    def test_bad_polynomial(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(polynomials=["x9 + 1"]))

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="both"))

    def test_bad_p_grid(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(P_grid=[0]))
        with pytest.raises(ConfigError):
            parse_config(base_config(P_grid="10"))

    def test_joint_requires_multiple_allowed(self):
        config = base_config(
            polynomials=["x1", "x1 + 2"], box=[[2, 3]], mode="joint"
        )
        cfg = parse_config(config)
        assert len(cfg["polys"]) == 2

    def test_single_mode_rejects_multiple(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(polynomials=["x1^2 + x2^2", "x1"]))

    def test_rational_box_strings(self):
        cfg = parse_config(base_config(box=[["1/2", "3/2"], [1, 2]]))
        from fractions import Fraction

        assert cfg["box"].intervals[0] == (Fraction(1, 2), Fraction(3, 2))

    def test_force_must_be_a_boolean(self):
        # bool("false") is True: a string would force a gated run
        assert parse_config(base_config(force=True))["force"] is True
        for force in ("false", 0, None):
            with pytest.raises(ConfigError, match="force"):
                parse_config(base_config(force=force))

    def test_sigma_override_range(self):
        # n = 2 here; sigma_override = -10 would pass any margin
        for sigma in (0, 2):
            cfg = parse_config(base_config(sigma_override=sigma))
            assert cfg["sigma_override"] == sigma
        for sigma in (-10, -1, 3, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="sigma_override"):
                parse_config(base_config(sigma_override=sigma))

    def test_bad_box_endpoints(self):
        for box in ([["1/0", 2], [1, 2]], [[1, 2, 3], [1, 2]], [5, [1, 2]]):
            with pytest.raises(ConfigError, match="bad box"):
                parse_config(base_config(box=box))

    def test_polynomials_must_be_strings(self):
        for polynomials in ([5], [None], ["x1^2 + x2^2", 5]):
            with pytest.raises(ConfigError, match="polynomials"):
                parse_config(base_config(polynomials=polynomials))

    def test_budget_must_be_a_positive_integer(self):
        assert parse_config(base_config(budget=10**6))["budget"] == 10**6
        for budget in ("lots", True, 0, -5, 1e9):
            with pytest.raises(ConfigError, match="budget"):
                parse_config(base_config(budget=budget))

    def test_booleans_are_not_integers(self):
        for key, value in (
            ("P_grid", [True]),
            ("euler_cutoff", True),
            ("threads", True),
        ):
            with pytest.raises(ConfigError, match=key):
                parse_config(base_config(**{key: value}))

    def test_unknown_keys_refused(self):
        for key in ("sigma_overide", "tolerances"):
            with pytest.raises(ConfigError, match=key):
                parse_config(base_config(**{key: {}}))

    def test_benchmark_configs_parse(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        parsed = 0
        for name in workloads.WORKLOADS:
            for seed in range(4):
                job = workloads.make_spec(name, seed, 2)
                if job["kind"] == "verify":
                    parse_config(job["config"])
                    parsed += 1
        assert parsed == 12


class TestRunExperiment:
    def test_squarefree_experiment(self):
        report = run_experiment(base_config())
        assert report.hypothesis.all_passed
        assert len(report.rows) == 2
        row = report.rows[0]
        assert row.P == 50
        assert row.lattice_points == 51 * 51
        assert row.predicted == row.euler_value * row.lattice_points
        assert abs(row.ratio - row.empirical / row.predicted) < 1e-12
        assert 0.9 < row.ratio < 1.1

    def test_gating_without_force(self):
        config = base_config(mode="prime")  # n - sigma = 2 < 4
        report = run_experiment(config)
        assert not report.hypothesis.all_passed
        assert report.rows == []
        assert report.metadata.get("gated")

    def test_forced_run_is_heuristic(self):
        config = base_config(
            mode="prime", force=True, P_grid=[50], euler_cutoff=50
        )
        report = run_experiment(config)
        assert report.rows
        assert report.heuristic

    def test_rows_ascend_and_match_recount(self):
        report = run_experiment(base_config())
        ps = [row.P for row in report.rows]
        assert ps == sorted(ps)
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        for row in report.rows:
            again = count_values(f, box, row.P, mode="squarefree")
            assert again.count == row.empirical

    def test_budget_error_aborts_row_not_run(self):
        config = base_config(P_grid=[10, 10**6], budget=10**6)
        report = run_experiment(config)
        assert [row.P for row in report.rows] == [10]
        assert report.partial
        assert any("10" in e for e in report.row_errors)

    def test_undecided_values_mark_report_partial(self, monkeypatch):
        real = polydensity.verify.count_values

        def undecided(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, unknown_values=1)

        monkeypatch.setattr(polydensity.verify, "count_values", undecided)
        report = run_experiment(base_config(P_grid=[20]))
        assert report.partial is True
        assert [row.P for row in report.rows] == [20]
        assert report.row_errors == ["P=20: 1 values undecided"]

    def test_unconverged_li_marks_report_partial(self, monkeypatch):
        real = polydensity.verify.li_f

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(polydensity.verify, "li_f", unconverged)
        config = base_config(mode="prime", force=True, P_grid=[20])
        report = run_experiment(config)
        assert report.partial is True
        assert [row.P for row in report.rows] == [20]
        assert report.row_errors == ["P=20: Li_f did not converge"]

    def test_uncertified_li_drops_only_its_row(self, monkeypatch):
        # f0 = 1 at the corner (1/2, ..., 1/2), so f0 > 1 on the box at P = 1
        # is refuted there; a small bisection budget keeps a miss fast
        monkeypatch.setattr(polydensity.intervals, "BISECTION_BUDGET", 50)
        report = run_experiment(
            base_config(
                polynomials=["x1^2 + x2^2 + x3^2 + x4^2"],
                box=[["1/2", 1]] * 4,
                mode="prime",
                P_grid=[1, 4],
                euler_cutoff=12,
            )
        )
        assert report.hypothesis.all_passed
        assert report.partial is True
        assert [row.P for row in report.rows] == [4]
        assert report.row_errors == [
            "P=1: Li_f not certified: f = 1 <= 1 at a box corner"
        ]

    def test_uncertified_joint_li_drops_only_its_row(self, monkeypatch):
        monkeypatch.setattr(polydensity.intervals, "BISECTION_BUDGET", 50)
        report = run_experiment(
            base_config(
                polynomials=["x1", "x1 + 2"],
                box=[[1, 2]],
                mode="joint",
                P_grid=[1, 100],
                euler_cutoff=12,
            )
        )
        assert report.hypothesis.all_passed
        assert [row.P for row in report.rows] == [100]
        assert report.row_errors == [
            "P=1: Li_f not certified: f = 1 <= 1 at a box corner"
        ]

    def test_li_positivity_failure_drops_only_its_row(self):
        # x1 <= 1 on half of [1/2, 2], so Li_f at P = 1 provably fails
        report = run_experiment(
            base_config(
                polynomials=["x1"],
                box=[["1/2", 2]],
                mode="prime",
                P_grid=[1, 10],
                euler_cutoff=12,
                force=True,
            )
        )
        assert [row.P for row in report.rows] == [10]
        assert report.partial is True
        assert report.row_errors == [
            "P=1: Li_f not certified: f = 1/2 <= 1 at a box corner"
        ]

    def test_fixed_divisor_prime_count_bound(self):
        # with a fixed divisor p, only values +-p can be prime
        f = parse_polynomial("x1^2 + x1 + 2", 1)
        box = Box([(1, 2)])
        res = count_values(f, box, 10, mode="prime")
        exceptional = sum(
            1
            for x in range(10, 21)
            if abs(f.evaluate_int([x])) == 2
        )
        assert res.count <= exceptional


class TestReports:
    def test_json_roundtrip(self):
        report = run_experiment(base_config(P_grid=[20]))
        doc = json.loads(to_json(report))
        again = report_from_dict(doc)
        assert again.rows == report.rows
        assert again.hypothesis.checks == report.hypothesis.checks
        assert again.mode == report.mode

    def test_csv_shape(self):
        report = run_experiment(base_config(P_grid=[20, 30]))
        text = to_csv(report)
        lines = text.strip().split("\r\n")
        assert len(lines) == 3
        assert lines[0] == (
            "P,lattice_points,empirical,predicted,ratio,"
            "euler_value,euler_tail,li_value,li_error"
        )
        assert lines[1].split(",")[0] == "20"

    def test_plot_data(self):
        report = run_experiment(base_config(P_grid=[20]))
        text = to_plot_data(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        x, y = lines[-1].split()
        assert abs(float(x) - math.log(20)) < 1e-12

    def test_plot_data_empty_run(self):
        report = run_experiment(base_config(mode="prime"))  # gated
        text = to_plot_data(report)
        assert all(line.startswith("#") for line in text.strip().split("\n"))
