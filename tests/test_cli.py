"""End-to-end tests of the command-line interface and its exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydensity
import polydensity.intervals
import polydensity.verify
from polydensity.cli import main
from polydensity.poly import parse_polynomial, singular_dimension_estimate
from polydensity.reports import (
    ExperimentReport,
    ExperimentRow,
    HypothesisCheck,
    HypothesisReport,
    report_from_dict,
    to_csv,
    to_json,
)


@pytest.fixture
def write_config(tmp_path):
    def _write(name="cfg.json", **overrides):
        config = {
            "polynomials": ["x1^2 + x2^2"],
            "box": [[1, 2], [1, 2]],
            "mode": "squarefree",
            "P_grid": [20, 40],
            "euler_cutoff": 30,
        }
        config.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(config))
        return str(path)

    return _write


#: a prime config whose gate passes but whose Li_f at P = 1 is not certified
_UNCERTIFIED_LI = dict(
    polynomials=["x1^2 + x2^2 + x3^2 + x4^2"],
    box=[["1/2", 1]] * 4,
    mode="prime",
    P_grid=[1, 4],
    euler_cutoff=12,
)


#: the paper's prime-mode cubic, x1^3 + ... + x9^3 on [1, 2]^9
_NINE_CUBES = dict(
    polynomials=[" + ".join(f"x{i}^3" for i in range(1, 10))],
    box=[[1, 2]] * 9,
    mode="prime",
    P_grid=[2],
    euler_cutoff=20,
)


def _run_capped(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m polydensity.cli`` on this checkout, in a child whose
    address space is capped at 2 GiB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(polydensity.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polydensity.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
    )


#: rows with an infinite ratio, integer-valued floats and counts above 2^53,
#: and their exact CSV text: a float is written as its repr, an int in full
_PINNED_ROWS = [
    ExperimentRow(6, 49, 0, 0.0, math.inf, 0.5, 0.0, 36.0, 0.0),
    ExperimentRow(
        10**6,
        2**53 + 3,
        2**53 + 1,
        9007199254740992.0,
        1.4587552654230338,
        0.8137186637128495,
        1e-05,
        1e16,
        2.5e-07,
    ),
]
_PINNED_CSV = (
    "P,lattice_points,empirical,predicted,ratio,"
    "euler_value,euler_tail,li_value,li_error\r\n"
    "6,49,0,0.0,inf,0.5,0.0,36.0,0.0\r\n"
    "1000000,9007199254740995,9007199254740993,9007199254740992.0,"
    "1.4587552654230338,0.8137186637128495,1e-05,1e+16,2.5e-07\r\n"
)


def _pinned_report() -> ExperimentReport:
    return ExperimentReport(
        mode="prime",
        rows=list(_PINNED_ROWS),
        hypothesis=HypothesisReport("theorem-1.2", [], None),
        config={},
    )


def _pinned_json_report() -> ExperimentReport:
    """Every report field set, sigma estimated from a real form."""
    f0 = parse_polynomial("(x1 - x2)^2 + x3^2", 3)
    return ExperimentReport(
        mode="prime",
        rows=[_PINNED_ROWS[0]],
        hypothesis=HypothesisReport(
            "theorem-1.2",
            [
                HypothesisCheck(
                    "singular-locus-margin", "fail", "n - sigma = 2, needs >= 4"
                )
            ],
            singular_dimension_estimate(f0),
        ),
        config={"polynomials": ["(x1 - x2)^2 + x3^2"], "P_grid": [6]},
        heuristic=True,
        partial=True,
        row_errors=["P=12: count budget exceeded"],
        metadata={"elapsed": 0.25, "version": "0.1.0"},
    )


_PINNED_JSON = """\
{
  "config": {
    "P_grid": [
      6
    ],
    "polynomials": [
      "(x1 - x2)^2 + x3^2"
    ]
  },
  "heuristic": true,
  "hypothesis": {
    "checks": [
      {
        "detail": "n - sigma = 2, needs >= 4",
        "name": "singular-locus-margin",
        "status": "fail"
      }
    ],
    "mode": "theorem-1.2",
    "sigma_used": {
      "method": "mod-p-estimated",
      "value": 1,
      "witness_primes": [
        3,
        5,
        7
      ]
    }
  },
  "metadata": {
    "elapsed": 0.25,
    "version": "0.1.0"
  },
  "mode": "prime",
  "partial": true,
  "row_errors": [
    "P=12: count budget exceeded"
  ],
  "rows": [
    {
      "P": 6,
      "empirical": 0,
      "euler_tail": 0.0,
      "euler_value": 0.5,
      "lattice_points": 49,
      "li_error": 0.0,
      "li_value": 36.0,
      "predicted": 0.0,
      "ratio": null
    }
  ]
}"""


class TestCheck:
    def test_passing_config(self, write_config, capsys):
        code = main(["check", write_config()])
        assert code == 0
        out = capsys.readouterr().out
        assert "theorem-1.4" in out
        assert "[ pass  ]" in out

    def test_gated_config(self, write_config, capsys):
        code = main(["check", write_config(mode="prime")])
        assert code == 2
        assert "fail" in capsys.readouterr().out

    def test_fixed_divisor_of_wide_chain_is_decided(self, write_config, capsys):
        # one block of 30 variables: 2^30 residues mod 2, decided from the
        # terms alone
        chain = " + ".join(f"x{i}x{i + 1}" for i in range(1, 30)) + " + 1"
        cfg = write_config(
            polynomials=[chain], box=[[1, 2]] * 30, mode="prime", sigma_override=0
        )
        assert main(["check", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "[ pass  ] no-fixed-prime-divisor" in lines
        assert sum("[ pass  ]" in line for line in lines) == 4

    def test_sigma_refusal_is_unknown(self, write_config, capsys):
        # one block of 17 variables: 3^17 + 5^17 + 7^17 residues
        chain = " + ".join(f"x{i}x{i + 1}" for i in range(1, 17))
        cfg = write_config(polynomials=[chain], box=[[1, 2]] * 17, mode="prime")
        assert main(["check", cfg]) == 2
        out = capsys.readouterr().out
        assert "sigma:" not in out
        assert (
            "[unknown] singular-locus-margin: "
            "233393582580495 residues exceed budget 100000000"
        ) in out.splitlines()
        cfg = write_config(
            polynomials=[chain], box=[[1, 2]] * 17, mode="prime", sigma_override=0
        )
        assert main(["check", cfg]) == 0

    def test_nine_cubes_pass_the_gate(self, write_config, capsys):
        # every partial 3x_i^2 vanishes mod 3, so sigma is voted at 5, 7, 11
        cfg = write_config(**_NINE_CUBES)
        assert main(["check", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "sigma: 0 (mod-p-estimated)" in lines
        assert "[ pass  ] singular-locus-margin: n - sigma = 9, needs >= 9" in lines

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "nope.json")])
        assert code == 4
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "prime", "force": "false"},
            {"sigma_override": -10},
            {"box": [["1/0", 2], [1, 2]]},
            {"polynomials": [5]},
            {"sigma_overide": 1},
        ],
    )
    def test_config_errors_exit_4(self, write_config, capsys, overrides):
        for command in ("check", "verify"):
            assert main([command, write_config(**overrides)]) == 4
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:")
            assert captured.out == ""

    def test_invalid_schema(self, write_config):
        assert main(["check", write_config(mode="nonsense")]) == 4


class TestDensities:
    def test_stdout_csv(self, write_config, capsys):
        code = main(["densities", write_config()])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "P,euler_value,euler_tail,li_value,predicted"
        assert len(lines) == 3

    def test_gate(self, write_config, capsys):
        assert main(["densities", write_config(mode="prime")]) == 2

    def test_forced(self, write_config):
        code = main(
            ["densities", write_config(mode="prime", force=True, P_grid=[20])]
        )
        assert code == 0

    def test_euler_budget_exit(self, write_config, monkeypatch, capsys):
        # one sweep of the block x^2 and three convolutions: 17 + 3 * 17^2 =
        # 884 residues at p = 17, 19 + 3 * 19^2 = 1102 at p = 19
        monkeypatch.setattr(polydensity.localcounts, "RESIDUE_BUDGET", 1000)
        cfg = write_config(
            polynomials=["x1^2 + x2^2 + x3^2 + x4^2"],
            box=[[1, 2]] * 4,
            mode="prime",
            euler_cutoff=48,
        )
        assert main(["densities", cfg]) == 3
        assert "euler product: 1102 residues exceed budget 1000" in capsys.readouterr().err

    def test_unconverged_li_exit(self, write_config, monkeypatch, capsys):
        real = polydensity.verify.li_f

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(polydensity.verify, "li_f", unconverged)
        cfg = write_config(mode="prime", force=True, P_grid=[20])
        assert main(["densities", cfg]) == 3
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "P=20: Li_f did not converge" in captured.err


    def test_uncertified_li_exit(self, write_config, monkeypatch, capsys):
        monkeypatch.setattr(polydensity.intervals, "BISECTION_BUDGET", 50)
        assert main(["densities", write_config(**_UNCERTIFIED_LI)]) == 3
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()] == ["P", "4"]
        assert "P=1: Li_f not certified" in captured.err


class TestExpsum:
    def test_table(self, write_config, capsys):
        code = main(["expsum", write_config(), "--q", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "q,a,re,im"
        # phi(5) = 4 residues plus the T_f and G summary rows
        assert len(lines) == 1 + 4 + 2

    def test_bad_q(self, write_config):
        assert main(["expsum", write_config(), "--q", "0"]) == 4

    def test_budget(self, write_config):
        # one sweep of 40000 residues and a convolution of 40000^2 = 1.6e9
        cfg = write_config(polynomials=["x1^2 + x2^2"])
        assert main(["expsum", cfg, "--q", "40000"]) == 3


    def test_tf_row_past_old_budget(self, write_config, capsys):
        cfg = write_config(
            polynomials=["x1^3 + 2x2^3 + 3x3^3"], box=[[1, 2]] * 3
        )
        assert main(["expsum", cfg, "--q", "200"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[-2].startswith("200,T_f,")


class TestCount:
    def test_counts(self, write_config, tmp_path):
        out = tmp_path / "counts.csv"
        code = main(["count", write_config(), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].strip() == "P,lattice_points,count"
        p, lat, cnt = lines[1].strip().split(",")
        assert (p, lat) == ("20", str(21 * 21))
        assert 0 < int(cnt) <= 21 * 21

    def test_budget(self, write_config, capsys):
        # about 5e11 orbits of (x1, x2) at P = 10^6
        cfg = write_config(P_grid=[10, 10**6])
        assert main(["count", cfg]) == 3
        assert "budget" in capsys.readouterr().err

    def test_undecided_values_exit(self, write_config, monkeypatch, capsys):
        def undecided_on_sevens(m, *args, **kwargs):
            if m % 7 == 0:
                raise polydensity.counting.SquarefreeUnknownError(f"stub {m}")
            return real(m, *args, **kwargs)

        real = polydensity.counting.is_squarefree
        monkeypatch.setattr(polydensity.counting, "is_squarefree", undecided_on_sevens)
        monkeypatch.setattr(polydensity.counting, "TABLE_LIMIT", 0)
        assert main(["count", write_config(P_grid=[20])]) == 3
        captured = capsys.readouterr()
        p, lattice_points, count = captured.out.strip().splitlines()[1].split(",")
        assert (p, lattice_points) == ("20", str(21 * 21))
        undecided = sum(
            1 for x in range(20, 41) for y in range(20, 41) if (x * x + y * y) % 7 == 0
        )
        assert f"P=20: {undecided} values undecided" in captured.err


class TestVerify:
    def test_json_report(self, write_config, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", write_config(P_grid=[20]), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "squarefree"
        assert len(doc["rows"]) == 1
        assert 0.8 < doc["rows"][0]["ratio"] < 1.2

    def test_csv_format(self, write_config, capsys):
        code = main(["verify", write_config(P_grid=[20]), "--format", "csv"])
        assert code == 0
        header = capsys.readouterr().out.strip().splitlines()[0].strip()
        assert header == (
            "P,lattice_points,empirical,predicted,ratio,"
            "euler_value,euler_tail,li_value,li_error"
        )

    def test_gate_exit(self, write_config):
        assert main(["verify", write_config(mode="prime")]) == 2

    def test_budget_exit(self, write_config):
        cfg = write_config(P_grid=[10, 10**6])
        assert main(["verify", cfg]) == 3

    def test_bad_format(self, write_config):
        assert main(["verify", write_config(), "--format", "xml"]) == 4

    def test_undecided_values_exit(self, write_config, monkeypatch, capsys):
        real = polydensity.verify.count_values

        def undecided(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, unknown_values=2)

        monkeypatch.setattr(polydensity.verify, "count_values", undecided)
        assert main(["verify", write_config(P_grid=[20])]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["partial"] is True
        assert doc["row_errors"] == ["P=20: 2 values undecided"]

    def test_unconverged_li_exit(self, write_config, monkeypatch, capsys):
        real = polydensity.verify.li_f

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(polydensity.verify, "li_f", unconverged)
        cfg = write_config(mode="prime", force=True, P_grid=[20])
        assert main(["verify", cfg]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["partial"] is True
        assert doc["row_errors"] == ["P=20: Li_f did not converge"]


    def test_uncertified_li_exit(self, write_config, monkeypatch, capsys):
        # f0 > 1 on [1/2, 1]^4 at P = 1 cannot be certified (f0 = 1 at a corner)
        monkeypatch.setattr(polydensity.intervals, "BISECTION_BUDGET", 50)
        cfg = write_config(**_UNCERTIFIED_LI)
        assert main(["verify", cfg]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["partial"] is True
        assert [row["P"] for row in doc["rows"]] == [4]
        assert "P=1: Li_f not certified" in captured.err


    def test_nine_cubes_li_refused_under_memory_cap(self, write_config):
        # the gate passes, and one quadrature cell in 9 dimensions would take
        # 7^9 + 11^9 points, so Li_f is refused before anything is allocated
        proc = _run_capped(["verify", write_config(**_NINE_CUBES)])
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["hypothesis"]["sigma_used"]["value"] == 0
        assert doc["rows"] == []
        assert doc["row_errors"] == [
            "P=2: Li_f not computed: "
            "2398301298 evaluations per cell exceed budget 4000000"
        ]


class TestReport:
    def test_reemit_csv(self, write_config, tmp_path, capsys):
        saved = tmp_path / "report.json"
        assert main(["verify", write_config(P_grid=[20]), "--out", str(saved)]) == 0
        code = main(["report", str(saved), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].strip().startswith("P,lattice_points")

    def test_reemit_plot_data(self, write_config, tmp_path, capsys):
        saved = tmp_path / "report.json"
        main(["verify", write_config(P_grid=[20]), "--out", str(saved)])
        assert main(["report", str(saved), "--format", "plot-data"]) == 0
        assert capsys.readouterr().out.startswith("#")

    def test_reemit_csv_to_file(self, write_config, tmp_path):
        saved, out = tmp_path / "report.json", tmp_path / "report.csv"
        assert main(["verify", write_config(P_grid=[20]), "--out", str(saved)]) == 0
        code = main(["report", str(saved), "--format", "csv", "--out", str(out)])
        assert code == 0
        doc = json.loads(saved.read_text())
        with open(out, encoding="utf-8", newline="") as handle:
            assert handle.read() == to_csv(report_from_dict(doc))

    def test_csv_row_bytes(self):
        assert to_csv(_pinned_report()) == _PINNED_CSV

    def test_reemit_csv_row_bytes(self, tmp_path):
        saved, out = tmp_path / "report.json", tmp_path / "report.csv"
        saved.write_text(to_json(_pinned_report()))
        assert main(["report", str(saved), "--format", "csv", "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            assert handle.read() == _PINNED_CSV

    def test_json_is_strict(self):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(to_json(_pinned_report()), parse_constant=refuse)
        assert doc["rows"][0]["ratio"] is None
        assert report_from_dict(doc).rows == _PINNED_ROWS

    def test_json_bytes(self):
        report = _pinned_json_report()
        text = to_json(report)
        assert text == _PINNED_JSON
        assert report_from_dict(json.loads(text)) == report

    def test_missing_report(self, tmp_path):
        assert main(["report", str(tmp_path / "x.json"), "--format", "csv"]) == 4

    def test_format_required(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{}")
        assert main(["report", str(path)]) == 4


class TestTopLevel:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 4

    def test_no_arguments(self):
        assert main([]) == 4

    def test_module_invocation(self, tmp_path):
        config = {
            "polynomials": ["x1^2 + x2^2"],
            "box": [[1, 2], [1, 2]],
            "mode": "squarefree",
            "P_grid": [10],
            "euler_cutoff": 30,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        # the child imports the same checkout as this test process
        src = str(Path(polydensity.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polydensity.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "pass" in proc.stdout
