"""Report documents: hypothesis checks and experiment rows, with JSON, CSV
(RFC 4180) and plot-data emission."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

from .poly import SigmaEstimate

CSV_COLUMNS = [
    "P",
    "lattice_points",
    "empirical",
    "predicted",
    "ratio",
    "euler_value",
    "euler_tail",
    "li_value",
    "li_error",
]


@dataclass
class HypothesisCheck:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    detail: str = ""


@dataclass
class HypothesisReport:
    mode: str  # "theorem-1.2" | "theorem-1.4" | "conjecture-A.3"
    checks: list[HypothesisCheck]
    sigma_used: SigmaEstimate | None

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "checks": [asdict(c) for c in self.checks],
            "sigma_used": (
                {
                    "value": self.sigma_used.value,
                    "method": self.sigma_used.method,
                    "witness_primes": list(self.sigma_used.witness_primes),
                }
                if self.sigma_used
                else None
            ),
        }


@dataclass
class ExperimentRow:
    P: int
    lattice_points: int
    empirical: int
    predicted: float
    ratio: float
    euler_value: float
    euler_tail: float
    li_value: float
    li_error: float


@dataclass
class ExperimentReport:
    mode: str  # "prime" | "squarefree" | "joint"
    rows: list[ExperimentRow]
    hypothesis: HypothesisReport
    config: dict
    heuristic: bool = False
    partial: bool = False
    row_errors: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "heuristic": self.heuristic,
            "partial": self.partial,
            "rows": [asdict(r) for r in self.rows],
            "row_errors": list(self.row_errors),
            "hypothesis": self.hypothesis.to_dict(),
            "config": self.config,
            "metadata": self.metadata,
        }


def report_from_dict(doc: dict) -> ExperimentReport:
    hyp = doc["hypothesis"]
    sigma = None
    if hyp.get("sigma_used"):
        s = hyp["sigma_used"]
        sigma = SigmaEstimate(
            value=s["value"],
            method=s["method"],
            witness_primes=tuple(s.get("witness_primes", ())),
        )
    return ExperimentReport(
        mode=doc["mode"],
        rows=[ExperimentRow(**r) for r in doc["rows"]],
        hypothesis=HypothesisReport(
            mode=hyp["mode"],
            checks=[HypothesisCheck(**c) for c in hyp["checks"]],
            sigma_used=sigma,
        ),
        config=doc["config"],
        heuristic=doc.get("heuristic", False),
        partial=doc.get("partial", False),
        row_errors=doc.get("row_errors", []),
        metadata=doc.get("metadata", {}),
    )


def to_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def csv_text(header: list[str], rows: list[list]) -> str:
    """RFC 4180 text of a header line and rows, CRLF-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_csv(report: ExperimentReport) -> str:
    return csv_text(
        CSV_COLUMNS,
        [
            [
                row.P,
                row.lattice_points,
                row.empirical,
                repr(row.predicted),
                repr(row.ratio),
                repr(row.euler_value),
                repr(row.euler_tail),
                repr(row.li_value),
                repr(row.li_error),
            ]
            for row in report.rows
        ],
    )


def to_plot_data(report: ExperimentReport) -> str:
    lines = [
        f"# mode: {report.mode}",
        "# columns: log_P ratio",
    ]
    for row in report.rows:
        lines.append(f"{math.log(row.P)!r} {row.ratio!r}")
    return "\n".join(lines) + "\n"
