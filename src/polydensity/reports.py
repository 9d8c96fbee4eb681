"""Report documents: hypothesis checks and experiment rows, with JSON, CSV
(RFC 4180) and plot-data emission."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields

from .poly import SigmaEstimate


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


#: one CSV column per row field, in field order
CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


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
            "rows": [_row_dict(r) for r in self.rows],
            "row_errors": list(self.row_errors),
            "hypothesis": self.hypothesis.to_dict(),
            "config": self.config,
            "metadata": self.metadata,
        }


def _row_dict(row: ExperimentRow) -> dict:
    """The row as a JSON object; a zero prediction's infinite ratio is
    written as null, since strict JSON has no infinity."""
    doc = asdict(row)
    if math.isinf(row.ratio):
        doc["ratio"] = None
    return doc


def _row_from_dict(doc: dict) -> ExperimentRow:
    """Inverse of :func:`_row_dict`."""
    row = ExperimentRow(**doc)
    if row.ratio is None:
        row.ratio = math.inf
    return row


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
        rows=[_row_from_dict(r) for r in doc["rows"]],
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
    """Strict JSON (RFC 8259): a value JSON cannot hold raises ValueError."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def csv_text(header: list[str], rows: list[list | tuple]) -> str:
    """RFC 4180 text of a header line and rows, CRLF-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_csv(report: ExperimentReport) -> str:
    """One CSV line per row; the csv module writes a float as its repr."""
    return csv_text(CSV_COLUMNS, [astuple(row) for row in report.rows])


def to_plot_data(report: ExperimentReport) -> str:
    lines = [
        f"# mode: {report.mode}",
        "# columns: log_P ratio",
    ]
    for row in report.rows:
        lines.append(f"{math.log(row.P)!r} {row.ratio!r}")
    return "\n".join(lines) + "\n"
