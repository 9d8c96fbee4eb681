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


def _row_from_dict(doc: dict) -> ExperimentRow:
    """A row as :func:`to_json` writes it, with null read back as an
    infinite ratio."""
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
    """Strict JSON (RFC 8259) of the report's fields, keys sorted.  A zero
    prediction's infinite ratio is written as null, since strict JSON has no
    infinity; any other value JSON cannot hold raises ValueError."""
    doc = asdict(report)
    for row in doc["rows"]:
        if math.isinf(row["ratio"]):
            row["ratio"] = None
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


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
