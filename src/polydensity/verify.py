"""Hypothesis gating and end-to-end density experiments.

`check_hypotheses` runs the convergence and geometry checks behind each
density formula; `run_experiment` gates on them (unless forced), then
compares exhaustive lattice counts against the predicted local-global
product for every P in the grid.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .counting import BudgetExceededError, CountResult, count_values
from .integrals import li_f, li_joint
from .intervals import CertificationError, PositivityError, certify_above
from .localcounts import EulerProductEstimate, euler_product, fixed_prime_divisors
from .poly import (
    Box,
    MultiPoly,
    PolynomialError,
    SigmaEstimate,
    heuristic_irreducibility,
    pairwise_coprime,
    parse_polynomial,
    separability_check,
    singular_dimension_estimate,
)
from .reports import (
    ExperimentReport,
    ExperimentRow,
    HypothesisCheck,
    HypothesisReport,
)

#: mode -> (hypothesis name, Euler-product mode)
MODES = {
    "prime": ("theorem-1.2", "prime-density"),
    "squarefree": ("theorem-1.4", "squarefree-density"),
    "joint": ("conjecture-A.3", "joint"),
}

#: largest residue sweep p^n of the primes behind the sigma estimate
_SIGMA_BUDGET = 2 * 10**6

#: check status of each irreducibility or separability verdict
_STATUS = {
    "irreducible": "pass",
    "separable": "pass",
    "reducible": "fail",
    "not-separable": "fail",
}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _sigma_primes(n: int) -> list[int]:
    candidates = [3, 5, 7, 11, 13, 17]
    picked = [p for p in candidates if p**n <= _SIGMA_BUDGET]
    return picked[:3] if len(picked) >= 3 else picked[:1] or [3]


def check_hypotheses(
    polys: MultiPoly | Sequence[MultiPoly],
    box: Box,
    mode: str,
    sigma_override: int | None = None,
) -> HypothesisReport:
    """Run the applicability checks for the requested density formula.

    One pass over the polynomials: sigma (user-supplied, else estimated
    outside joint mode); irreducibility of each, or separability in
    'squarefree' mode; the singular-locus margin, or pairwise coprimality
    in 'joint' mode; box positivity of each top-degree form; and, in
    'prime' and 'joint' modes, no fixed prime divisor of the product.
    Check names carry a ``-i`` suffix in joint mode only.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    poly_list = list(polys) if isinstance(polys, (list, tuple)) else [polys]
    if not poly_list:
        raise ConfigError("at least one polynomial is required")
    joint = mode == "joint"
    if not joint and len(poly_list) != 1:
        raise ConfigError(f"mode {mode!r} takes exactly one polynomial")
    f = poly_list[0]
    n = f.n_vars
    if box.n_dims != n:
        raise ConfigError(f"box has {box.n_dims} intervals for {n} variables")

    def named(name: str, i: int) -> str:
        return f"{name}-{i}" if joint else name

    sigma: SigmaEstimate | None = None
    if sigma_override is not None:
        sigma = SigmaEstimate(value=int(sigma_override), method="user-supplied")
    elif not joint:
        sigma = singular_dimension_estimate(f.top_degree_part(), _sigma_primes(n))

    checks: list[HypothesisCheck] = []
    for i, g in enumerate(poly_list, start=1):
        if mode == "squarefree":
            verdict, name = separability_check(g), "separable"
        else:
            verdict, name = heuristic_irreducibility(g), "irreducible"
        checks.append(
            HypothesisCheck(
                named(name, i), _STATUS.get(verdict, "unknown"), f"verdict: {verdict}"
            )
        )

    if joint:
        coprime = pairwise_coprime(poly_list)
        checks.append(
            HypothesisCheck(
                "pairwise-coprime",
                "pass" if coprime else "fail",
                "" if coprime else "two factors share a common component",
            )
        )
    else:
        d, margin = f.degree, n - sigma.value
        if mode == "prime":
            required = max(4, (d - 1) * 2 ** (d - 1) + 1)
            rel, ok = ">=", margin >= required
        else:
            required = max(1.0, (d - 1) * 2**d / 3)
            rel, ok = ">", margin > required
        checks.append(
            HypothesisCheck(
                "singular-locus-margin",
                "pass" if ok else "fail",
                f"n - sigma = {margin}, needs {rel} {required:g}",
            )
        )

    for i, g in enumerate(poly_list, start=1):
        try:
            certify_above(g.top_degree_part(), box, threshold=0)
            status, detail = "pass", "top-degree form certified positive on the box"
        except PositivityError as exc:
            status, detail = "fail", str(exc)
        except CertificationError as exc:
            status, detail = "unknown", str(exc)
        checks.append(HypothesisCheck(named("box-positive", i), status, detail))

    if mode != "squarefree":
        product = math.prod(poly_list[1:], start=poly_list[0])
        content = product.content()
        if content != 1:
            detail = f"content {content} > 1: every value shares a fixed factor"
        elif divisors := fixed_prime_divisors(product):
            detail = f"fixed prime divisors {sorted(divisors)}: prime density vanishes"
        else:
            detail = ""
        status = "fail" if detail else "pass"
        checks.append(HypothesisCheck("no-fixed-prime-divisor", status, detail))

    return HypothesisReport(mode=MODES[mode][0], checks=checks, sigma_used=sigma)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def parse_config(config: dict) -> dict:
    """Validate the experiment config and parse its polynomial/box fields.

    Returns a dict with keys: polys, box, mode, P_grid, euler_cutoff,
    tolerances, sigma_override, force, threads, budget.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    required = ("polynomials", "box", "mode", "P_grid", "euler_cutoff")
    for key in required:
        if key not in config:
            raise ConfigError(f"missing config key {key!r}")
    mode = config["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {tuple(MODES)}, got {mode!r}")
    box_spec = config["box"]
    if not isinstance(box_spec, list) or not box_spec:
        raise ConfigError("box must be a non-empty list of [a, b] pairs")
    try:
        box = Box(
            (Fraction(str(a)), Fraction(str(b))) for a, b in box_spec
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad box: {exc}") from exc
    n = box.n_dims
    texts = config["polynomials"]
    if not isinstance(texts, list) or not texts:
        raise ConfigError("polynomials must be a non-empty list of strings")
    if mode != "joint" and len(texts) != 1:
        raise ConfigError(f"mode {mode!r} takes exactly one polynomial")
    try:
        polys = [parse_polynomial(t, n) for t in texts]
    except PolynomialError as exc:
        raise ConfigError(f"bad polynomial: {exc}") from exc
    p_grid = config["P_grid"]
    if (
        not isinstance(p_grid, list)
        or not p_grid
        or not all(isinstance(p, int) and p >= 1 for p in p_grid)
    ):
        raise ConfigError("P_grid must be a non-empty list of positive integers")
    cutoff = config["euler_cutoff"]
    if not isinstance(cutoff, int) or cutoff < 2:
        raise ConfigError("euler_cutoff must be an integer >= 2")
    tolerances = config.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    sigma_override = config.get("sigma_override")
    if sigma_override is not None and not isinstance(sigma_override, int):
        raise ConfigError("sigma_override must be an integer")
    threads = config.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads must be a positive integer")
    budget = config.get("budget", 10**9)
    return {
        "polys": polys,
        "box": box,
        "mode": mode,
        "P_grid": list(p_grid),
        "euler_cutoff": cutoff,
        "tolerances": dict(tolerances),
        "sigma_override": sigma_override,
        "force": bool(config.get("force", False)),
        "threads": threads,
        "budget": int(budget),
    }


def euler_for(cfg: dict, sigma: SigmaEstimate | None) -> EulerProductEstimate:
    """The truncated singular series of a parsed config."""
    return euler_product(
        cfg["polys"],
        MODES[cfg["mode"]][1],
        cutoff=cfg["euler_cutoff"],
        sigma=sigma,
        budget=cfg["budget"],
        force=cfg["force"],
    )


def count_for(cfg: dict, P: int) -> tuple[CountResult, str | None]:
    """The exact lattice count of a parsed config at one P, with the row
    error it earns when values were left undecided (else None)."""
    counted = count_values(
        cfg["polys"],
        cfg["box"],
        P,
        mode=cfg["mode"],
        budget=cfg["budget"],
        threads=cfg["threads"],
    )
    if counted.partial or counted.unknown_values:
        return counted, f"P={P}: {counted.unknown_values} values undecided"
    return counted, None


def li_for(cfg: dict, P: int) -> tuple[float, float, str | None]:
    """(value, error estimate, row error) of the archimedean factor of a
    parsed config at one P; the row error says Li_f did not converge."""
    polys, box, mode = cfg["polys"], cfg["box"], cfg["mode"]
    if mode == "squarefree":
        # square-free density is per lattice point, not per log
        return float(box.lattice_point_count(P)), 0.0, None
    li_tol = float(cfg["tolerances"].get("li_tol", 1e-8))
    if mode == "prime":
        li = li_f(polys[0], box, P, tol=li_tol)
    else:
        li = li_joint(polys, box, P, tol=li_tol)
    error = None if li.converged else f"P={P}: Li_f did not converge"
    return li.value, li.abs_error_estimate, error


def run_experiment(config: dict) -> ExperimentReport:
    """Full pipeline: hypothesis gate, singular series, lattice counts.

    Budget failures abort individual rows (recorded in ``row_errors`` and
    flagged ``partial``), never the whole run.  A row whose count left
    values undecided, or whose Li_f quadrature did not converge, is kept,
    recorded in ``row_errors`` and flagged ``partial`` as well.  A failing
    hypothesis gate yields a report with no rows unless ``force`` is set.
    """
    start = time.monotonic()
    cfg = parse_config(config)
    hypothesis = check_hypotheses(
        cfg["polys"], cfg["box"], cfg["mode"], cfg["sigma_override"]
    )
    report = ExperimentReport(
        mode=cfg["mode"],
        rows=[],
        hypothesis=hypothesis,
        config=dict(config),
        metadata={
            "package_version": __version__,
            "numpy_version": np.__version__,
            "threads": cfg["threads"],
        },
    )
    if not hypothesis.all_passed and not cfg["force"]:
        report.metadata["gated"] = True
        report.metadata["elapsed"] = time.monotonic() - start
        return report
    report.heuristic = not hypothesis.all_passed

    try:
        euler = euler_for(cfg, hypothesis.sigma_used)
    except BudgetExceededError as exc:
        report.partial = True
        report.row_errors.append(f"euler product: {exc}")
        report.metadata["elapsed"] = time.monotonic() - start
        return report
    report.heuristic = report.heuristic or euler.heuristic

    for P in cfg["P_grid"]:
        try:
            counted, undecided = count_for(cfg, P)
            li_value, li_error, unconverged = li_for(cfg, P)
            for error in (undecided, unconverged):
                if error:
                    report.partial = True
                    report.row_errors.append(error)
            predicted = euler.value * li_value
            ratio = counted.count / predicted if predicted else math.inf
            report.rows.append(
                ExperimentRow(
                    P=P,
                    lattice_points=counted.lattice_points,
                    empirical=counted.count,
                    predicted=predicted,
                    ratio=ratio,
                    euler_value=euler.value,
                    euler_tail=euler.tail_bound,
                    li_value=li_value,
                    li_error=li_error,
                )
            )
        except BudgetExceededError as exc:
            report.partial = True
            report.row_errors.append(f"P={P}: {exc}")
    report.metadata["elapsed"] = time.monotonic() - start
    return report
