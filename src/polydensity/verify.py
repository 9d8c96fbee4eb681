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

#: mode -> name of the density formula whose hypotheses the gate checks
MODES = {
    "prime": "theorem-1.2",
    "squarefree": "theorem-1.4",
    "joint": "conjecture-A.3",
}

#: the keys of an experiment config; ``parse_config`` refuses any other
_REQUIRED_KEYS = ("polynomials", "box", "mode", "P_grid", "euler_cutoff")
_OPTIONAL_KEYS = ("sigma_override", "force", "threads")

#: check status of each irreducibility or separability verdict
_STATUS = {
    "irreducible": "pass",
    "separable": "pass",
    "reducible": "fail",
    "not-separable": "fail",
}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


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
    sigma_problem = ""
    if sigma_override is not None:
        sigma = SigmaEstimate(value=int(sigma_override), method="user-supplied")
    elif not joint:
        try:
            sigma = singular_dimension_estimate(f.top_degree_part())
        except PolynomialError as exc:  # a sweep past poly.SIGMA_BUDGET
            sigma_problem = str(exc)

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
        status, detail = "unknown", sigma_problem
        if sigma is not None:
            d, margin = f.degree, n - sigma.value
            if mode == "prime":
                required = max(4, (d - 1) * 2 ** (d - 1) + 1)
                rel, ok = ">=", margin >= required
            else:
                required = max(1.0, (d - 1) * 2**d / 3)
                rel, ok = ">", margin > required
            status = "pass" if ok else "fail"
            detail = f"n - sigma = {margin}, needs {rel} {required:g}"
        checks.append(HypothesisCheck("singular-locus-margin", status, detail))

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

    return HypothesisReport(mode=MODES[mode], checks=checks, sigma_used=sigma)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(config: dict) -> dict:
    """Validate the experiment config and parse its polynomial/box fields.

    Returns a dict with keys: polys, box, mode, P_grid, euler_cutoff,
    sigma_override, force, threads.  An unknown key is refused, so
    a misspelt option never goes unnoticed.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(config).difference(_REQUIRED_KEYS, _OPTIONAL_KEYS))
    if unknown:
        known = _REQUIRED_KEYS + _OPTIONAL_KEYS
        raise ConfigError(f"unknown config keys {unknown}; known: {known}")
    for key in _REQUIRED_KEYS:
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
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad box: {exc}") from exc
    n = box.n_dims
    texts = config["polynomials"]
    if (
        not isinstance(texts, list)
        or not texts
        or not all(isinstance(t, str) for t in texts)
    ):
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
        or not all(_is_int(p) and p >= 1 for p in p_grid)
    ):
        raise ConfigError("P_grid must be a non-empty list of positive integers")
    cutoff = config["euler_cutoff"]
    if not _is_int(cutoff) or cutoff < 2:
        raise ConfigError("euler_cutoff must be an integer >= 2")
    sigma_override = config.get("sigma_override")
    if sigma_override is not None and not (
        _is_int(sigma_override) and 0 <= sigma_override <= n
    ):
        raise ConfigError(f"sigma_override must be null or an integer in [0, {n}]")
    force = config.get("force", False)
    if not isinstance(force, bool):
        raise ConfigError("force must be true or false")
    threads = config.get("threads", 1)
    if not _is_int(threads) or threads < 1:
        raise ConfigError("threads must be a positive integer")
    return {
        "polys": polys,
        "box": box,
        "mode": mode,
        "P_grid": list(p_grid),
        "euler_cutoff": cutoff,
        "sigma_override": sigma_override,
        "force": force,
        "threads": threads,
    }


def euler_for(cfg: dict, sigma: SigmaEstimate | None) -> EulerProductEstimate:
    """The truncated singular series of a parsed config."""
    return euler_product(
        cfg["polys"],
        cfg["mode"],
        cutoff=cfg["euler_cutoff"],
        sigma=sigma.value if sigma else 0,
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
        threads=cfg["threads"],
    )
    if counted.unknown_values:
        return counted, f"P={P}: {counted.unknown_values} values undecided"
    return counted, None


def li_for(cfg: dict, P: int) -> tuple[float | None, float, str | None]:
    """(value, error estimate, row error) of the archimedean factor of a
    parsed config at one P.  The row error says Li_f did not converge; or,
    with value None as there is no prediction, that the quadrature refused
    the box or that f0 > 1 on P*B, which Li_f needs, was not certified."""
    polys, box, mode = cfg["polys"], cfg["box"], cfg["mode"]
    if mode == "squarefree":
        # square-free density is per lattice point, not per log
        return float(box.lattice_point_count(P)), 0.0, None
    try:
        li = li_f(polys[0], box, P) if mode == "prime" else li_joint(polys, box, P)
    except (CertificationError, PositivityError) as exc:
        return None, 0.0, f"P={P}: Li_f not certified: {exc}"
    except BudgetExceededError as exc:
        return None, 0.0, f"P={P}: Li_f not computed: {exc}"
    error = None if li.converged else f"P={P}: Li_f did not converge"
    return li.value, li.abs_error_estimate, error


def run_experiment(config: dict) -> ExperimentReport:
    """Full pipeline: hypothesis gate, singular series, lattice counts.

    Budget failures abort individual rows (recorded in ``row_errors`` and
    flagged ``partial``), never the whole run.  A row whose count left
    values undecided, or whose Li_f quadrature did not converge, is kept,
    recorded in ``row_errors`` and flagged ``partial`` as well; a row whose
    Li_f could not be certified is recorded and flagged, then dropped.  A
    failing hypothesis gate yields a report with no rows unless ``force`` is
    set.
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
            li_value, li_error, li_problem = li_for(cfg, P)
            for error in (undecided, li_problem):
                if error:
                    report.partial = True
                    report.row_errors.append(error)
            if li_value is None:
                continue
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
