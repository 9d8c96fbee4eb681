"""The benchmark's tracer replaces package functions by name; a renamed
name must fail here before it fails a benchmark run."""

import importlib.util
import json
from pathlib import Path

import polydensity
import polydensity.cli
from polydensity import Box, parse_polynomial

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "verify", "localcounts", "counting", "integrals", "expsums")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {name: dict(vars(getattr(polydensity, name))) for name in MODULES}


def test_install_and_restore():
    tracing = _load_tracing()
    before = _attributes()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    tracing.install(tracer, patcher, polydensity)
    try:
        f = parse_polynomial("x1^2 + x2^2", 2)
        for mode in ("prime", "squarefree"):
            polydensity.verify.count_values(f, Box([(1, 2), (1, 2)]), 30, mode)
    finally:
        patcher.restore()
    assert _attributes() == before
    # one table span per count, none nested in another
    tables = [i for i, rec in enumerate(tracer.spans) if rec["name"] == "counting.table"]
    assert len(tables) == 2
    assert all(tracer.spans[i]["parent"] not in tables for i in tables)


def test_probed_names_exist():
    for name in ("count_values", "li_f", "li_joint"):
        assert callable(getattr(polydensity.verify, name))


def test_experiment_records_every_layer_span():
    """A refactor that stops calling a traced function through its module
    attribute would silently zero that layer's metrics; fail here instead."""
    tracing = _load_tracing()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    tracing.install(tracer, patcher, polydensity)
    try:
        report = polydensity.verify.run_experiment(
            {
                "polynomials": ["x1^2 + x2^2 + x3^2 + x4^2"],
                "box": [[1, 2]] * 4,
                "mode": "prime",
                "P_grid": [4],
                "euler_cutoff": 12,
            }
        )
    finally:
        patcher.restore()
    assert len(report.rows) == 1
    spans = tracer.spans
    names = {rec["name"] for rec in spans}
    for name in ("integrals.li", "counting.count_values", "localcounts.euler_product"):
        assert name in names
    # the Euler product's own residue counts, not only the gate's
    nested = {
        (rec["name"], spans[rec["parent"]]["name"])
        for rec in spans
        if rec["parent"] is not None
    }
    assert ("localcounts.factor", "localcounts.euler_product") in nested
    assert ("localcounts.count_zeros_mod", "localcounts.factor") in nested


def test_verify_out_records_emit_span(tmp_path):
    """``reports.emit_s`` times ``cli.to_json``; ``verify --out`` must reach
    it through that module attribute."""
    tracing = _load_tracing()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(
        json.dumps(
            {
                "polynomials": ["x1^2 + x2^2"],
                "box": [[1, 2], [1, 2]],
                "mode": "squarefree",
                "P_grid": [10],
                "euler_cutoff": 12,
            }
        )
    )
    tracing.install(tracer, patcher, polydensity)
    try:
        code = polydensity.cli.main(["verify", str(cfg), "--out", str(out)])
    finally:
        patcher.restore()
    assert code == 0
    assert "reports.emit" in {rec["name"] for rec in tracer.spans}
    assert json.loads(out.read_text())["rows"]


def test_squarefree_factor_counts_once():
    """``localcounts.residues`` adds p^n per count_zeros_mod span; a p^2
    count that took its N_p through count_zeros_mod would add it twice."""
    tracing = _load_tracing()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    f = parse_polynomial("x1^2 + x2^2", 2)
    tracing.install(tracer, patcher, polydensity)
    try:
        polydensity.verify.euler_product(f, "squarefree", 30)
    finally:
        patcher.restore()
    spans = tracer.spans
    factors = [i for i, rec in enumerate(spans) if rec["name"] == "localcounts.factor"]
    counts = [
        i for i, rec in enumerate(spans) if rec["name"] == "localcounts.count_zeros_mod"
    ]
    primes = [int(p) for p in polydensity.primes_upto(30)]
    assert len(factors) == len(primes)
    # one count per factor, each directly under its factor span
    assert [spans[i]["parent"] for i in counts] == factors
    metrics = tracing.layer_metrics(tracer)
    assert metrics["localcounts.residues"] == sum(p**2 for p in primes)


def test_circle_method_records_value_range_spans():
    """The circle-method job reads ``intervals.value_range_s`` from the range
    calls of the oscillatory integral, which must go through a traced module
    attribute.  The orthogonality count takes its window from the lattice
    values and calls no range enclosure."""
    tracing = _load_tracing()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    f = parse_polynomial("x1^2 + x2^2", 2)
    box = Box([(1, 2), (1, 2)])
    tracing.install(tracer, patcher, polydensity)
    try:
        # the job's own spans around the two calls, as in perfbench/job.py
        with tracer.span("integrals.oscillatory"):
            polydensity.oscillatory_integral(f, box, 0.5)
        with tracer.span("expsums.orthogonality"):
            polydensity.orthogonality_count(f, box, 5)
    finally:
        patcher.restore()
    spans = tracer.spans
    parents = {
        spans[rec["parent"]]["name"]
        for rec in spans
        if rec["name"] == "intervals.value_range" and rec["parent"] is not None
    }
    assert parents == {"integrals.oscillatory"}
