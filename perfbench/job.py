"""One benchmark job in a fresh interpreter, as a ``polydensity`` CLI user
would run it.

    python3 perfbench/job.py SPEC OUT_DIR TRACE SPAWN_TIME

SPEC is the JSON job spec written by ``run.py``; SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC is
shared by all processes of the machine).  Prints one JSON line: set-up and
job time, peak RSS, the outputs the parent checks, and with TRACE=1 the
per-layer figures.

Set-up is everything from the spawn to ``import polydensity`` plus parsing
the config; the job is the timed call into the package.  The package is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class _NoTrace:
    def span(self, name):
        return nullcontext({})


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import polydensity
    import polydensity.cli

    origin = Path(polydensity.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"polydensity imported from {origin}, not from {ROOT / 'src'}")
    return polydensity


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.  ru_maxrss would also count the
    spawning parent's peak, which Linux carries across vfork and exec."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _probe(patcher, pd) -> dict:
    """Capture result fields the CLI report drops (no timing)."""
    seen = {"unknown_values": 0, "unconverged": 0}

    def on_count(original):
        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            seen["unknown_values"] += result.unknown_values
            return result

        return probed

    def on_li(original):
        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            seen["unconverged"] += int(not result.converged)
            return result

        return probed

    patcher.replace(pd.verify, "count_values", on_count)
    patcher.replace(pd.verify, "li_f", on_li)
    patcher.replace(pd.verify, "li_joint", on_li)
    return seen


def _prepare_verify(pd, spec: dict):
    with open(spec["config_path"], "r", encoding="utf-8") as handle:
        pd.parse_config(json.load(handle))
    return Path(spec["config_path"])


def _run_verify(pd, config_path: Path, out_dir: Path, trace) -> int:
    out = out_dir / "report.json"
    with trace.span("job"):
        return pd.cli.main(
            ["verify", str(config_path), "--format", "json", "--out", str(out)]
        )


def _verify_outputs(rc: int, out_dir: Path) -> dict:
    path = out_dir / "report.json"
    if not path.exists():
        return {"rc": rc, "report": None}
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return {
        "rc": rc,
        "report": {
            "gated": bool(doc["metadata"].get("gated", False)),
            "partial": doc["partial"],
            "row_errors": doc["row_errors"],
            "rows": [
                {k: row[k] for k in ("P", "lattice_points", "empirical", "euler_value")}
                for row in doc["rows"]
            ],
        },
    }


def _prepare_circle(pd, spec: dict):
    return {
        "cubic": pd.parse_polynomial(spec["cubic"], 3),
        "quadratic": pd.parse_polynomial(spec["quadratic"], 2),
        "box": pd.Box(tuple(iv) for iv in spec["box"]),
    }


def _run_circle(pd, spec: dict, inputs: dict, trace) -> dict:
    cubic, quadratic, box = inputs["cubic"], inputs["quadratic"], inputs["box"]
    q_lo, q_hi = spec["t_f_q"]
    with trace.span("job"):
        with trace.span("expsums.table"):
            table = pd.ExpSumTable.build(cubic, spec["table_q"])
        with trace.span("expsums.t_f"):
            t_f = {q: pd.t_f(cubic, q) for q in range(q_lo, q_hi + 1)}
        with trace.span("expsums.observatory"):
            lhs, rhs = pd.observatory_check(cubic, spec["observatory_p"])
        with trace.span("expsums.orthogonality"):
            orth = pd.orthogonality_count(quadratic, box, spec["orthogonality_P"])
        oscillatory = []
        for gamma in spec["gammas"]:
            with trace.span("integrals.oscillatory"):
                oscillatory.append(pd.oscillatory_integral(quadratic, box, gamma))
    return {
        "table_size": len(table.values),
        "t_f": {str(q): v for q, v in t_f.items()},
        "observatory": [lhs, rhs],
        "orthogonality": orth,
        "oscillatory": [
            {
                "gamma": gamma,
                "re": complex(r.value).real,
                "im": complex(r.value).imag,
                "error": r.abs_error_estimate,
                "converged": r.converged,
            }
            for gamma, r in zip(spec["gammas"], oscillatory)
        ],
    }


def main(argv: list[str]) -> int:
    spec_path, out_dir, traced, spawned = argv
    out_dir, traced, spawned = Path(out_dir), traced == "1", float(spawned)
    result: dict = {"error": None}
    try:
        pd = _import_package()
        with open(spec_path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        if spec["kind"] == "verify":
            prepared = _prepare_verify(pd, spec)
        else:
            prepared = _prepare_circle(pd, spec)
        result["setup_s"] = time.monotonic() - spawned

        sys.path.insert(0, str(HERE))
        import tracing

        patcher = tracing.Patcher()
        probes = _probe(patcher, pd)
        tracer = tracing.Tracer() if traced else _NoTrace()
        if traced:
            tracing.install(tracer, patcher, pd)
        try:
            start = time.perf_counter()
            if spec["kind"] == "verify":
                outputs = _run_verify(pd, prepared, out_dir, tracer)
            else:
                outputs = _run_circle(pd, spec, prepared, tracer)
            result["job_s"] = time.perf_counter() - start
        finally:
            patcher.restore()
        result["rss_mb"] = _peak_rss_mb()
        if spec["kind"] == "verify":
            result["outputs"] = _verify_outputs(outputs, out_dir)
        else:
            outputs["count_values"] = pd.count_values(
                prepared["quadratic"], prepared["box"], spec["orthogonality_P"], "prime"
            ).count
            result["outputs"] = outputs
        result["probes"] = probes
        if traced:
            result["layers"] = tracing.layer_metrics(tracer)
    except Exception:  # reported to the parent, which counts the job as failed
        result["error"] = traceback.format_exc()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
