"""polydensity benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Jobs run one after another (a
closed loop with one client), each in a fresh interpreter, so library caches
start cold as they do for a ``polydensity verify`` call.  A job starts
while a typical job cycle still ends within S seconds.  Every job's outputs
are checked against ``reference.expected``; a job whose outputs are wrong,
that raises, is gated, partial or over budget counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  ``job_s`` is
the mean job time of the run: on a shared host whose speed switches between
a fast and a slow state for seconds to minutes at a time, the mean weighs
the two states by the time spent in each, while the median of a few dozen
jobs jumps between them.  The median and the tail percentile are printed.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics: the medians over traced jobs, plus the traced-minus-untraced mean
job time.  Human-readable lines go first; the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: the whole run, set-up included, must end well within 180 s
_RUN_LIMIT_S = 170.0


def _tail(values: list[float]) -> str:
    """The highest nearest-rank percentile above the median that has at
    least ten samples beyond it, as text."""
    ordered = sorted(values)
    n = len(ordered)
    q = math.floor(100 * (n - 10) / n)
    if q <= 50:
        return "no percentile above the median has ten samples beyond it"
    return f"p{q} {ordered[math.ceil(q * n / 100) - 1]:.4g} s"


def _run_job(spec_path: Path, out_dir: Path, traced: bool, timeout: float) -> dict:
    out_dir.mkdir()
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "job.py"), str(spec_path), str(out_dir),
           "1" if traced else "0", repr(spawned)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {timeout:.0f} s", "traced": traced}
    lines = done.stdout.strip().splitlines()
    try:
        job = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        job = {"error": f"job exited {done.returncode} without a result: {done.stderr[-400:]}"}
    job["traced"] = traced
    return job


def _per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, from layer_map.json."""
    with open(HERE / "layer_map.json", "r", encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)["per_layer"]]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "polydensity" / "__init__.py").is_file():
        print(f"no polydensity sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = workloads.make_spec(args.workload, args.seed, os.cpu_count() or 1)
    try:
        ref = reference.expected(spec, args.seed)
    except reference.InconsistentReference as exc:
        print(f"benchmark reference is inconsistent: {exc}", file=sys.stderr)
        return 1

    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        if spec["kind"] == "verify":
            spec["config_path"] = str(work / "config.json")
            Path(spec["config_path"]).write_text(json.dumps(spec["config"]))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        # compile the package's bytecode before the first timed job
        subprocess.run([sys.executable, "-c", "import polydensity"], cwd=ROOT / "src",
                       check=True, capture_output=True, timeout=60)
        deadline = time.monotonic() + args.seconds
        jobs: list[dict] = []
        cycles: list[float] = []
        minimum = 2 if args.trace else 1
        # a job starts only if a typical job cycle ends by the deadline, so
        # a run lasts --seconds, not --seconds plus a straggling last job
        while len(jobs) < minimum or (
            time.monotonic() + statistics.median(cycles) <= deadline
        ):
            left = _RUN_LIMIT_S - (time.monotonic() - started)
            if left < 5:
                break
            traced = bool(args.trace) and len(jobs) % 2 == 1
            cycle_start = time.monotonic()
            job = _run_job(spec_path, work / f"job{len(jobs)}", traced, left)
            cycles.append(time.monotonic() - cycle_start)
            job["failures"] = reference.check(spec, ref, job)
            jobs.append(job)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [j for j in jobs if j["failures"]]
    for j in failed[:5]:
        print(f"failed job: {'; '.join(j['failures'])}", file=sys.stderr)
    timed = [j for j in jobs if "job_s" in j]
    plain = [j["job_s"] for j in timed if not j["traced"]]
    setups = [j["setup_s"] for j in timed]
    if not plain or not setups:
        print("no job completed", file=sys.stderr)
        return 1
    defects = []
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{len(failed)} failed (failed_frac {len(failed) / len(jobs):.3f})")

    if args.trace:
        traced_jobs = [j["layers"] for j in timed if j["traced"]]
        if not traced_jobs:
            print("no traced job completed", file=sys.stderr)
            return 1
        metrics = {}
        for name, unit in _per_layer():
            if name == "trace.overhead_s":
                value = statistics.fmean(j["job_s"] for j in timed if j["traced"]) - \
                    statistics.fmean(plain)
            elif unit == "count":
                value = statistics.median_low(j[name] for j in traced_jobs)
            else:
                value = statistics.median(j[name] for j in traced_jobs)
            metrics[name] = _metric(value, unit)
        for name in tracing.COUNTS:
            seen = sorted({j[name] for j in traced_jobs})
            if len(seen) > 1:
                defects.append(f"count {name} differs between identical jobs: {seen}")
        shares = {layer: metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
        shares["unattributed"] = metrics["job.unattributed_s"]["value"]
        whole = sum(shares.values()) or 1.0
        print(f"self time by layer over {len(traced_jobs)} traced jobs "
              f"(dominant: {max(shares, key=shares.get)}):")
        for layer, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {value:10.4f} s  {100 * value / whole:5.1f}%")
    else:
        metrics = {
            "job_s": _metric(statistics.fmean(plain), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(
                statistics.median(j["rss_mb"] for j in timed if not j["traced"]), "MB"),
        }
        print(f"job_s over {len(plain)} jobs: mean {statistics.fmean(plain):.4g} s, "
              f"median {statistics.median(plain):.4g} s, {_tail(plain)}; "
              f"sorted: {' '.join(f'{v:.4g}' for v in sorted(plain))}")
    for name, m in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{label}")
    for d in defects:
        print(f"DEFECT: {d}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not defects,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
