"""In-memory span tracer for one benchmark job.

Spans are recorded by replacing polydensity functions at the module
attribute their callers look up (``polydensity.verify.count_values`` is the
name ``run_experiment`` calls), so the package itself is never edited.
Spans live in a list until the job ends; self time is a span's duration
minus the part of it that its child spans cover.

High-frequency calls (per-value ``is_prime`` / ``is_squarefree``) are not
spans: they are tallied as a call count plus a summed time.

Standard library only, so that importing this module adds nothing to the
job's measured set-up time.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "verify",
    "poly",
    "intervals",
    "localcounts",
    "counting",
    "integrals",
    "quadrature",
    "expsums",
    "reports",
)


class Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may fill with counts."""
        stack = self._stack()
        rec = {"name": name, "parent": stack[-1] if stack else None, "attrs": {}}
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, patcher: Patcher, owner, attr: str, name: str, attrs_of=None) -> None:
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                with tracer.span(name) as attrs:
                    result = original(*args, **kwargs)
                    if attrs_of is not None:
                        attrs.update(attrs_of(args, result))
                    return result

            return traced

        patcher.replace(owner, attr, make)

    def tally(self, patcher: Patcher, owner, attr: str, name: str) -> None:
        """Count calls and sum their time; nested calls of the same thread
        (``is_squarefree`` calling ``is_prime``) count once."""
        tracer = self

        def make(original):
            def tallied(*args, **kwargs):
                local = tracer._local
                if getattr(local, "tallying", False):
                    return original(*args, **kwargs)
                local.tallying = True
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    local.tallying = False
                    with tracer._lock:
                        entry = tracer.tallies[name]
                        entry[0] += 1
                        entry[1] += elapsed

            return tallied

        patcher.replace(owner, attr, make)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, rec in enumerate(self.spans):
            if rec["parent"] is not None:
                children[rec["parent"]].append(i)
        out = []
        for i, rec in enumerate(self.spans):
            covered = 0.0
            cursor = rec["start"]
            for start, end in sorted(
                (self.spans[c]["start"], self.spans[c]["end"]) for c in children[i]
            ):
                start, end = max(start, cursor), min(end, rec["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(rec["end"] - rec["start"] - covered)
        return out


def _residues(args, result) -> dict:
    """Sum of p^n over count_zeros_mod(f, m) calls, m = p or p^2 (computed)."""
    f, modulus = args[0], args[1]
    root = math.isqrt(modulus)
    p = root if root * root == modulus else modulus
    return {"residues": p**f.n_vars}


def _count_result(args, result) -> dict:
    return {
        "lattice_points": result.lattice_points,
        "unknown_values": result.unknown_values,
    }


def _quadrature_result(args, result) -> dict:
    return {"evaluations": result.evaluations, "unconverged": int(not result.converged)}


def install(tracer: Tracer, patcher: Patcher, pd) -> None:
    """Wrap the layer boundaries of the polydensity package ``pd``."""
    cli, verify, localcounts = pd.cli, pd.verify, pd.localcounts
    counting, integrals, expsums = pd.counting, pd.integrals, pd.expsums
    wraps = [
        (cli, "run_experiment", "verify.run_experiment", None),
        (cli, "to_json", "reports.emit", None),
        (verify, "check_hypotheses", "verify.check_hypotheses", None),
        (verify, "heuristic_irreducibility", "poly.irreducibility", None),
        # the square-free gate's counterpart of the irreducibility test
        (verify, "separability_check", "poly.irreducibility", None),
        (verify, "singular_dimension_estimate", "poly.sigma", None),
        (verify, "certify_above", "intervals.certify", None),
        (integrals, "certify_above", "intervals.certify", None),
        (integrals, "value_range", "intervals.value_range", None),
        (expsums, "value_range", "intervals.value_range", None),
        (verify, "fixed_prime_divisors", "localcounts.fixed_prime_divisors", None),
        (verify, "euler_product", "localcounts.euler_product", None),
        (localcounts, "prime_euler_factor", "localcounts.factor", None),
        (localcounts, "squarefree_euler_factor", "localcounts.factor", None),
        (localcounts, "joint_euler_factor", "localcounts.factor", None),
        (localcounts, "count_zeros_mod", "localcounts.count_zeros_mod", _residues),
        (verify, "count_values", "counting.count_values", _count_result),
        (counting, "_sieve_bools", "counting.table", None),
        (counting, "squarefree_table", "counting.table", None),
        (expsums, "primes_in_interval", "counting.primes_in_interval", None),
        (verify, "li_f", "integrals.li", None),
        (verify, "li_joint", "integrals.li", None),
        (integrals, "integrate_box", "quadrature.integrate_box", _quadrature_result),
    ]
    for owner, attr, name, attrs_of in wraps:
        tracer.wrap(patcher, owner, attr, name, attrs_of)
    tracer.tally(patcher, counting, "is_prime", "counting.value_test")
    tracer.tally(patcher, counting, "is_squarefree", "counting.value_test")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced job, keyed by metric name."""
    selfs = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for rec, self_s in zip(tracer.spans, selfs):
        name = rec["name"]
        total[name] += rec["end"] - rec["start"]
        own[name] += self_s
        calls[name] += 1
        for key, value in rec["attrs"].items():
            attrs[key] += value
        layer_self[name.split(".")[0]] += self_s
    tests, test_s = tracer.tallies["counting.value_test"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "verify.gate_s": own["verify.check_hypotheses"],
        "poly.irreducibility_s": total["poly.irreducibility"],
        "poly.sigma_s": total["poly.sigma"],
        "intervals.certify_s": total["intervals.certify"],
        "intervals.certify_calls": calls["intervals.certify"],
        "intervals.value_range_s": total["intervals.value_range"],
        "localcounts.euler_s": total["localcounts.euler_product"],
        "localcounts.factors": calls["localcounts.factor"],
        "localcounts.residues": attrs["residues"],
        "localcounts.residues_per_s": ratio(
            attrs["residues"], total["localcounts.count_zeros_mod"]
        ),
        "localcounts.factor_us": ratio(
            total["localcounts.factor"], calls["localcounts.factor"], 1e6
        ),
        "counting.count_s": total["counting.count_values"],
        "counting.lattice_points": attrs["lattice_points"],
        "counting.points_per_s": ratio(
            attrs["lattice_points"], total["counting.count_values"]
        ),
        "counting.table_s": total["counting.table"],
        "counting.value_tests": tests,
        "counting.value_test_us": ratio(test_s, tests, 1e6),
        "counting.unknown_values": attrs["unknown_values"],
        "integrals.li_s": total["integrals.li"],
        "integrals.oscillatory_s": total["integrals.oscillatory"],
        "quadrature.integrate_s": total["quadrature.integrate_box"],
        "quadrature.evaluations": attrs["evaluations"],
        "quadrature.evals_per_s": ratio(
            attrs["evaluations"], total["quadrature.integrate_box"]
        ),
        "quadrature.unconverged": attrs["unconverged"],
        "expsums.table_s": total["expsums.table"],
        "expsums.t_f_s": total["expsums.t_f"],
        "expsums.orthogonality_s": total["expsums.orthogonality"],
        "expsums.observatory_s": total["expsums.observatory"],
        "reports.emit_s": total["reports.emit"],
        "job.unattributed_s": layer_self["job"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


#: per-layer counts that must repeat exactly between jobs on the same inputs
COUNTS = (
    "intervals.certify_calls",
    "localcounts.factors",
    "localcounts.residues",
    "counting.lattice_points",
    "counting.value_tests",
    "counting.unknown_values",
    "quadrature.evaluations",
    "quadrature.unconverged",
)

#: counts derived from the inputs (box, moduli) rather than measured
COMPUTED = ("localcounts.residues", "counting.lattice_points")
