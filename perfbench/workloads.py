"""Workload inputs, generated from the benchmark seed.

Seed 0 gives the unjittered inputs whose outputs are pinned in
``reference.PINNED``.  Other seeds jitter inputs the program cannot
special-case (the twin-farbox box offset, the circle-method gamma grid and
the P grids of the two lattice workloads) by amounts small enough that the
work per job stays within a few per cent.  The program receives only the
generated config.

Standard library only: job processes import this module.
"""

from __future__ import annotations

import random

WORKLOADS = (
    "prime-quaternary",
    "squarefree-binary",
    "twin-farbox",
    "circle-method",
)


def _jitter(rng: random.Random, seed: int, values: list[int], span: int) -> list[int]:
    if seed == 0:
        return list(values)
    return [v + rng.randint(-span, span) for v in values]


def make_spec(name: str, seed: int, cpus: int) -> dict:
    """Inputs of one job of workload ``name``; every job of a run shares them."""
    rng = random.Random(f"{name}:{seed}")
    if name == "prime-quaternary":
        config = {
            "polynomials": ["x1^2 + x2^2 + x3^2 + x4^2"],
            "box": [[1, 2]] * 4,
            "mode": "prime",
            "P_grid": _jitter(rng, seed, [12, 18, 24], 1),
            "euler_cutoff": 48,
            "threads": 1,
        }
    elif name == "squarefree-binary":
        config = {
            "polynomials": ["x1^2 + x2^2"],
            "box": [[1, 2]] * 2,
            "mode": "squarefree",
            "P_grid": _jitter(rng, seed, [1000, 2000, 4000], 8),
            "euler_cutoff": 300,
            "threads": min(2, cpus),
        }
    elif name == "twin-farbox":
        offset = 0 if seed == 0 else rng.randrange(1, 2000)
        config = {
            "polynomials": ["x1", "x1 + 2"],
            "box": [[10000 + offset, 10001 + offset]],
            "mode": "joint",
            "P_grid": [30000, 60000],
            "euler_cutoff": 10000,
            "threads": 1,
        }
    elif name == "circle-method":
        gammas = [0.0, 0.5, 3.0, 10.0, 14.0]
        if seed:
            # gamma = 0 stays: I(B; 0) = vol(B) is one of the output checks
            gammas = [g * (1 + rng.uniform(-0.01, 0.01)) for g in gammas]
        return {
            "workload": name,
            "kind": "circle",
            "cubic": "x1^3 + 2x2^3 + 3x3^3",
            "table_q": 160,
            "t_f_q": [2, 60],
            "observatory_p": 101,
            "quadratic": "x1^2 + x2^2",
            "box": [[1, 2]] * 2,
            "orthogonality_P": 200,
            "gammas": gammas,
        }
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "kind": "verify", "config": config}
