"""End-to-end acceptance checks.

Each test exercises one headline capability and prints a single pass/fail
line (run pytest with -s to see them as they happen; they also appear in
captured output).
"""

import math
import random

from polydensity import (
    Box,
    MultiPoly,
    big_g,
    big_g_from_definition,
    count_values,
    euler_product,
    laurent_expansion,
    li_f,
    observatory_check,
    orthogonality_count,
    oscillatory_integral,
    parse_polynomial,
    primes_upto,
    run_experiment,
    t_f,
)
from polydensity.reports import to_csv


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'pass' if ok else 'FAIL'}] acceptance {num:02d} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_poly(rng: random.Random, n: int, max_degree: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        coeff = rng.choice([c for c in range(-9, 10) if c])
        terms[tuple(exps)] = coeff
    return MultiPoly(n, terms)


def test_01_orthogonality_identity():
    f = parse_polynomial("x1^2 + x2^2", 2)
    box = Box([(1, 2), (1, 2)])
    ok = orthogonality_count(f, box, 1) == 3
    for P in (1, 2, 3):
        direct = count_values(f, box, P, mode="prime").count
        ok = ok and orthogonality_count(f, box, P) == direct
    _check(1, "orthogonality-identity", ok)


def test_02_observatory_identity():
    rng = random.Random(20260823)
    worst = 0.0
    ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        f = _random_poly(rng, n, 3)
        for p in (2, 3, 5, 7, 11, 13):
            lhs, rhs = observatory_check(f, p)
            err = abs(lhs - rhs) / p**n
            worst = max(worst, err)
            ok = ok and err < 1e-6
    _check(2, "observatory-identity", ok, f"worst normalized error {worst:.2e}")


def test_03_t_f_multiplicativity():
    rng = random.Random(3)
    worst = 0.0
    cases = 0
    while cases < 50:
        q1 = rng.randint(2, 30)
        q2 = rng.randint(2, 30)
        if math.gcd(q1, q2) != 1 or q1 * q2 > 200:
            continue
        f = _random_poly(rng, rng.randint(1, 2), 3)
        whole = t_f(f, q1 * q2)
        split = t_f(f, q1) * t_f(f, q2)
        worst = max(worst, abs(whole - split) / max(abs(whole), abs(split), 1.0))
        cases += 1
    _check(3, "t-f-multiplicativity", worst < 1e-8, f"worst rel dev {worst:.2e}")


def test_04_big_g_closed_form():
    ok = True
    for q in range(1, 10**4 + 1):
        value = big_g(q)
        if value != big_g_from_definition(q):
            ok = False
            break
        if any(q % p**3 == 0 for p in (2, 3, 5, 7) if p**3 <= q) and value != 0:
            ok = False
            break
    _check(4, "g-closed-form", ok)


def test_05_univariate_prime_baseline():
    config = {
        "polynomials": ["x1"],
        "box": [[2, 3]],
        "mode": "prime",
        "P_grid": [10**6],
        "euler_cutoff": 100,
        "force": True,  # the variable-count margin is vacuous here
    }
    report = run_experiment(config)
    row = report.rows[0]
    ok = row.euler_value == 1.0 and abs(row.ratio - 1) < 0.01
    _check(5, "univariate-prime-baseline", ok, f"ratio {row.ratio:.5f}")


def test_06_squarefree_baseline():
    f = parse_polynomial("x1", 1)
    est = euler_product(f, "squarefree", cutoff=10**4)
    product_ok = abs(est.value - 6 / math.pi**2) < 1e-4
    counted = count_values(f, Box([(2, 3)]), 10**6, mode="squarefree")
    density = counted.count / counted.lattice_points
    density_ok = abs(density / est.value - 1) < 0.005
    _check(
        6,
        "squarefree-baseline",
        product_ok and density_ok,
        f"density {density:.6f} vs product {est.value:.6f}",
    )


def test_07_multivariate_squarefree():
    f = parse_polynomial("x1^2 + x2^2", 2)
    box = Box([(1, 2), (1, 2)])
    est = euler_product(f, "squarefree", cutoff=100)
    counted = count_values(f, box, 10**3, mode="squarefree")
    density = counted.count / counted.lattice_points
    rel = abs(density / est.value - 1)
    _check(7, "multivariate-squarefree", rel < 0.01, f"rel dev {rel:.4f}")


def test_08_multivariate_prime():
    config = {
        "polynomials": ["x1^2 + x2^2 + x3^2 + x4^2"],
        "box": [[1, 2]] * 4,
        "mode": "prime",
        "P_grid": [10, 18, 25],
        "euler_cutoff": 100,
    }
    report = run_experiment(config)
    devs = [abs(row.ratio - 1) for row in report.rows]
    final_ok = devs[-1] < 0.25
    # small-P counts are noisy; allow 0.01 of wobble on the downward trend
    trend_ok = all(b <= a + 0.01 for a, b in zip(devs, devs[1:]))
    _check(
        8,
        "multivariate-prime",
        final_ok and trend_ok,
        "deviations " + ", ".join(f"{d:.4f}" for d in devs),
    )


def test_09_joint_primes():
    config = {
        "polynomials": ["x1", "x1 + 2"],
        "box": [[2, 3]],
        "mode": "joint",
        "P_grid": [10**5],
        "euler_cutoff": 10**4,
    }
    report = run_experiment(config)
    row = report.rows[0]
    ratio_ok = abs(row.ratio - 1) < 0.05
    twin = 2.0
    for p in map(int, primes_upto(10**4)):
        if p > 2:
            twin *= 1 - 1 / (p - 1) ** 2
    constant_ok = abs(row.euler_value - twin) < 1e-3
    _check(
        9,
        "joint-primes",
        ratio_ok and constant_ok,
        f"ratio {row.ratio:.4f}, constant {row.euler_value:.6f} vs {twin:.6f}",
    )


def test_10_archimedean_suite():
    f0 = parse_polynomial("x1^2 + x2^2", 2)
    box2 = Box([(1, 2), (1, 2)])
    vol_ok = abs(oscillatory_integral(f0, box2, 0.0).value - 1.0) < 1e-10

    linear = parse_polynomial("x1", 1)
    box1 = Box([(1, 2)])
    closed_ok = True
    for gamma in (0.5, 2.0, -7.25):
        got = oscillatory_integral(linear, box1, gamma).value
        exact = (
            complex(math.cos(4 * math.pi * gamma), math.sin(4 * math.pi * gamma))
            - complex(math.cos(2 * math.pi * gamma), math.sin(2 * math.pi * gamma))
        ) / (2j * math.pi * gamma)
        closed_ok = closed_ok and abs(got - exact) < 1e-8

    quad = parse_polynomial("x1^2", 1)
    li = li_f(quad, box1, 10**3)
    laurent_ok = True
    for K in (2, 4, 8):
        value, bound = laurent_expansion(quad, box1, 10**3, K)
        laurent_ok = laurent_ok and abs(value - li.value) <= (
            bound + li.abs_error_estimate
        )
    _check(10, "archimedean-suite", vol_ok and closed_ok and laurent_ok)


def test_11_determinism_across_threads():
    base = {
        "polynomials": ["x1^2 + x2^2"],
        "box": [[1, 2], [1, 2]],
        "mode": "squarefree",
        "P_grid": [50, 120],
        "euler_cutoff": 50,
    }
    reports = [
        run_experiment(dict(base, threads=threads)) for threads in (1, 4)
    ]
    counts_ok = [r.empirical for r in reports[0].rows] == [
        r.empirical for r in reports[1].rows
    ]
    csv_ok = to_csv(reports[0]) == to_csv(reports[1])
    _check(11, "determinism-across-threads", counts_ok and csv_ok)
