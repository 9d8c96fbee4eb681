# Square-free values of a cubic in six variables
# ==============================================
#
# The square-free theorem needs n - sigma_f > (d - 1) 2^d / 3 variables,
# so a nonsingular cubic (sigma_f = 0) needs only six.  This runs the full
# experiment on x1^3 + ... + x6^3 over [1, 2]^6.
#
# The Euler factor at p counts zeros mod p^2 over (Z/p^2)^6, p^12 points
# (6.6e18 at p = 37), but the form splits into six equal one-variable
# blocks: one block is swept over p residues, the block histograms are
# convolved, and the singular roots are combined from the blocks' critical
# values.  The residue budget counts that work, not the nominal p^6.  The
# lattice count evaluates one point per orbit of the six exchangeable
# blocks.

from polydensity import run_experiment

config = {
    "polynomials": ["x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x6^3"],
    "box": [[1, 2]] * 6,
    "mode": "squarefree",
    "P_grid": [6, 10],
    "euler_cutoff": 60,
}

report = run_experiment(config)

print("hypothesis checks:")
for check in report.hypothesis.checks:
    print(f"  [{check.status:^7}] {check.name}: {check.detail}")

print(f"\nsingular series over p <= 60: {report.rows[0].euler_value:.6f}")
for row in report.rows:
    print(
        f"  P={row.P:3d}: {row.empirical:8d} square-free values among "
        f"{row.lattice_points:8d} points, predicted {row.predicted:10.1f}, "
        f"ratio {row.ratio:.4f}"
    )
