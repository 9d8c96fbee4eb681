# A full experiment: predicted vs. empirical densities
# ====================================================
#
# This pulls everything together: hypothesis checks gate the run, the
# Euler product and the archimedean integral build the prediction, the
# lattice count supplies the ground truth, and a report collects the
# ratios.  The same flow is available from the command line:
#
#     polydensity verify config.json --format csv

import json

from polydensity import run_experiment
from polydensity.reports import to_csv, to_json

config = {
    "polynomials": ["x1^2 + x2^2 + x3^2 + x4^2"],
    "box": [[1, 2], [1, 2], [1, 2], [1, 2]],
    "mode": "prime",
    "P_grid": [10, 18, 25],
    "euler_cutoff": 100,
}

report = run_experiment(config)

print("hypothesis checks:")
for check in report.hypothesis.checks:
    print(f"  [{check.status:^7}] {check.name}")

print("\nresults:")
for row in report.rows:
    print(
        f"  P={row.P:3d}: empirical={row.empirical:6d}  "
        f"predicted={row.predicted:10.1f}  ratio={row.ratio:.4f}"
    )

# The same report serializes to CSV (the format the CLI emits) ...
print("\nCSV:")
print(to_csv(report))

# ... or to JSON for archival and later re-emission.
doc = json.loads(to_json(report))
print("metadata:", json.dumps(doc["metadata"], indent=2, sort_keys=True))
