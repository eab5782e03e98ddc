"""State estimation and bad-data detection on the bundled 5-bus case.

Loads the six branch-flow readings, runs the weighted least-squares
estimator, then shows both detectors passing on clean data and firing on
a corrupted meter.
"""

from pathlib import Path

import numpy as np

from fdilab import (
    WeightModel,
    chi_square_test,
    lnr_test,
    residual_covariance,
    wls_estimate,
)
from fdilab.caseio import parse_measurements, parse_meters, parse_network
from fdilab.network import build_h_matrix

CASE = Path(__file__).resolve().parents[1] / "cases" / "5bus"

net = parse_network(CASE / "network.json")
meters = parse_meters(CASE / "meters.json", net)
H = build_h_matrix(net, meters)
z = parse_measurements(CASE / "measurements.json")
weights = WeightModel(meters.sigmas)

print("measurement matrix H (rows = meters, columns = bus angles 2..5):")
print(np.array_str(H.dot(np.eye(H.n)).T, precision=3, suppress_small=True))  # H x of each unit x

result = wls_estimate(H, z, weights)
print("\nestimated angles (rad):", np.round(result.state, 5))
print("objective J =", round(result.objective, 4))

omega = residual_covariance(H, weights)
for label, data in (("clean readings", z), ("meter 2 skewed by 0.5 pu", z + 0.5 * np.eye(6)[2])):
    est = wls_estimate(H, data, weights)
    chi = chi_square_test(est, confidence=0.99)
    lnr = lnr_test(est, omega, confidence=0.99)
    print(f"\n{label}:")
    print(f"  chi-square: J = {chi.statistic:9.4f} vs {chi.threshold:.4f} -> "
          f"{'BAD DATA' if chi.bad_data_detected else 'clean'}")
    line = (f"  LNR:        r = {lnr.statistic:9.4f} vs {lnr.threshold:.4f} -> "
            f"{'BAD DATA' if lnr.bad_data_detected else 'clean'}")
    if lnr.suspect_meter is not None:
        line += f" (meter {lnr.suspect_meter})"
    print(line)
