"""Stealth measurement attacks: additive corruptions the detectors cannot see.

Any perturbation of the form a = H c leaves the WLS residual unchanged,
so residual-based detectors keep reporting clean data while the state
estimate silently moves by c. This script builds one directly, one
confined to a 3-meter foothold, and shows the feasibility boundary.
"""

from pathlib import Path

import numpy as np

from fdilab import (
    WeightModel,
    attack_from_c,
    random_constrained_attack,
    verify_stealth,
    wls_estimate,
)
from fdilab.caseio import parse_measurements, parse_meters, parse_network
from fdilab.errors import InfeasibleSupport
from fdilab.network import build_h_matrix

CASE = Path(__file__).resolve().parents[1] / "cases" / "5bus"

net = parse_network(CASE / "network.json")
meters = parse_meters(CASE / "meters.json", net)
H = build_h_matrix(net, meters)
z = parse_measurements(CASE / "measurements.json")
weights = WeightModel(meters.sigmas)

# attacker-chosen state shift: pull the bus-2 angle by 5 mrad
atk = attack_from_c(H, [0.005, 0.0, 0.0, 0.0])
print("direct attack a = Hc touches meters", list(atk.support))
print("stealthy on the recorded data:", verify_stealth(z, atk, H, weights))

before = wls_estimate(H, z, weights)
after = wls_estimate(H, z + atk.a, weights)
print("state shift achieved:", np.round(after.state - before.state, 6))
print("residual norm before/after:",
      round(np.sqrt(before.objective), 6), "/", round(np.sqrt(after.objective), 6))

# foothold of only three meters (the smallest always-feasible support)
foothold = (0, 2, 3)
confined = random_constrained_attack(H, foothold, seed=7, magnitude=0.1)
print(f"\nconfined attack on meters {foothold}: support {list(confined.support)},",
      "stealthy:", verify_stealth(z, confined, H, weights))

# a single compromised meter is never enough on this system
try:
    random_constrained_attack(H, [4], seed=7)
except InfeasibleSupport as exc:
    print("single-meter foothold:", type(exc).__name__, "-", exc)
