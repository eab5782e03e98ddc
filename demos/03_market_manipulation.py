"""Monetizing a stealth attack through locational marginal prices.

The operator dispatches the 5-bus market from estimated flows. A targeted
attack raises the perceived flow on the limited line between buses 3 and
4; the operator's redispatch congests that line, splitting the uniform
15 $/MWh price, and the attacker pockets the bus-1/bus-4 spread.
"""

from pathlib import Path

from fdilab import (
    WeightModel,
    arbitrage_profit,
    perceived_case_from_attack,
    solve_dc_opf,
    targeted_attack,
    verify_stealth,
    wls_estimate,
)
from fdilab.caseio import parse_market, parse_measurements, parse_meters, parse_network
from fdilab.network import build_h_matrix

CASE = Path(__file__).resolve().parents[1] / "cases" / "5bus"

net = parse_network(CASE / "network_limit34.json")
meters = parse_meters(CASE / "meters.json", net)
market = parse_market(CASE / "market.json", net)
H = build_h_matrix(net, meters)
z = parse_measurements(CASE / "measurements.json")
weights = WeightModel(meters.sigmas)


def show(tag, result):
    lmps = "  ".join(f"{bus}:{price:7.2f}" for bus, price in result.lmp.items())
    print(f"{tag}: gen = {[round(float(v), 1) for v in result.gen_output]} MW")
    print(f"  LMP $/MWh  {lmps}")
    if result.binding_lines:
        names = [f"{net.branches[b].from_bus}-{net.branches[b].to_bus}" for b in result.binding_lines]
        print(f"  congested: {names}")


before = solve_dc_opf(market)
show("before injection", before)

# pin a +0.03 rad shift at bus 3: the perceived 3-4 flow jumps by 60 MW
atk = targeted_attack(H, {H.state_index(3): 0.03})
print("\nattack support:", list(atk.support),
      "| undetectable:", verify_stealth(z, atk, H, weights))

clean = wls_estimate(H, z, weights)
fooled = wls_estimate(H, z + atk.a, weights)
perceived = perceived_case_from_attack(market, meters, clean.fitted, fooled.fitted)
print("perceived loads (MW):", {b: round(mw, 1) for b, mw in zip(net.buses, perceived.demand.tolist())})

after = solve_dc_opf(perceived)
show("\nafter injection", after)

profit = arbitrage_profit(before, after, buy_bus=1, sell_bus=4, quantity=1.0)
print(f"\nbuy 1 MW at bus 1 before, sell at bus 4 after: {profit:.2f} $/h per MW")
