"""One cold set-up: import fdilab, parse a network and meters, build H and weights.

Run as ``python3 bench/setup_probe.py NETWORK METERS`` with ``src`` on
PYTHONPATH; prints a JSON object with the import time and the model size.
The caller times the whole process.
"""

import json
import sys
import time


def main(network_path: str, meters_path: str) -> None:
    start = time.perf_counter()
    import fdilab
    from fdilab import caseio, estimation, network

    imported = time.perf_counter()
    net = caseio.parse_network(network_path)
    meters = caseio.parse_meters(meters_path, net)
    H = network.build_h_matrix(net, meters)
    estimation.WeightModel(meters.sigmas)
    print(json.dumps({"import_s": imported - start, "m": H.m, "n": H.n, "fdilab": fdilab.__file__}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
