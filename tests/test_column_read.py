"""The case readers read each record list a column at a time. Here they are checked against the
record-by-record readers they replaced, kept verbatim below as the reference: on valid grids every
column, H and LP must be byte-equal, and on corrupted files every error, message and exit code
must be the same. The precedence of faults and the duplicate-key hook are pinned too."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from conftest import CASES_5BUS
from fdilab import caseio
from fdilab.caseio import REQUIRED, fields, load_json
from fdilab.cli import main
from fdilab.errors import (
    DisconnectedGraph,
    DuplicateBus,
    FdiLabError,
    NonPositiveReactance,
    ParseError,
    UnknownBus,
    ValidationError,
)
from fdilab.market import DispatchCase, Generator, solve_dc_opf
from fdilab.network import Branch, Meter, MeterConfig, NetworkModel, build_h_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gridgen  # noqa: E402


# -- the reference: the record-by-record readers the column read replaced, kept verbatim

def reference_items(read):
    return lambda value: tuple([read(item) for item in caseio._list(value)])


REFERENCE_NETWORK = {**caseio._NETWORK, "buses": (reference_items(caseio._integer), REQUIRED)}


def reference_network(path) -> NetworkModel:
    base_mva, slack, buses, records = fields(load_json(path), REFERENCE_NETWORK, path)
    branches = tuple(Branch(*fields(rec, caseio._BRANCH, path, "branches", i)) for i, rec in enumerate(records))
    return NetworkModel(buses, branches, slack, base_mva)


def reference_meters(path, net: NetworkModel) -> MeterConfig:
    (records,) = fields(load_json(path), caseio._METERS, path)
    branches = net.branches
    first: dict[tuple[int, int], int] = {}  # each bus pair's first branch, keyed (lower id, higher id)
    for i, br in enumerate(branches):
        f, t = br.from_bus, br.to_bus
        first.setdefault((f, t) if f < t else (t, f), i)
    meters = []
    for i, rec in enumerate(records):
        (f, t), sigma = fields(rec, caseio._METER, path, "meters", i)
        index = first.get((f, t) if f < t else (t, f))
        if index is None:
            raise ValidationError(f"meters[{i}]: no branch joins buses {f} and {t}")
        meters.append(Meter(index, 1 if branches[index].from_bus == f else -1, sigma))
    return MeterConfig(tuple(meters))


def reference_market(path, net: NetworkModel) -> DispatchCase:
    generators, loads = fields(load_json(path), caseio._MARKET, path)
    generators = tuple(Generator(*fields(rec, caseio._GENERATOR, path, "generators", i))
                       for i, rec in enumerate(generators))
    demand = [0.0] * len(net.buses)
    for i, rec in enumerate(loads):
        bus, mw = fields(rec, caseio._LOAD, path, "loads", i)
        if mw < 0:  # finite: _number refuses the rest
            raise ValidationError(f"load at bus {bus}: demand {mw} < 0")
        if bus not in net.position:
            raise UnknownBus(f"load references unknown bus {bus}")
        demand[net.position[bus]] += mw
    return DispatchCase(net, generators, demand)


# -- valid grids: the same bytes

def column_bits(net: NetworkModel, meters: MeterConfig) -> dict:
    """Every column of a network and a meter set, arrays as their dtype and bytes, with their record views."""
    arrays = {name: getattr(net, name) for name in ("ends", "columns", "reactances", "limits_mw")}
    arrays.update({f"meters.{name}": getattr(meters, name) for name in ("branch", "orientation", "sigmas")})
    bits = {name: (a.dtype.str, a.shape, a.tobytes(), a.flags.writeable) for name, a in arrays.items()}
    bits.update(buses=net.buses, slack=net.slack, base_mva=net.base_mva, position=tuple(net.position.items()),
                state_buses=net.state_buses, branches=[(type(br.from_bus), type(br.x_pu), br) for br in net.branches],
                meters=list(meters.meters), count=len(meters))
    return bits


def recorded_lp(case: DispatchCase) -> tuple:
    """The bytes of the LP that ``solve_dc_opf`` hands linprog for ``case``, which is not solved."""
    seen = []

    def spy(c, **kwargs):
        seen.append(dict(c=c, **kwargs))
        raise StopIteration

    real, scipy.optimize.linprog = scipy.optimize.linprog, spy
    try:
        with contextlib.suppress(StopIteration):
            solve_dc_opf(case)
    finally:
        scipy.optimize.linprog = real
    (lp,) = seen
    bits = [lp["bounds"], lp["method"]]
    for key in ("c", "b_eq", "b_ub"):
        bits.append(None if lp[key] is None else (lp[key].dtype.str, lp[key].tobytes()))
    for key in ("A_eq", "A_ub"):
        A = None if lp[key] is None else scipy.sparse.csc_array(lp[key])
        bits.append(None if A is None else (A.shape, *((x.dtype.str, x.tobytes()) for x in (A.indptr, A.indices, A.data))))
    return tuple(bits)


def write_gridgen(directory: Path, buses: int, seed: int = 1) -> dict:
    """A gridgen grid of ``buses`` buses, its meters (reversed duplicates among them) and market."""
    grid = gridgen.make_grid(seed, gridgen.GridParams(buses=buses, meters_per_state=1.8))
    return gridgen.write_grid(grid, directory)


def add_parallel_branches(paths: dict) -> None:
    """Add a second branch, stored the other way and listed last, on each of the first three bus
    pairs, and a meter each way round on each: a pair names its first branch in input order."""
    network = json.loads(paths["network"].read_text())
    meters = json.loads(paths["meters"].read_text())
    first = network["branches"][:3]
    network["branches"] += [{"from": br["to"], "to": br["from"], "x_pu": 2 * br["x_pu"], "limit_mw": 50.0}
                            for br in first]
    meters["meters"] += [{"branch": pair, "sigma": 0.02} for br in first
                         for pair in ([br["from"], br["to"]], [br["to"], br["from"]])]
    paths["network"].write_text(json.dumps(network))
    paths["meters"].write_text(json.dumps(meters))


@pytest.mark.parametrize("buses, parallel", [(9, False), (30, False), (30, True), (118, False), (1000, False)])
def test_the_column_read_equals_the_record_read_on_gridgen_grids(tmp_path, buses, parallel):
    paths = write_gridgen(tmp_path, buses)
    if parallel:
        add_parallel_branches(paths)
    reference = reference_network(paths["network"])
    net = caseio.parse_network(paths["network"])
    ref_meters, meters = reference_meters(paths["meters"], reference), caseio.parse_meters(paths["meters"], net)
    assert column_bits(net, meters) == column_bits(reference, ref_meters)
    assert len(ref_meters) > len(reference.branches)  # some branches carry a reversed duplicate
    H, ref_H = build_h_matrix(net, meters), build_h_matrix(reference, ref_meters)
    assert (H.edges.tobytes(), H.weights.tobytes()) == (ref_H.edges.tobytes(), ref_H.weights.tobytes())
    case, ref_case = caseio.parse_market(paths["market"], net), reference_market(paths["market"], reference)
    assert case.demand.tobytes() == ref_case.demand.tobytes() and case.generators == ref_case.generators
    assert recorded_lp(case) == recorded_lp(ref_case)


@pytest.mark.parametrize("name", ["network.json", "network_limit34.json"])
def test_the_column_read_equals_the_record_read_on_the_5_bus_case(name):
    net, reference = caseio.parse_network(CASES_5BUS / name), reference_network(CASES_5BUS / name)
    meters = caseio.parse_meters(CASES_5BUS / "meters.json", net)
    assert column_bits(net, meters) == column_bits(reference, reference_meters(CASES_5BUS / "meters.json", reference))
    market = CASES_5BUS / "market.json"
    assert recorded_lp(caseio.parse_market(market, net)) == recorded_lp(reference_market(market, reference))


def test_the_numeric_layers_form_no_record_view():
    # H and the OPF read the columns; Branch and Meter views are formed only where a caller asks
    net = caseio.parse_network(CASES_5BUS / "network.json")
    meters = caseio.parse_meters(CASES_5BUS / "meters.json", net)
    build_h_matrix(net, meters)
    solve_dc_opf(caseio.parse_market(CASES_5BUS / "market.json", net))
    assert "branches" not in vars(net) and "meters" not in vars(meters)
    assert net.branches == reference_network(CASES_5BUS / "network.json").branches


@pytest.mark.parametrize("meters", [[{"branch": [1, 2]}], []], ids=["a pair", "no meter"])
def test_a_network_with_no_branch_refuses_its_meters_as_the_record_read_does(tmp_path, meters):
    (tmp_path / "network.json").write_text(json.dumps({"slack": 1, "buses": [1], "branches": []}))
    (tmp_path / "meters.json").write_text(json.dumps({"meters": meters}))
    net = caseio.parse_network(tmp_path / "network.json")
    got = _outcome(lambda: caseio.parse_meters(tmp_path / "meters.json", net))
    assert got is not None and got == _outcome(lambda: reference_meters(tmp_path / "meters.json", net))


# -- corrupted files: the same error, message and exit code

def _no_pair(network: dict) -> list:
    """Two buses of ``network`` that no branch joins."""
    joined = {frozenset((br["from"], br["to"])) for br in network["branches"]}
    buses = network["buses"]
    return next([a, b] for a in buses for b in buses if a != b and frozenset((a, b)) not in joined)


# each record format -> {fault: an edit of one record of it, given the network}
CORRUPTIONS = {
    "branches": {
        "wrong type": lambda rec, net: rec.update(x_pu="0.1"),
        "missing key": lambda rec, net: rec.pop("to"),
        "unknown key": lambda rec, net: rec.update(bogus=1),
        "non-object": lambda rec, net: [rec["from"], rec["to"]],
        "self-loop": lambda rec, net: rec.update(to=rec["from"]),
        "x_pu <= 0": lambda rec, net: rec.update(x_pu=-0.1),
        "overflowing reciprocal": lambda rec, net: rec.update(x_pu=1e-320),
        "limit_mw <= 0": lambda rec, net: rec.update(limit_mw=0),
    },
    "meters": {
        "wrong type": lambda rec, net: rec.update(sigma=True),
        "missing key": lambda rec, net: rec.pop("branch"),
        "unknown key": lambda rec, net: rec.update(bogus=1),
        "non-object": lambda rec, net: rec["branch"],
        "sigma <= 0": lambda rec, net: rec.update(sigma=0.0),
        "no branch joins the pair": lambda rec, net: rec.update(branch=_no_pair(net)),
    },
    "loads": {
        "wrong type": lambda rec, net: rec.update(bus=2.5),
        "missing key": lambda rec, net: rec.pop("mw"),
        "unknown key": lambda rec, net: rec.update(bogus=1),
        "non-object": lambda rec, net: None,
        "mw < 0": lambda rec, net: rec.update(mw=-1.0),
        "unknown bus": lambda rec, net: rec.update(bus=10**6),
    },
}
FILE = {"branches": "network", "meters": "meters", "loads": "market"}


def _corrupt(paths: dict, key: str, edits: list) -> None:
    """Apply each (record index, fault) of ``edits`` to the ``key`` records of their file."""
    network = json.loads(paths["network"].read_text())
    path = paths[FILE[key]]
    doc = json.loads(path.read_text())
    for i, fault in edits:
        edited = CORRUPTIONS[key][fault](doc[key][i], network)
        if fault == "non-object":  # the other faults edit the record in place
            doc[key][i] = edited
    path.write_text(json.dumps(doc))


def _outcome(read):
    try:
        read()
    except FdiLabError as exc:
        return type(exc), str(exc), exc.exit_code
    return None


def _cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def _corruptions(rng):
    """(record list, edits) of one faulty record for each fault, then of two, for each pair of faults."""
    for key, faults in CORRUPTIONS.items():
        for fault in faults:
            yield key, [(int(rng.integers(8)), fault)]
        for first in faults:
            for second in faults:
                i, j = (int(k) for k in rng.choice(8, size=2, replace=False))
                yield key, [(i, first), (j, second)]


def test_a_corrupted_file_fails_as_the_record_read_fails(tmp_path):
    clean = write_gridgen(tmp_path / "clean", 30)
    rng = np.random.default_rng(35)
    reference = reference_network(clean["network"])
    cases = 0
    for key, edits in _corruptions(rng):
        directory = tmp_path / str(cases)
        paths = {name: directory / path.name for name, path in clean.items()}
        directory.mkdir()
        for name, path in clean.items():
            paths[name].write_text(path.read_text())
        _corrupt(paths, key, edits)
        if key == "branches":
            got = _outcome(lambda: caseio.parse_network(paths["network"]))
            want = _outcome(lambda: reference_network(paths["network"]))
            argv = ["attack", "random", "--case", paths["network"], "--meters", paths["meters"], "--support", "0,1"]
        elif key == "meters":
            got = _outcome(lambda: caseio.parse_meters(paths["meters"], reference))
            want = _outcome(lambda: reference_meters(paths["meters"], reference))
            argv = ["attack", "random", "--case", paths["network"], "--meters", paths["meters"], "--support", "0,1"]
        else:
            got = _outcome(lambda: caseio.parse_market(paths["market"], reference))
            want = _outcome(lambda: reference_market(paths["market"], reference))
            argv = ["opf", "--case", paths["network"], "--market", paths["market"]]
        assert want is not None and got == want, (key, edits)
        kind, message, code = want
        assert _cli(argv) == (code, f"error: stage=parse {kind.__name__}: {message}\n"), (key, edits)
        cases += 1
    assert cases == sum(len(faults) + len(faults) ** 2 for faults in CORRUPTIONS.values())


# -- precedence of faults

def _network_file(tmp_path, edit) -> Path:
    doc = json.loads((CASES_5BUS / "network.json").read_text())
    edit(doc)
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    return path


def _raises(read, error, message):
    with pytest.raises(error) as caught:
        read()
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("edit, error, message", [
    # a semantic fault in branches[1], a parse fault in branches[4]: the first record's fault
    (lambda doc: (doc["branches"][1].update(to=1), doc["branches"][4].update(x_pu="x")),
     ValidationError, "branch 1-1 is a self-loop"),
    (lambda doc: (doc["branches"][4].update(to=3), doc["branches"][1].update(x_pu="x")),
     ParseError, "{path}: branches[1].x_pu: 'x' is not a number"),
    # both in one record: the parse fault, as fields reads a record before its own checks
    (lambda doc: doc["branches"][2].update(to=2, limit_mw="x"),
     ParseError, "{path}: branches[2].limit_mw: 'x' is not a number"),
    # a record's fault before the network's: a duplicate bus, an unknown branch end, a cut-off bus
    (lambda doc: (doc["buses"].append(3), doc["branches"][5].update(x_pu=0.0)),
     NonPositiveReactance, "branch 4-5: reactance 0.0 must be > 0"),
    (lambda doc: (doc["branches"][0].update(to=9), doc["branches"][5].update(limit_mw=-1.0)),
     ValidationError, "branch 4-5: flow limit -1.0 must be > 0"),
    (lambda doc: (doc["buses"].append(6), doc["branches"][3].update(x_pu=1e-320)),
     ValidationError, "branch 2-5: reactance 1e-320 and its reciprocal must both be finite"),
    # with no record fault, the network's own, in the order it checks them
    (lambda doc: (doc["buses"].append(3), doc["branches"][0].update(to=9)),
     DuplicateBus, "bus id 3 appears more than once"),
    (lambda doc: (doc["buses"].append(6), doc["branches"][0].update(to=9)),
     ValidationError, "branch 1-9 references unknown bus 9"),
    (lambda doc: doc["buses"].append(6), DisconnectedGraph, "buses [6] are not connected to slack bus 1"),
], ids=["semantic then parse", "parse then semantic", "both in one record", "duplicate bus",
        "unknown branch end", "cut-off bus", "duplicate bus and unknown end", "unknown end and cut-off bus",
        "cut-off bus alone"])
def test_the_first_faulty_record_is_reported_before_the_network(tmp_path, edit, error, message):
    path = _network_file(tmp_path, edit)
    _raises(lambda: caseio.parse_network(path), error, message.format(path=path))
    _raises(lambda: reference_network(path), error, message.format(path=path))


@pytest.mark.parametrize("edit, error, message", [
    (lambda meters: (meters[1].update(sigma=-0.5), meters[3].update(branch=[1, 5])),
     ValidationError, "meter sigma -0.5 must be > 0"),
    (lambda meters: (meters[1].update(branch=[1, 5]), meters[3].update(sigma="x")),
     ValidationError, "meters[1]: no branch joins buses 1 and 5"),
    (lambda meters: (meters[3].update(branch=[1, 5]), meters[1].update(sigma="x")),
     ParseError, "{path}: meters[1].sigma: 'x' is not a number"),
    (lambda meters: meters[2].update(branch=[1, 5], sigma=0), ValidationError, "meters[2]: no branch joins buses 1 and 5"),
    (lambda meters: meters[2].update(branch=[1, 5.5], sigma=0), ParseError, "{path}: meters[2].branch: 5.5 is not an integer"),
], ids=["sigma then parse", "no branch then parse", "parse then no branch", "no branch and sigma in one record",
        "parse and sigma in one record"])
def test_the_first_faulty_meter_is_reported(tmp_path, net5, edit, error, message):
    doc = json.loads((CASES_5BUS / "meters.json").read_text())
    edit(doc["meters"])
    path = tmp_path / "meters.json"
    path.write_text(json.dumps(doc))
    _raises(lambda: caseio.parse_meters(path, net5), error, message.format(path=path))
    _raises(lambda: reference_meters(path, net5), error, message.format(path=path))


@pytest.mark.parametrize("edit, error, message", [
    (lambda loads: (loads[0].update(mw=-2.0), loads[2].update(bus="x")), ValidationError, "load at bus 1: demand -2.0 < 0"),
    (lambda loads: (loads[0].update(bus=9), loads[2].update(mw=-1.0)), UnknownBus, "load references unknown bus 9"),
    (lambda loads: (loads[2].update(bus=9), loads[0].update(mw=None)), ParseError, "{path}: loads[0].mw: None is not a number"),
    (lambda loads: loads[1].update(bus=9, mw=-1.0), ValidationError, "load at bus 9: demand -1.0 < 0"),
], ids=["negative then parse", "unknown bus then negative", "parse then unknown bus", "negative at an unknown bus"])
def test_the_first_faulty_load_is_reported(tmp_path, net5, edit, error, message):
    doc = json.loads((CASES_5BUS / "market.json").read_text())
    edit(doc["loads"])
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    _raises(lambda: caseio.parse_market(path, net5), error, message.format(path=path))
    _raises(lambda: reference_market(path, net5), error, message.format(path=path))


# -- the duplicate-key hook

@pytest.mark.parametrize("name, old, new, location", [
    ("network.json", '"x_pu": 0.05', '"x_pu": 0.05, "x_pu": 0.06', "line {line} column {column}"),
    ("meters.json", '"sigma": 0.01', '"sigma": 0.01, "sigma": 0.02', "line {line} column {column}"),
])
def test_a_key_repeated_in_one_record_is_a_parse_error_at_its_object(tmp_path, net5, name, old, new, location):
    text = (CASES_5BUS / name).read_text()
    assert old in text
    edited = text.replace(old, new, 1)
    before = edited[:edited.index(new)]
    line, column = before.count("\n") + 1, before.rindex("{") - before.rfind("\n")  # the record's '{'
    path = tmp_path / name
    path.write_text(edited)
    read = caseio.parse_network if name == "network.json" else lambda p: caseio.parse_meters(p, net5)
    key = old.split(":")[0].strip('"')
    _raises(lambda: read(path), ParseError, f"{path}: {location.format(line=line, column=column)}: duplicate key '{key}'")
