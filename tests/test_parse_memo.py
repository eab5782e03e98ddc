"""The case readers' one-entry memo, and the arrays that the reports of one case share.

``parse_network``, ``parse_meters`` and ``parse_market`` each keep the text of the last file they
accepted, the network it was read against and what they returned, in ``caseio._last``; a call whose
text and network match returns that object. A meter set forms its WeightModel once, and a network
its state bus and branch end arrays. These tests pin when the memo answers, when it parses again,
that reports of one case share those arrays and that no report byte depends on it.
"""

import json
import shutil

import numpy as np
import pytest

from conftest import CASES_5BUS, empty_omega_memo
from fdilab import caseio
from fdilab.errors import ParseError, ValidationError
from fdilab.scenario import parse_scenario, run_monte_carlo, run_scenario
from test_golden import write_grid_scenarios

FILES = ("network.json", "meters.json", "market.json")


def empty_memos():
    """Forget every parsed case, and so the arrays each shares, and diag(Omega), so the next run is cold."""
    caseio._last.clear()
    empty_omega_memo()


@pytest.fixture
def case5(tmp_path):
    """A copy of the bundled 5-bus network, meters and market, read by no reader yet."""
    for name in FILES:
        shutil.copy(CASES_5BUS / name, tmp_path / name)
    empty_memos()
    return tmp_path


def read_case(directory, net=None):
    """The network, meters and market of ``directory``; the meters and market read against ``net`` if given."""
    net = caseio.parse_network(directory / "network.json") if net is None else net
    return net, caseio.parse_meters(directory / "meters.json", net), caseio.parse_market(directory / "market.json", net)


def rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_the_same_text_returns_the_same_object(case5, tmp_path_factory):
    first = read_case(case5)
    assert all(a is b for a, b in zip(read_case(case5), first))
    other = tmp_path_factory.mktemp("other")  # another path, the same text: the result is the text's
    for name in FILES:
        (other / name).write_bytes((case5 / name).read_bytes())
    assert all(a is b for a, b in zip(read_case(other), first))


def test_a_file_rewritten_with_other_bytes_is_parsed_again(case5):
    net, meters, market = read_case(case5)
    rewrite(case5 / "network.json", lambda doc: doc.update(base_mva=50))
    rewrite(case5 / "meters.json", lambda doc: doc["meters"][0].update(sigma=0.02))
    rewrite(case5 / "market.json", lambda doc: doc["loads"][0].update(mw=doc["loads"][0]["mw"] + 1))
    new_net = caseio.parse_network(case5 / "network.json")
    assert new_net is not net and (new_net.base_mva, net.base_mva) == (50, 100)
    _, new_meters, new_market = read_case(case5, net)
    assert new_meters is not meters and (new_meters.sigmas[0], meters.sigmas[0]) == (0.02, 0.01)
    assert new_market is not market and new_market.demand.sum() == market.demand.sum() + 1
    (case5 / "meters.json").write_text((case5 / "meters.json").read_text() + "\n")  # the same values
    again = caseio.parse_meters(case5 / "meters.json", net)
    assert again is not new_meters and np.array_equal(again.sigmas, new_meters.sigmas)


def test_meters_and_market_read_against_another_network_are_parsed_again(case5):
    net, meters, market = read_case(case5)
    caseio._last.pop("parse_network")
    other = caseio.parse_network(case5 / "network.json")
    assert other is not net
    _, other_meters, other_market = read_case(case5, other)
    assert other_meters is not meters and other_market is not market and other_market.network is other
    assert np.array_equal(other_meters.branch, meters.branch) and np.array_equal(other_market.demand, market.demand)


@pytest.mark.parametrize("name, text, error", [
    ("network.json", '{"slack": 1, "buses": [1, 2], "branches": [], "oops": 1}', ParseError),
    ("meters.json", '{"meters": [{"branch": [1, 9]}]}', ValidationError),  # no branch joins buses 1 and 9
    ("market.json", "", ParseError),
])
def test_a_refused_file_raises_on_every_call_and_keeps_the_last_good_entry(case5, name, text, error):
    first = read_case(case5)
    kept = dict(caseio._last)
    good = (case5 / name).read_text()
    (case5 / name).write_text(text)
    for _ in range(2):
        with pytest.raises(error):
            read_case(case5)
    assert caseio._last == kept
    (case5 / name).write_text(good)
    assert all(a is b for a, b in zip(read_case(case5), first))


def grid_reports(path):
    """The text and CSV of a scenario's report and of a 50-trial Monte Carlo of it."""
    scn = parse_scenario(path)
    report, summary = run_scenario(scn), run_monte_carlo(scn, trials=50, base_seed=5)
    return report.to_text(), report.to_csv(), summary.to_text(), summary.to_csv()


@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_warm_reports_keep_the_bytes_of_cold_ones(tmp_path):
    paths = write_grid_scenarios(tmp_path)
    cold = []
    for path in paths.values():
        empty_memos()
        cold.append(grid_reports(path))
    net, meters = caseio._last["parse_network"][2], caseio._last["parse_meters"][2]
    assert [grid_reports(path) for path in paths.values()] == cold
    assert caseio._last["parse_network"][2] is net and caseio._last["parse_meters"][2] is meters


def test_reports_of_one_meter_set_share_one_sigmas_array_and_one_state_bus_array():
    one, other = (run_scenario(parse_scenario(CASES_5BUS / name)) for name in ("case1.json", "case2.json"))
    assert one.observed.sigmas is other.observed.sigmas and one.state_buses is other.state_buses
    assert one.branch_ends is other.branch_ends  # neither ran a market
    for shared in one.observed.sigmas, one.state_buses, one.branch_ends:
        assert not shared.flags.writeable
    net = caseio.parse_network(CASES_5BUS / "network.json")
    assert one.branch_ends is net.branch_bus_ends and one.branch_ends.tolist() == [
        [br.from_bus, br.to_bus] for br in net.branches]
