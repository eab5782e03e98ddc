import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from conftest import CASES_5BUS
from fdilab import caseio
from fdilab.cli import main
from fdilab.errors import ParseError, ValidationError


# -- shipped file parsing ----------------------------------------------------------

def test_shipped_files_match_published_tables(net5, meters5, z5, market5):
    assert [(br.from_bus, br.to_bus, br.x_pu) for br in net5.branches] == [
        (1, 2, 0.03),
        (1, 3, 0.05),
        (2, 4, 0.05),
        (2, 5, 0.08),
        (3, 4, 0.05),
        (4, 5, 0.08),
    ]
    np.testing.assert_array_equal(z5, [0.91, -0.16, 0.19, 0.21, 0.89, 0.09])
    assert all(m.sigma == 0.01 for m in meters5.meters)
    assert [(g.bus, g.price, g.p_max) for g in market5.generators] == [
        (1, 10.0, 250.0),
        (3, 15.0, 300.0),
        (5, 30.0, 500.0),
    ]
    assert [(l.bus, l.mw) for l in market5.loads] == [
        (1, 100.0),
        (2, 100.0),
        (3, 200.0),
        (4, 40.0),
        (5, 60.0),
    ]


def test_empty_file_is_parse_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ParseError, match="empty"):
        caseio.load_json(p)


def test_malformed_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"buses": [1, 2,\n')
    with pytest.raises(ParseError, match="line 2"):
        caseio.load_json(p)


def test_missing_field_is_parse_error(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(json.dumps({"buses": [1, 2], "slack": 1}))
    with pytest.raises(ParseError, match="branches"):
        caseio.parse_network(p)


def test_branch_to_unknown_bus_names_the_branch(tmp_path):
    doc = json.loads((CASES_5BUS / "network.json").read_text())
    doc["branches"][2]["to"] = 9
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="2-9"):
        caseio.parse_network(p)


def test_meter_on_missing_branch(tmp_path, net5):
    p = tmp_path / "meters.json"
    p.write_text(json.dumps({"meters": [{"branch": [1, 5], "sigma": 0.01}]}))
    with pytest.raises(ValidationError, match="meters\\[0\\]"):
        caseio.parse_meters(p, net5)


def test_attack_round_trip(tmp_path, h5):
    from fdilab.attack import random_constrained_attack

    atk = random_constrained_attack(h5, [0, 2, 3], seed=5)
    p = tmp_path / "attack.json"
    caseio.dump_attack(atk, p)
    loaded = json.loads(p.read_text())
    np.testing.assert_allclose(loaded["a"], atk.a, atol=1e-15)
    np.testing.assert_allclose(loaded["c"], atk.c, atol=1e-15)
    assert tuple(loaded["support"]) == atk.support


# -- CLI ----------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_estimate(capsys, tmp_path):
    out_csv = tmp_path / "est.csv"
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--measurements", CASES_5BUS / "measurements.json",
        "--out", out_csv,
    )
    assert code == 0
    assert "objective J = 0.131758" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "stage,quantity,index,value"
    assert "estimation,state_rad,2,-0.027264" in lines


def test_cli_detect(capsys):
    code, out, _ = run_cli(
        capsys,
        "detect",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--measurements", CASES_5BUS / "measurements.json",
    )
    assert code == 0
    assert "chi_square" in out and "-> clean" in out


def test_cli_attack_random(capsys, tmp_path):
    out_json = tmp_path / "attack.json"
    code, out, _ = run_cli(
        capsys,
        "attack", "random",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--support", "0,2,3",
        "--seed", 7,
        "--out", out_json,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert set(doc["support"]) <= {0, 2, 3}
    assert np.linalg.norm(doc["a"]) == pytest.approx(0.1, rel=1e-9)


def test_cli_attack_targeted(capsys):
    code, out, _ = run_cli(
        capsys,
        "attack", "targeted",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--pin", "3=0.03",
    )
    assert code == 0
    assert "c(bus 3) = 0.030000" in out
    assert "a[4] = 0.600000" in out


def test_cli_opf(capsys):
    code, out, _ = run_cli(
        capsys,
        "opf",
        "--case", CASES_5BUS / "network.json",
        "--market", CASES_5BUS / "market.json",
    )
    assert code == 0
    assert out.count("= 15.000000 $/MWh") == 5


def test_cli_scenario_and_reproducibility(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, text1, _ = run_cli(capsys, "scenario", "run", CASES_5BUS / "profit.json", "--out", out1)
    code2, text2, _ = run_cli(capsys, "scenario", "run", CASES_5BUS / "profit.json", "--out", out2)
    assert code1 == code2 == 0
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()
    assert "profit" in text1


def test_cli_montecarlo(capsys):
    code, out, _ = run_cli(
        capsys, "montecarlo", CASES_5BUS / "mc_clean.json", "--trials", 50, "--seed", 3
    )
    assert code == 0
    assert "detection rate" in out


def test_cli_missing_file_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "estimate",
        "--case", "no/such/file.json",
        "--meters", CASES_5BUS / "meters.json",
        "--measurements", CASES_5BUS / "measurements.json",
    )
    assert code == 2
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_cli_infeasible_exits_4(capsys, tmp_path):
    market = tmp_path / "market.json"
    market.write_text(
        json.dumps(
            {
                "generators": [{"bus": 1, "price": 10.0, "pmax": 10.0}],
                "loads": [{"bus": 1, "mw": 100.0}],
            }
        )
    )
    code, _, err = run_cli(
        capsys, "opf", "--case", CASES_5BUS / "network.json", "--market", market
    )
    assert code == 4
    assert "InfeasibleDispatch" in err


def test_cli_minimum_output_above_demand_exits_4_before_any_lp(capsys, tmp_path, monkeypatch):
    solves = []
    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: solves.append(a) or linprog(*a, **k))
    market = _write(
        tmp_path / "market.json",
        {
            "generators": [
                {"bus": 1, "price": 10.0, "pmax": 250.0, "pmin": 80.0},
                {"bus": 3, "price": 15.0, "pmax": 300.0, "pmin": 40.0},
            ],
            "loads": [{"bus": 2, "mw": 60.0}, {"bus": 4, "mw": 50.0}],
        },
    )
    code, out, err = run_cli(capsys, "opf", "--case", CASES_5BUS / "network.json", "--market", market)
    assert code == 4
    assert "InfeasibleDispatch: total minimum output 120.0 MW > total demand 110.0 MW" in err
    assert out == ""
    assert solves == []


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_cli_reactance_without_finite_reciprocal_exits_2(capsys, tmp_path):
    net = _write(
        tmp_path / "net.json",
        {"buses": [1, 2], "slack": 1, "branches": [{"from": 1, "to": 2, "x_pu": 1e-320}]},
    )
    meters = _write(tmp_path / "meters.json", {"meters": [{"branch": [1, 2]}, {"branch": [2, 1]}]})
    z = _write(tmp_path / "z.json", {"values_pu": [0.1, -0.1]})
    code, out, err = run_cli(capsys, "estimate", "--case", net, "--meters", meters, "--measurements", z)
    assert code == 2
    assert "stage=parse ValidationError: branch 1-2: reactance 1e-320" in err
    assert out == ""


def test_cli_ill_conditioned_placement_exits_3(capsys, tmp_path):
    # every bus is observed, so H builds; the numerically singular gain fails
    # the estimate stage (the rank test on H used to fail the model stage)
    branches = [(1, 2, 1e-8), (2, 3, 1e8), (3, 4, 0.1)]
    records = [{"from": f, "to": t, "x_pu": x} for f, t, x in branches]
    net = _write(tmp_path / "net.json", {"buses": [1, 2, 3, 4], "slack": 1, "branches": records})
    pairs = [[f, t] for f, t, _ in branches + branches[:1]]
    meters = _write(tmp_path / "meters.json", {"meters": [{"branch": pair} for pair in pairs]})
    z = _write(tmp_path / "z.json", {"values_pu": [0.1, 0.2, 0.3, 0.1]})
    code, out, err = run_cli(capsys, "estimate", "--case", net, "--meters", meters, "--measurements", z)
    assert code == 3
    assert "stage=estimate SingularGainMatrix" in err
    assert out == ""


def test_cli_montecarlo_needs_simulation(capsys):
    code, _, err = run_cli(
        capsys, "montecarlo", CASES_5BUS / "case1.json", "--trials", 10
    )
    assert code == 2
    assert "ValidationError" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fdilab", "opf",
         "--case", str(CASES_5BUS / "network.json"),
         "--market", str(CASES_5BUS / "market.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lmp(bus 4) = 15.000000" in proc.stdout


# -- non-finite input ---------------------------------------------------------------

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_json_rejects_non_finite_numbers(tmp_path, token):
    p = tmp_path / "doc.json"
    p.write_text(f'{{"values_pu": [0.1, {token}]}}')
    with pytest.raises(ParseError, match="non-finite"):
        caseio.load_json(p)


def test_load_json_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text('{"meters": [{"branch": [1, 2], "sigma": 0.01, "sigma": 0.02}]}')
    with pytest.raises(ParseError, match=f"^{p}: -: duplicate key 'sigma'$"):
        caseio.load_json(p)


def test_cli_repeated_pinned_key_exits_2(capsys, tmp_path):
    for source in CASES_5BUS.glob("*.json"):
        (tmp_path / source.name).write_text(source.read_text())
    path = tmp_path / "profit.json"
    text = path.read_text()
    path.write_text(text.replace('"pinned": {"3": 0.03}', '"pinned": {"3": 0.05, "3": 0.03}'))
    assert path.read_text() != text
    code, out, err = run_cli(capsys, "scenario", "run", path)
    assert code == 2
    assert err == f"error: ParseError: {path}: -: duplicate key '3'\n"
    assert out == ""


def _scenario_copy(tmp_path, name, edit):
    doc = json.loads((CASES_5BUS / f"{name}.json").read_text())
    edit(doc)
    for key in ("network", "meters"):
        doc[key] = str(CASES_5BUS / doc[key])
    if "file" in doc["measurements"]:
        doc["measurements"]["file"] = str(CASES_5BUS / doc["measurements"]["file"])
    if "market" in doc:
        doc["market"]["file"] = str(CASES_5BUS / doc["market"]["file"])
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))  # json.dumps writes nan as NaN
    return p


def _nan_x_true(doc):
    doc["measurements"]["simulate"]["x_true"][1] = float("nan")


def _nan_pin(doc):
    doc["attack"]["pinned"]["3"] = float("nan")


@pytest.mark.parametrize(
    "command, name, edit",
    [
        ("scenario", "mc_clean", _nan_x_true),
        ("montecarlo", "mc_clean", _nan_x_true),
        ("scenario", "profit", _nan_pin),
    ],
)
def test_cli_non_finite_scenario_exits_2(capsys, tmp_path, command, name, edit):
    path = _scenario_copy(tmp_path, name, edit)
    argv = ["scenario", "run", path] if command == "scenario" else ["montecarlo", path, "--trials", 5]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "ParseError" in err and "non-finite" in err
    assert out == ""


def test_cli_opf_non_finite_price_exits_2(capsys, tmp_path):
    doc = json.loads((CASES_5BUS / "market.json").read_text())
    doc["generators"][0]["price"] = float("nan")
    market = tmp_path / "market.json"
    market.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "opf", "--case", CASES_5BUS / "network.json", "--market", market)
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize(
    "kind, flag, value",
    [("random", "--support", "a,1"), ("targeted", "--pin", "3=abc")],
    ids=["support a", "pin abc"],
)
def test_cli_malformed_attack_argument_exits_2(capsys, kind, flag, value):
    code, out, err = run_cli(
        capsys,
        "attack", kind,
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        flag, value,
    )
    assert code == 2
    assert err.startswith("error: ValidationError: ") and err.count("\n") == 1
    assert out == ""


def test_cli_targeted_non_finite_pin_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "attack", "targeted",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--pin", "3=nan",
    )
    assert code == 2
    assert "ValidationError" in err
    assert "nan" not in out


def test_cli_targeted_repeated_pin_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "attack", "targeted",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--pin", "3=0.1",
        "--pin", "3=0.2",
    )
    assert code == 2
    assert err == "error: ValidationError: bus 3 is pinned more than once\n"
    assert out == ""


# -- malformed values ---------------------------------------------------------------

# file of the 5-bus case -> edit that leaves it valid JSON with a value of the wrong type or shape
MALFORMED = {
    "random attack without support": ("profit.json", lambda d: d.update(attack={"type": "random", "seed": 1})),
    "gross error without meter": (
        "profit.json", lambda d: d.update(attack={"type": "gross_error", "magnitude_pu": 0.5})
    ),
    "pinned bus x": ("profit.json", lambda d: d["attack"].update(pinned={"x": 0.03})),
    "support a": ("profit.json", lambda d: d.update(attack={"type": "random", "support": ["a"], "seed": 1})),
    "x_true abc": ("profit.json", lambda d: d.update(measurements={"simulate": {"x_true": "abc", "seed": 1}})),
    "confidence high": ("profit.json", lambda d: d["detectors"][0].update(confidence="high")),
    "attack is a string": ("profit.json", lambda d: d.update(attack="random")),
    "generator bus x": ("market.json", lambda d: d["generators"][0].update(bus="x")),
    "sigma tiny": ("meters.json", lambda d: d["meters"][0].update(sigma="tiny")),
    "branch a": ("meters.json", lambda d: d["meters"][0].update(branch=["a", 2])),
    "values a": ("measurements.json", lambda d: d.update(values_pu=["a", *d["values_pu"][1:]])),
    "network bus x": ("network_limit34.json", lambda d: d.update(buses=["x", *d["buses"][1:]])),
    "branch x_pu abc": ("network_limit34.json", lambda d: d["branches"][0].update(x_pu="abc")),
}


@pytest.mark.parametrize("name, edit", MALFORMED.values(), ids=list(MALFORMED))
def test_cli_malformed_value_exits_2_naming_the_file(capsys, tmp_path, name, edit):
    for source in CASES_5BUS.glob("*.json"):
        (tmp_path / source.name).write_text(source.read_text())
    path = tmp_path / name
    doc = json.loads(path.read_text())
    edit(doc)
    _write(path, doc)
    code, out, err = run_cli(capsys, "scenario", "run", tmp_path / "profit.json")
    assert code == 2
    assert f"ParseError: {path}: " in err
    assert out == ""


def test_readers_pass_domain_errors_through(tmp_path, net5):
    doc = json.loads((CASES_5BUS / "market.json").read_text())
    doc["loads"][0]["mw"] = -1.0
    with pytest.raises(ValidationError, match="demand -1.0 < 0") as info:
        caseio.parse_market(_write(tmp_path / "market.json", doc), net5)
    assert not isinstance(info.value, ParseError)
