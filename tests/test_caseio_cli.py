import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CASES_5BUS, dense
from fdilab import caseio
from fdilab.cli import build_parser, main
from fdilab.errors import ParseError, ValidationError
from fdilab.network import Branch, NetworkModel
from fdilab.scenario import parse_scenario


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
    loads = json.loads((CASES_5BUS / "market.json").read_text())["loads"]
    assert [(rec["bus"], rec["mw"]) for rec in loads] == [
        (1, 100.0),
        (2, 100.0),
        (3, 200.0),
        (4, 40.0),
        (5, 60.0),
    ]
    sums = {bus: sum(rec["mw"] for rec in loads if rec["bus"] == bus) for bus in net5.buses}
    assert market5.demand.tolist() == [sums[bus] for bus in net5.buses]


def test_empty_file_is_parse_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ParseError, match="empty"):
        caseio.load_json(p)


@pytest.mark.parametrize("name, edit", [
    ("network_limit34.json", lambda path: path.write_bytes(b'{"slack": "\xff"}')),  # not UTF-8
    ("profit.json", lambda path: path.write_text(path.read_text().replace("network_limit34", "net\\u0000"))),
], ids=["bytes not UTF-8", "NUL in a path"])
def test_file_that_cannot_be_read_as_text_exits_2_in_one_line(capsys, tmp_path, name, edit):
    for source in CASES_5BUS.glob("*.json"):
        (tmp_path / source.name).write_text(source.read_text())
    edit(tmp_path / name)
    code, out, err = run_cli(capsys, "scenario", "run", tmp_path / "profit.json")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: stage=parse ParseError: ") and ": -: cannot read file: " in err


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


def test_attack_round_trip(h5):
    from fdilab.attack import random_constrained_attack
    from fdilab.scenario import RandomAttackSpec, attack_report

    atk = random_constrained_attack(h5, [0, 2, 3], seed=5)
    _, render = attack_report(CASES_5BUS / "network.json", CASES_5BUS / "meters.json", RandomAttackSpec((0, 2, 3), 5))
    loaded = json.loads(render())
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


def _leaf_parsers(parser, names=()):
    """(subcommand words, parser) of each subcommand that ``parser`` runs."""
    subparsers = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(names), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*names, name))


def test_each_out_help_names_what_the_subcommand_writes():
    helps = {
        command: next(action.help for action in parser._actions if "--out" in action.option_strings)
        for command, parser in _leaf_parsers(build_parser())
    }
    assert len(helps) == 7
    for command, text in helps.items():
        written = "JSON" if command.startswith("attack ") else "CSV"
        assert re.findall(r"JSON|CSV", text) == [written], (command, text)


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


@pytest.mark.parametrize("network", [{"buses": [1], "branches": [], "slack": 1}, None], ids=["one-bus", "5-bus"])
def test_cli_opf_without_a_generator_exits_2(capsys, tmp_path, network):
    # with no generator every LMP is an arbitrary dual, and one bus leaves linprog no variable
    market = _write(tmp_path / "market.json", {"generators": [], "loads": []})
    case = _write(tmp_path / "network.json", network) if network else CASES_5BUS / "network.json"
    assert run_cli(capsys, "opf", "--case", case, "--market", market) == (
        2, "", "error: stage=parse ValidationError: dispatch case has no generator\n"
    )


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


def test_cli_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259): under the C locale, with no locale coercion or UTF-8 mode, a name
    # read from a case file is printed, and --out written, with the bytes of a UTF-8 run
    name = "Übung — bus 3"
    scenario = dict(json.loads((CASES_5BUS / "case1.json").read_text()), name=name,
                    network=str(CASES_5BUS / "network.json"), meters=str(CASES_5BUS / "meters.json"),
                    measurements={"file": str(CASES_5BUS / "measurements.json")})
    (tmp_path / "case.json").write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "LANG", "PYTHONIO"))}
    runs = []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}, {"PYTHONUTF8": "1"}):
        out = tmp_path / f"out-{len(runs)}.csv"
        proc = subprocess.run([sys.executable, "-m", "fdilab", "scenario", "run", "case.json", "--out", str(out)],
                              cwd=tmp_path, capture_output=True, env=dict(env, PYTHONPATH=src, **locale))
        assert (proc.returncode, proc.stderr) == (0, b"")
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith(f"scenario: {name}\n".encode())


def test_a_lone_surrogate_in_a_scenario_string_is_a_parse_error_at_its_key(capsys, tmp_path):
    # json reads the escape "\ud800" into a lone surrogate, which UTF-8 cannot encode
    path = _scenario_copy(tmp_path, "case1", lambda doc: doc.update(name="bad \ud800 name"))
    message = f"{path}: name: 'bad \\ud800 name' holds a lone surrogate, which UTF-8 cannot encode"
    with pytest.raises(ParseError) as caught:
        parse_scenario(path)
    assert str(caught.value) == message
    for out in ([], ["--out", tmp_path / "out.csv"]):
        assert run_cli(capsys, "scenario", "run", path, *out) == (2, "", f"error: ParseError: {message}\n")
    assert not (tmp_path / "out.csv").exists()


# -- non-finite input ---------------------------------------------------------------

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_json_rejects_non_finite_numbers(tmp_path, token):
    # load_json reads them as floats (nan, inf, -inf, inf); the reader of their key refuses them at its key
    p = tmp_path / "measurements.json"
    p.write_text(f'{{"values_pu": [0.1, {token}]}}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: values_pu: non-finite number {json.loads(token)}$"):
        caseio.parse_measurements(p)


def test_load_json_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text('{"meters": [{"branch": [1, 2], "sigma": 0.01, "sigma": 0.02}]}')
    with pytest.raises(ParseError, match=f"^{p}: line 1 column 13: duplicate key 'sigma'$"):
        caseio.load_json(p)


def test_load_json_names_the_innermost_object_that_repeats_a_key(tmp_path):
    # an object closes before the one that holds it, so its repeat is the one reported
    p = tmp_path / "doc.json"
    p.write_text('{"a": 1,\n "b": {"c": [2, {"d": 3, "d": 4}]},\n "a": 5}')
    with pytest.raises(ParseError, match=f"^{p}: line 2 column 17: duplicate key 'd'$"):
        caseio.load_json(p)


def test_load_json_reports_a_repeated_key_nested_too_deep_to_locate(tmp_path):
    # json's Python scanner, which locates a repeat, recurses about four frames per level
    p = tmp_path / "doc.json"
    p.write_text("[" * 500 + '{"a": 1, "a": 2}' + "]" * 500)
    with pytest.raises(ParseError, match=f"^{p}: -: duplicate key 'a'$"):
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
    assert err == f"error: ParseError: {path}: line 6 column 44: duplicate key '3'\n"
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


HUGE = "1" + "0" * 400  # an integer that int() takes and float() overflows


@pytest.mark.parametrize(
    "name, old, new, location",
    [("measurements.json", "0.19", HUGE, "values_pu"),
     ("network.json", '"x_pu": 0.03', f'"x_pu": {HUGE}', "branches[0].x_pu")],
    ids=["measurement value", "x_pu"],
)
def test_cli_integer_that_overflows_a_float_exits_2(capsys, tmp_path, name, old, new, location):
    for source in ("network.json", "meters.json", "measurements.json"):
        (tmp_path / source).write_text((CASES_5BUS / source).read_text())
    path = tmp_path / name
    path.write_text(path.read_text().replace(old, new, 1))
    assert HUGE in path.read_text()
    code, out, err = run_cli(
        capsys,
        "estimate",
        "--case", tmp_path / "network.json",
        "--meters", tmp_path / "meters.json",
        "--measurements", tmp_path / "measurements.json",
    )
    assert code == 2
    assert err.endswith(f"ParseError: {path}: {location}: non-finite number {HUGE}\n") and err.count("\n") == 1
    assert out == ""


def test_cli_integer_longer_than_int_reads_exits_2(capsys, tmp_path):
    # json's int() refuses a number of over 4,300 digits before any reader sees it
    path = tmp_path / "measurements.json"
    path.write_text(f'{{"values_pu": [{"1" * 5000}]}}')
    code, out, err = run_cli(
        capsys,
        "estimate",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--measurements", path,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: stage=measurements ParseError: {path}: -: Exceeds the limit") and err.count("\n") == 1


@pytest.mark.parametrize("command, name, text", [
    (("detect", "--case", CASES_5BUS / "network.json", "--meters", CASES_5BUS / "meters.json", "--measurements"),
     "measurements.json", '{"values_pu": ' + "[" * 1500 + "]" * 1500 + "}"),
    (("scenario", "run"), "scenario.json", '{"a": ' * 1200 + "1" + "}" * 1200),
], ids=["list nest", "object nest"])
def test_cli_json_nested_past_the_recursion_limit_exits_2(capsys, tmp_path, command, name, text):
    # json's C scanner raises RecursionError, with no position, about 1,000 levels down
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, *command, path)
    assert (code, out) == (2, "")
    assert err.endswith(f"ParseError: {path}: -: lists or objects nest too deep to read\n") and err.count("\n") == 1


def test_load_json_keeps_a_long_integer_that_a_float_holds(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(f'{{"values_pu": [{10**308}, -{10**307}]}}')  # 309 and 308 digits
    assert caseio.load_json(p) == {"values_pu": [10**308, -(10**307)]}


def test_cli_opf_non_finite_price_exits_2(capsys, tmp_path):
    doc = json.loads((CASES_5BUS / "market.json").read_text())
    doc["generators"][0]["price"] = float("nan")
    market = tmp_path / "market.json"
    market.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "opf", "--case", CASES_5BUS / "network.json", "--market", market)
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize(
    "kind, flags, prefix",
    [("random", ["--support", "a,1"], "error: ValidationError: "),
     ("targeted", ["--pin", "3=abc"], "error: ValidationError: "),
     ("targeted", ["--pin", " 0_3 =0.1"], "error: ValidationError: "),
     ("targeted", ["--pin", "3= 1_0 "], "error: ValidationError: "),
     ("targeted", ["--pin", "3=\u0661\u0660"], "error: ValidationError: "),
     ("targeted", ["--pin", "3=inf"], "error: ValidationError: "),
     ("random", ["--support", "0_2,3"], "error: ValidationError: "),
     ("random", ["--support", "0,2,3", "--seed", "-1"], "error: stage=attack ValidationError: "),
     ("random", ["--support", "0,2,3", "--magnitude", "1_0"], "error: ValidationError: --magnitude: "),
     ("random", ["--support", "0,2,3", "--seed", " 7"], "error: ValidationError: --seed: ")],
    ids=["support a", "pin abc", "pin 0_3", "pin shift ' 1_0 '", "pin shift arabic 10", "pin shift inf",
         "support 0_2", "seed -1", "magnitude 1_0", "seed ' 7'"],
)
def test_cli_malformed_attack_argument_exits_2(capsys, kind, flags, prefix):
    code, out, err = run_cli(
        capsys,
        "attack", kind,
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        *flags,
    )
    assert code == 2
    assert err.startswith(prefix) and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [(["detect", "--case", CASES_5BUS / "network.json", "--meters", CASES_5BUS / "meters.json",
       "--measurements", CASES_5BUS / "measurements.json", "--confidence", "0.9_9"],
      "--confidence: '0.9_9' is not a decimal number"),
     (["montecarlo", CASES_5BUS / "mc_clean.json", "--trials", "1_0"], "--trials: '1_0' is not a decimal integer"),
     (["montecarlo", CASES_5BUS / "mc_clean.json", "--trials", "10", "--seed", " 7"],
      "--seed: ' 7' is not a decimal integer")],
    ids=["detect confidence 0.9_9", "montecarlo trials 1_0", "montecarlo seed ' 7'"],
)
def test_cli_malformed_number_option_exits_2(capsys, argv, message):
    # argparse's float and int would read these as 0.99, 10 and 7
    assert run_cli(capsys, *argv) == (2, "", f"error: ValidationError: {message}\n")


MODEL_FILES = ["--case", CASES_5BUS / "network.json", "--meters", CASES_5BUS / "meters.json"]
# (numeric option, the command that reads it with the other arguments it needs)
OPTION_COMMANDS = [
    ("confidence", ["detect", *MODEL_FILES, "--measurements", CASES_5BUS / "measurements.json"]),
    ("magnitude", ["attack", "random", *MODEL_FILES, "--support", "0,2,3"]),
    ("seed", ["attack", "random", *MODEL_FILES, "--support", "0,2,3"]),
    ("support", ["attack", "random", *MODEL_FILES]),
    ("pin", ["attack", "targeted", *MODEL_FILES]),
    ("seed", ["montecarlo", CASES_5BUS / "mc_clean.json", "--trials", "5"]),
    ("trials", ["montecarlo", CASES_5BUS / "mc_clean.json"]),
]
def test_parsed_options_arrive_typed():
    parse, model = build_parser().parse_args, [*map(str, MODEL_FILES)]
    random = parse(["attack", "random", *model, "--support", "0,2,3"])
    assert (random.support, random.seed, random.magnitude) == ((0, 2, 3), 0, 0.1)  # defaults are read too
    assert (type(random.seed), type(random.magnitude)) == (int, float)
    targeted = parse(["attack", "targeted", *model, "--pin", "3=0.05", "--pin", "2=-1e-3"])
    assert targeted.pin == [(3, 0.05), (2, -0.001)]
    assert [tuple(map(type, pair)) for pair in targeted.pin] == [(int, float), (int, float)]
    for argv, confidence in (([], 0.99), (["--confidence", "0.95"], 0.95)):
        detect = parse(["detect", *model, "--measurements", "z.json", *argv])
        assert type(detect.confidence) is float and detect.confidence == confidence
    mc = parse(["montecarlo", "mc.json", "--trials", "7", "--seed", "3"])
    assert (mc.trials, mc.seed) == (7, 3) and type(mc.trials) is type(mc.seed) is int
    # a malformed value leaves parse_args as it is read, before argparse misses --trials
    for argv in (["--trials", "7", "--seed", " 7"], ["--seed", " 7"]):
        with pytest.raises(ValidationError, match="^--seed: ' 7' is not a decimal integer$"):
            parse(["montecarlo", "mc.json", *argv])


NUMBER = st.one_of(st.integers(-2, 7), st.floats(allow_nan=False), st.floats(-1, 1)).map(str)
OPTION_TEXT = st.one_of(
    NUMBER,
    st.lists(NUMBER, min_size=1, max_size=4).map(",".join),  # a support
    st.tuples(NUMBER, NUMBER).map("=".join),  # a pin
    st.text(st.sampled_from("0123456789+-.eE,=_ infa\u0661"), max_size=12),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(option=st.sampled_from(OPTION_COMMANDS), text=OPTION_TEXT)
def test_any_text_of_a_numeric_option_runs_or_fails_in_one_line(option, text):
    name, argv = option
    assume(name != "trials" or not re.fullmatch("[0-9]+", text) or int(text) <= 20)  # keeps a run short
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*map(str, argv), f"--{name}={text}"])  # "=" keeps a text such as "-x" a value
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert out.getvalue() == "" and re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()


@pytest.mark.parametrize("shift", ["1e-15", "+1E-15", "1.e-15", ".1e-14"])
def test_cli_targeted_tiny_pin_echo_has_a_equal_to_hc(capsys, tmp_path, h5, shift):
    # a shift far below any round-off threshold still moves the two meters at bus 3, exactly
    echo = tmp_path / "echo.json"
    code, out, _ = run_cli(
        capsys,
        "attack", "targeted",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--pin", f"3={shift}",
        "--out", echo,
    )
    assert code == 0 and "support = [1, 4]" in out
    doc = json.loads(echo.read_text())
    assert doc["c"] == [0.0, 1e-15, 0.0, 0.0] and doc["support"] == [1, 4]
    assert np.array_equal(doc["a"], dense(h5) @ np.array(doc["c"]))


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
    assert err == "error: stage=attack ValidationError: bus 3 is pinned more than once\n"
    assert out == ""


def test_cli_targeted_pin_whose_attack_overflows_exits_2(capsys, tmp_path):
    # c is finite, but a[4] = 1e308 / 0.05 is not; no echo file is written
    echo = tmp_path / "echo.json"
    code, out, err = run_cli(
        capsys,
        "attack", "targeted",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--pin", "3=1e308",
        "--out", echo,
    )
    assert code == 2
    assert err == "error: stage=attack ValidationError: state shift c and attack a = Hc must be finite\n"
    assert out == ""
    assert not echo.exists()


def test_cli_random_attack_whose_norm_squared_overflows_exits_0(capsys, tmp_path):
    # branch 2-5 at x_pu 1e-300 weighs its meter 1e300, so ||Hc||**2 overflows; ||Hc|| is taken
    # on Hc scaled by a power of two, so c scales to an attack of magnitude 0.1 on meters 3 and 5
    net = _edited_copy(tmp_path, "network.json", lambda d: d["branches"][3].update(x_pu=1e-300))
    code, out, err = run_cli(capsys, "attack", "random", "--case", net, "--meters", CASES_5BUS / "meters.json",
                             "--support", "0,3,5")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["[attack vector]", "  support = [3, 5]"]
    assert "  a[3] = -0.100000 pu" in out.splitlines()


def test_cli_profit_scenario_pinned_at_1_2_rad_fails_on_a_negative_perceived_load(capsys, tmp_path):
    # ROADMAP item 4's known defect: the perceived case turns bus 3's load negative. The bench
    # recognises the defect by its stage, type and "load at bus" prefix, so the line is pinned
    # byte for byte until the fix lands.
    path = _edited_copy(tmp_path, "profit.json", lambda d: d["attack"]["pinned"].update({"3": 1.2}))
    assert run_cli(capsys, "scenario", "run", path) == (
        2, "", "error: stage=market ValidationError: load at bus 3: demand -4599.999999999998 < 0\n"
    )


# arguments after the command -> (exit code, stderr after "error: "); `attack` and `opf` tag a fault
# with the stage that `scenario run` gives it
COMMAND_FAULTS = {
    "random support 0": (
        ["attack", "random", "--meters", CASES_5BUS / "meters.json", "--support", "0"], 4,
        "stage=attack InfeasibleSupport: no nonzero state shift keeps meters [1, 2, 3, 4, 5] untouched",
    ),
    "pin on the slack": (
        ["attack", "targeted", "--meters", CASES_5BUS / "meters.json", "--pin", "1=0.1"], 2,
        "stage=attack ValidationError: bus 1 has no state column (slack or unknown)",
    ),
    "load at bus 99": (
        ["opf", "--market", "{dir}/market.json"], 2, "stage=parse UnknownBus: load references unknown bus 99",
    ),
    "line 3-4 overloaded": (
        ["opf", "--market", "{dir}/radial.json"], 4,
        "stage=market InfeasibleDispatch: no feasible dispatch: The problem is infeasible. "
        "(HiGHS Status 8: model_status is Infeasible; primal_status is None)",
    ),
}


@pytest.mark.parametrize("argv, code, message", COMMAND_FAULTS.values(), ids=list(COMMAND_FAULTS))
def test_attack_and_opf_tag_a_fault_with_its_stage(capsys, tmp_path, argv, code, message):
    _edited_copy(tmp_path, "market.json", lambda d: d["loads"][0].update(bus=99))
    # all 500 MW from bus 3 to bus 4 push more than the 70 MW limit of line 3-4
    _write(tmp_path / "radial.json", {"generators": [{"bus": 3, "price": 10.0, "pmax": 500.0}],
                                      "loads": [{"bus": 4, "mw": 500.0}]})
    argv = [str(a).format(dir=tmp_path) for a in argv]
    result = run_cli(capsys, *argv, "--case", CASES_5BUS / "network_limit34.json")
    assert result == (code, "", f"error: {message}\n")


def test_cli_random_infinite_magnitude_exits_2_with_one_stderr_line():
    # a fresh interpreter, so a RuntimeWarning would reach stderr rather than fail the test;
    # 1e309 is a decimal number that overflows to inf, which the attack stage refuses
    proc = subprocess.run(
        [sys.executable, "-m", "fdilab", "attack", "random",
         "--case", str(CASES_5BUS / "network.json"),
         "--meters", str(CASES_5BUS / "meters.json"),
         "--support", "0,2,3", "--magnitude", "1e309"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: stage=attack ValidationError: attack magnitude inf must be finite and > 0\n"
    assert proc.stdout == ""


def test_cli_measurement_file_of_the_wrong_length_exits_2(capsys, tmp_path):
    z = _write(tmp_path / "z.json", {"values_pu": [0.91, -0.16, 0.19, 0.21, 0.89]})
    code, out, err = run_cli(
        capsys,
        "estimate",
        "--case", CASES_5BUS / "network.json",
        "--meters", CASES_5BUS / "meters.json",
        "--measurements", z,
    )
    assert code == 2
    assert err == f"error: stage=measurements ValidationError: {z}: expected 6 measurement values, got 5\n"
    assert out == ""


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(attack={"type": "spoof"}),
         "ParseError: {path}: attack.type: unknown attack type 'spoof'"),
        (lambda d: d.update(attack={"type": []}),
         "ParseError: {path}: attack.type: expected a string, got list"),
        (lambda d: d["detectors"][0].update(method="psychic"),
         "ParseError: {path}: detectors[0].method: unknown method 'psychic'"),
        (lambda d: d.update(measurements={"recorded": "z.json"}),
         "ParseError: {path}: measurements: expected 'file' or 'simulate'"),
        (lambda d: d.update(attack={"type": "gross_error", "meter": 99, "magnitude_pu": 0.5}),
         "stage=attack ValidationError: gross error meter 99 out of range 0..5"),
        (lambda d: d.update(attack={"type": "random", "support": [0, 2, 3], "seed": -1}),
         "stage=attack ValidationError: seed -1 must be a non-negative integer"),
        (lambda d: d.update(measurements={"simulate": {"x_true": [0, 0, 0, 0], "seed": -3}}),
         "stage=measurements ValidationError: seed -3 must be a non-negative integer"),
    ],
    ids=["attack type", "attack type list", "detector method", "measurement source", "gross meter",
         "attack seed -1", "simulate seed -3"],
)
def test_cli_scenario_outside_the_format_exits_2(capsys, tmp_path, edit, message):
    path = _scenario_copy(tmp_path, "case1", edit)
    code, out, err = run_cli(capsys, "scenario", "run", path)
    assert code == 2
    assert err == f"error: {message.format(path=path)}\n"
    assert out == ""


# -- malformed values ---------------------------------------------------------------

# file of the 5-bus case -> (where the error is, edit that leaves the file valid JSON with a value of the
# wrong type or shape)
RANDOM = {"type": "random", "support": [0, 2, 3], "seed": 1}
MALFORMED = {
    "random attack without support": (
        "profit.json", "attack", lambda d: d.update(attack={"type": "random", "seed": 1})
    ),
    "gross error without meter": (
        "profit.json", "attack", lambda d: d.update(attack={"type": "gross_error", "magnitude_pu": 0.5})
    ),
    "pinned bus x": ("profit.json", "attack.pinned", lambda d: d["attack"].update(pinned={"x": 0.03})),
    # a bus key is decimal digits alone, not whatever int() reads
    "pinned bus 0_3": ("profit.json", "attack.pinned", lambda d: d["attack"].update(pinned={"0_3": 0.03})),
    "pinned bus ' 3'": ("profit.json", "attack.pinned", lambda d: d["attack"].update(pinned={" 3": 0.03})),
    "support a": ("profit.json", "attack.support", lambda d: d.update(attack={**RANDOM, "support": ["a"]})),
    "x_true abc": (
        "profit.json", "measurements.simulate.x_true",
        lambda d: d.update(measurements={"simulate": {"x_true": "abc", "seed": 1}}),
    ),
    "confidence high": (
        "profit.json", "detectors[0].confidence", lambda d: d["detectors"][0].update(confidence="high")
    ),
    "attack is a string": ("profit.json", "attack", lambda d: d.update(attack="random")),
    "generator bus x": ("market.json", "generators[0].bus", lambda d: d["generators"][0].update(bus="x")),
    "sigma tiny": ("meters.json", "meters[0].sigma", lambda d: d["meters"][0].update(sigma="tiny")),
    "branch a": ("meters.json", "meters[0].branch", lambda d: d["meters"][0].update(branch=["a", 2])),
    "values a": ("measurements.json", "values_pu", lambda d: d.update(values_pu=["a", *d["values_pu"][1:]])),
    "network bus x": ("network_limit34.json", "buses", lambda d: d.update(buses=["x", *d["buses"][1:]])),
    "branch x_pu abc": ("network_limit34.json", "branches[0].x_pu", lambda d: d["branches"][0].update(x_pu="abc")),
    # a number with a fractional part where an integer belongs is not truncated
    "network bus 2.5": ("network_limit34.json", "buses", lambda d: d.update(buses=[1, 2.5, 3, 4, 5])),
    "slack 1.5": ("network_limit34.json", "slack", lambda d: d.update(slack=1.5)),
    "branch from 1.5": ("network_limit34.json", "branches[0].from", lambda d: d["branches"][0].update({"from": 1.5})),
    "branch to 2.6": ("network_limit34.json", "branches[0].to", lambda d: d["branches"][0].update(to=2.6)),
    "meter pair 2.6": ("meters.json", "meters[0].branch", lambda d: d["meters"][0].update(branch=[1, 2.6])),
    "generator bus 1.5": ("market.json", "generators[0].bus", lambda d: d["generators"][0].update(bus=1.5)),
    "load bus 2.5": ("market.json", "loads[1].bus", lambda d: d["loads"][1].update(bus=2.5)),
    "support 3.7": ("profit.json", "attack.support", lambda d: d.update(attack={**RANDOM, "support": [0, 2, 3.7]})),
    "attack seed 1.5": ("profit.json", "attack.seed", lambda d: d.update(attack={**RANDOM, "seed": 1.5})),
    "simulate seed 0.5": (
        "profit.json", "measurements.simulate.seed",
        lambda d: d.update(measurements={"simulate": {"x_true": [0, 0, 0, 0], "seed": 0.5}}),
    ),
    "gross meter 2.5": (
        "profit.json", "attack.meter",
        lambda d: d.update(attack={"type": "gross_error", "meter": 2.5, "magnitude_pu": 0.5}),
    ),
    "buy bus 1.5": ("profit.json", "market.buy_bus", lambda d: d["market"].update(buy_bus=1.5)),
    "sell bus 4.5": ("profit.json", "market.sell_bus", lambda d: d["market"].update(sell_bus=4.5)),
    # a string or a boolean where a number belongs is not read as one
    "network bus ids '1'": ("network_limit34.json", "buses", lambda d: d.update(buses=[str(b) for b in d["buses"]])),
    "network bus true": ("network_limit34.json", "buses", lambda d: d.update(buses=[True, 2, 3, 4, 5])),
    "slack '1'": ("network_limit34.json", "slack", lambda d: d.update(slack="1")),
    "branch from '1'": ("network_limit34.json", "branches[0].from", lambda d: d["branches"][0].update({"from": "1"})),
    "x_pu '0.03'": ("network_limit34.json", "branches[0].x_pu", lambda d: d["branches"][0].update(x_pu="0.03")),
    "limit_mw '70'": (
        "network_limit34.json", "branches[4].limit_mw", lambda d: d["branches"][4].update(limit_mw="70")
    ),
    "base_mva '100'": ("network_limit34.json", "base_mva", lambda d: d.update(base_mva="100")),
    "meter pair '1', '2'": ("meters.json", "meters[0].branch", lambda d: d["meters"][0].update(branch=["1", "2"])),
    "sigma '0.01'": ("meters.json", "meters[0].sigma", lambda d: d["meters"][0].update(sigma="0.01")),
    "values '0.91'": ("measurements.json", "values_pu", lambda d: d.update(values_pu=["0.91", *d["values_pu"][1:]])),
    "price '10'": ("market.json", "generators[0].price", lambda d: d["generators"][0].update(price="10")),
    "load mw '100'": ("market.json", "loads[0].mw", lambda d: d["loads"][0].update(mw="100")),
    "load bus true": ("market.json", "loads[0].bus", lambda d: d["loads"][0].update(bus=True)),
    "buy bus '1'": ("profit.json", "market.buy_bus", lambda d: d["market"].update(buy_bus="1")),
    "quantity '1.0'": ("profit.json", "market.quantity_mw", lambda d: d["market"].update(quantity_mw="1.0")),
    "pinned shift '0.03'": ("profit.json", "attack.pinned", lambda d: d["attack"].update(pinned={"3": "0.03"})),
    "confidence '0.99'": (
        "profit.json", "detectors[0].confidence", lambda d: d["detectors"][0].update(confidence="0.99")
    ),
    "magnitude '0.1'": ("profit.json", "attack.magnitude", lambda d: d.update(attack={**RANDOM, "magnitude": "0.1"})),
    "attack seed '1'": ("profit.json", "attack.seed", lambda d: d.update(attack={**RANDOM, "seed": "1"})),
    "gross magnitude '0.5'": (
        "profit.json", "attack.magnitude_pu",
        lambda d: d.update(attack={"type": "gross_error", "meter": 2, "magnitude_pu": "0.5"}),
    ),
    "x_true '0'": (
        "profit.json", "measurements.simulate.x_true",
        lambda d: d.update(measurements={"simulate": {"x_true": ["0", 0, 0, 0], "seed": 1}}),
    ),
    # a list or an object where the other belongs, and a name that is not a string
    "detectors {}": ("profit.json", "detectors", lambda d: d.update(detectors={})),
    "name true": ("profit.json", "name", lambda d: d.update(name=True)),
    "file null": ("profit.json", "measurements.file", lambda d: d.update(measurements={"file": None})),
    "simulate null": ("profit.json", "measurements.simulate", lambda d: d.update(measurements={"simulate": None})),
}


def _edited_copy(tmp_path, name, edit):
    """Copy every file of the 5-bus case into tmp_path, apply ``edit`` to the document of ``name``
    and return its path."""
    for source in CASES_5BUS.glob("*.json"):
        (tmp_path / source.name).write_text(source.read_text())
    path = tmp_path / name
    doc = json.loads(path.read_text())
    edit(doc)
    return _write(path, doc)


@pytest.mark.parametrize("name, location, edit", MALFORMED.values(), ids=list(MALFORMED))
def test_cli_malformed_value_exits_2_naming_the_file(capsys, tmp_path, name, location, edit):
    path = _edited_copy(tmp_path, name, edit)
    code, out, err = run_cli(capsys, "scenario", "run", tmp_path / "profit.json")
    assert code == 2
    assert f"ParseError: {path}: {location}: " in err and err.count("\n") == 1
    assert out == ""


# file of the 5-bus case -> (edit that keeps every value finite, exit code, stderr after "error: ");
# each overflows a float further on, and fails in one line with no RuntimeWarning
OVERFLOWING = {
    "sigma 1e-320": (
        "meters.json", lambda d: d["meters"][2].update(sigma=1e-320), 3,
        "stage=estimate SingularGainMatrix: gain matrix is singular: array must not contain infs or NaNs",
    ),
    "x_pu 1e-300": (
        "network_limit34.json", lambda d: d["branches"][0].update(x_pu=1e-300), 3,
        "stage=estimate SingularGainMatrix: gain matrix is singular: array must not contain infs or NaNs",
    ),
    "gross error 1e308": (
        "profit.json", lambda d: d.update(attack={"type": "gross_error", "meter": 2, "magnitude_pu": 1e308}),
        3,
        "stage=estimate NumericalError: the weighted measurements or residuals overflow a float",
    ),
    "base_mva 1e308": (
        "network_limit34.json", lambda d: d.update(base_mva=1e308), 2,
        "stage=parse ValidationError: base_mva 1e+308 must be > 0, and finite over every reactance",
    ),
    "quantity 1e308": (
        "profit.json", lambda d: d["market"].update(quantity_mw=1e308), 2,
        "stage=market ValidationError: arbitrage profit quantity x LMP difference must be finite",
    ),
    "sigma 1e300": (
        "meters.json", lambda d: d["meters"][1].update(sigma=1e300), 2,
        "stage=model ValidationError: all variances sigma**2 must be finite",
    ),
}


@pytest.mark.parametrize("name, edit, code, message", OVERFLOWING.values(), ids=list(OVERFLOWING))
def test_cli_value_that_overflows_later_fails_in_one_line(capsys, tmp_path, name, edit, code, message):
    _edited_copy(tmp_path, name, edit)
    result = run_cli(capsys, "scenario", "run", tmp_path / "profit.json")
    assert result == (code, "", f"error: {message}\n")


# file of the 5-bus case -> (edit, stderr after "error: ", {dir} being the copy's directory);
# each is an input fault that `scenario run profit.json` turns into exit 2 and this one line
INPUT_FAULTS = {
    "values 'nan'": (
        "measurements.json", lambda d: d.update(values_pu=["nan", *d["values_pu"][1:]]),
        "stage=measurements ParseError: {dir}/measurements.json: values_pu: 'nan' is not a number",
    ),
    "meter pair of three buses": (
        "meters.json", lambda d: d["meters"][0].update(branch=[1, 2, 3]),
        "stage=parse ParseError: {dir}/meters.json: meters[0].branch: expected a [from, to] bus pair",
    ),
    "sigma 0": (
        "meters.json", lambda d: d["meters"][0].update(sigma=0),
        "stage=parse ValidationError: meter sigma 0.0 must be > 0",
    ),
    "no meters": (
        "meters.json", lambda d: d.update(meters=[]), "stage=parse ValidationError: meter configuration is empty",
    ),
    "bus id 0": (
        "network_limit34.json", lambda d: d.update(buses=[0, 2, 3, 4, 5]),
        "stage=parse ValidationError: bus id 0 must be a positive integer",
    ),
    "bus id 2**63": (
        "network_limit34.json", lambda d: d.update(buses=[1, 2, 3, 4, 2**63]),
        "stage=parse ValidationError: bus id 9223372036854775808 must be below 2**63",
    ),
    "pinned {}": (
        "profit.json", lambda d: d["attack"].update(pinned={}),
        "ParseError: {dir}/profit.json: attack.pinned: targeted attack needs pinned entries",
    ),
    "3-entry x_true": (
        "profit.json", lambda d: d.update(measurements={"simulate": {"x_true": [0, 0, 0], "seed": 1}}),
        "stage=measurements DimensionMismatch: x_true has 3 entries, H has 4 columns",
    ),
    "load at bus 99": (
        "market.json", lambda d: d["loads"][0].update(bus=99),
        "stage=parse UnknownBus: load references unknown bus 99",
    ),
    # a key the format does not list, each once read as if it were absent
    "limit for limit_mw": (
        "network_limit34.json", lambda d: d["branches"][4].update(limit=d["branches"][4].pop("limit_mw")),
        "stage=parse ParseError: {dir}/network_limit34.json: branches[4]: "
        "unknown field 'limit' (fields: from, to, x_pu, limit_mw)",
    ),
    "attack typ": (
        "profit.json", lambda d: d.update(attack={"typ": "targeted", "pinned": {"3": 0.03}}),
        "ParseError: {dir}/profit.json: attack: unknown field 'typ' (fields: type)",
    ),
    "detector confidance": (
        "profit.json", lambda d: d["detectors"][1].update(confidance=0.5),
        "ParseError: {dir}/profit.json: detectors[1]: unknown field 'confidance' (fields: method, confidence)",
    ),
    "file and simulate": (
        "profit.json", lambda d: d["measurements"].update(simulate={"x_true": [0, 0, 0, 0], "seed": 1}),
        "ParseError: {dir}/profit.json: measurements: expected 'file' or 'simulate', not both",
    ),
}


@pytest.mark.parametrize("name, edit, message", INPUT_FAULTS.values(), ids=list(INPUT_FAULTS))
def test_cli_input_fault_exits_2_with_one_line(capsys, tmp_path, name, edit, message):
    _edited_copy(tmp_path, name, edit)
    result = run_cli(capsys, "scenario", "run", tmp_path / "profit.json")
    assert result == (2, "", f"error: {message.format(dir=tmp_path)}\n")


# file of the 5-bus case -> (edit, exit code, stderr after "error: ") of a fault in the Monte Carlo
# scenario mc_clean.json, which `montecarlo` must report as `scenario run` does, stage included
STAGE_FAULTS = {
    "confidence 1.5": (
        "mc_clean.json", lambda d: d["detectors"][0].update(confidence=1.5), 2,
        "stage=detect ValidationError: probability 1.5 must lie strictly between 0 and 1",
    ),
    "sigma 1e-320": (
        "meters.json", lambda d: d["meters"][2].update(sigma=1e-320), 3,
        "stage=estimate SingularGainMatrix: gain matrix is singular: array must not contain infs or NaNs",
    ),
    "3-entry x_true": (
        "mc_clean.json", lambda d: d["measurements"]["simulate"].update(x_true=[0.0, 0.0, 0.0]), 2,
        "stage=measurements DimensionMismatch: x_true has 3 entries, H has 4 columns",
    ),
    "gross error 1e308": (
        "mc_clean.json", lambda d: d.update(attack={"type": "gross_error", "meter": 2, "magnitude_pu": 1e308}), 3,
        "stage=estimate NumericalError: the weighted measurements or residuals overflow a float",
    ),
    "x_true 1e307": (
        "mc_clean.json", lambda d: d["measurements"]["simulate"]["x_true"].__setitem__(0, 1e307), 2,
        "stage=measurements ValidationError: the flows H x_true of the true state must be finite",
    ),
    "z + a overflows": (
        "mc_clean.json",
        lambda d: (d["measurements"]["simulate"].update(x_true=[1e292, 0.0, 0.0, 0.0]),
                   d.update(attack={"type": "gross_error", "meter": 2, "magnitude_pu": 1.7976931348623157e308})),
        2, "stage=attack ValidationError: attacked measurements z + a must all be finite",
    ),
}


@pytest.mark.parametrize("name, edit, code, message", STAGE_FAULTS.values(), ids=list(STAGE_FAULTS))
def test_montecarlo_reports_a_fault_as_scenario_run_does(capsys, tmp_path, name, edit, code, message):
    _edited_copy(tmp_path, name, edit)
    path = tmp_path / "mc_clean.json"
    scenario = run_cli(capsys, "scenario", "run", path)
    montecarlo = run_cli(capsys, "montecarlo", path, "--trials", 5)
    assert scenario == montecarlo == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["scenario", "run", CASES_5BUS / "profit.json"],
     ["attack", "random", "--case", CASES_5BUS / "network.json", "--meters", CASES_5BUS / "meters.json",
      "--support", "0,2,3"]],
    ids=["report CSV", "attack echo"],
)
def test_cli_out_that_cannot_be_written_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, *argv, "--out", out)
    assert code == 2
    assert err == f"error: ValidationError: cannot write {out}: No such file or directory\n"


def test_readers_pass_domain_errors_through(tmp_path, net5):
    doc = json.loads((CASES_5BUS / "market.json").read_text())
    doc["loads"][0]["mw"] = -1.0
    with pytest.raises(ValidationError, match="demand -1.0 < 0") as info:
        caseio.parse_market(_write(tmp_path / "market.json", doc), net5)
    assert not isinstance(info.value, ParseError)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_market_demand_sums_each_bus_records_in_file_order(seed):
    # several loads per bus in shuffled order, some buses with none: each bus's demand is the
    # sequential sum of its records in file order, bit for bit, the sums that round included
    rng = np.random.default_rng(seed)
    buses = [int(b) for b in rng.permutation(np.arange(1, 13))]
    net = NetworkModel(tuple(buses), tuple(Branch(f, t, 0.1) for f, t in zip(buses, buses[1:])), buses[0])
    at = rng.choice(buses[: rng.integers(1, 13)], rng.integers(0, 40))
    mw = rng.uniform(0.0, 100.0, len(at)) * 10.0 ** rng.integers(-8, 8, len(at))
    loads = [{"bus": int(b), "mw": float(d)} for b, d in zip(at, mw)]
    doc = {"generators": [{"bus": buses[0], "price": 1.0, "pmax": 1e12}], "loads": loads}
    with tempfile.TemporaryDirectory() as tmp:
        demand = caseio.parse_market(_write(Path(tmp) / "market.json", doc), net).demand
    expected = dict.fromkeys(buses, 0.0)
    for rec in loads:
        expected[rec["bus"]] += rec["mw"]
    assert [float(d).hex() for d in demand] == [expected[b].hex() for b in buses]
    assert not demand.flags.writeable


# -- the keys of every record ---------------------------------------------------------

# each record format of the bundled files -> (its required keys, {its optional keys: their defaults}),
# as README lists them; a measurement source must have one of its two keys, an attack's type is "none"
# unless given, and a targeted attack's "pinned" maps bus ids to shifts, so it is no record
BOTH_AT_99 = [{"method": "chi_square", "confidence": 0.99}, {"method": "lnr", "confidence": 0.99}]
FORMATS = {
    "network": ({"slack", "buses", "branches"}, {"base_mva": 100}),
    "branch": ({"from", "to", "x_pu"}, {"limit_mw": None}),
    "meters": ({"meters"}, {}),
    "meter": ({"branch"}, {"sigma": 0.01}),
    "measurements": ({"values_pu"}, {}),
    "market": ({"generators", "loads"}, {}),
    "generator": ({"bus", "price", "pmax"}, {"pmin": 0}),
    "load": ({"bus", "mw"}, {}),
    "scenario": (
        {"name", "network", "meters", "measurements"},
        {"attack": {"type": "none"}, "detectors": BOTH_AT_99, "market": None},
    ),
    "source": ({"file", "simulate"}, {}),
    "simulate": ({"x_true", "seed"}, {}),
    "attack none": (set(), {"type": "none"}),
    "attack random": ({"support", "seed"}, {"type": "none", "magnitude": 0.1}),
    "attack targeted": ({"pinned"}, {"type": "none"}),
    "attack gross_error": ({"meter", "magnitude_pu"}, {"type": "none"}),
    "detector": ({"method"}, {"confidence": 0.99}),
    "market leg": ({"file", "buy_bus", "sell_bus"}, {"quantity_mw": 1.0}),
}
TOP_FORMATS = {"network.json": "network", "network_limit34.json": "network", "meters.json": "meters",
               "measurements.json": "measurements", "market.json": "market"}  # the rest are scenarios
ITEM_FORMATS = {"branches": "branch", "meters": "meter", "generators": "generator", "loads": "load",
                "detectors": "detector"}
FIELD_FORMATS = {"measurements": "source", "simulate": "simulate", "attack": "attack", "market": "market leg"}


def _records(record, fmt, location="top level", keys=()):
    """(location, format, keys from the document down to it) of ``record`` and each record within it."""
    if fmt == "attack":
        fmt = f"attack {record.get('type', 'none')}"
    yield location, fmt, keys
    for key, value in record.items():
        if key in ITEM_FORMATS and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _records(item, ITEM_FORMATS[key], f"{key}[{i}]", (*keys, key, i))
        elif key in FIELD_FORMATS and isinstance(value, dict):
            nested = key if location == "top level" else f"{location}.{key}"
            yield from _records(value, FIELD_FORMATS[key], nested, (*keys, key))


def _record_at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


# (file, location, format, keys) of every record in the bundled 5-bus files
RECORDS = [
    (source.name, location, fmt, keys)
    for source in sorted(CASES_5BUS.glob("*.json"))
    for location, fmt, keys in _records(json.loads(source.read_text()), TOP_FORMATS.get(source.name, "scenario"))
]


def _scenario_reading(name):
    """A bundled scenario that reads the file ``name``: the file itself if it is a scenario."""
    if name == "network.json":
        return "case1.json"
    return "profit.json" if name in TOP_FORMATS else name


def _run_edited(directory, name, keys, edit):
    """Copy the 5-bus case into ``directory``, apply ``edit`` to the record at ``keys`` in ``name``,
    run the scenario that reads it and return (exit code, stdout, stderr, CSV report or None)."""
    directory.mkdir(exist_ok=True)
    for source in CASES_5BUS.glob("*.json"):
        (directory / source.name).write_text(source.read_text())
    doc = json.loads((directory / name).read_text())
    edit(_record_at(doc, keys))
    _write(directory / name, doc)
    out, err, csv = io.StringIO(), io.StringIO(), directory / "report.csv"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scenario", "run", str(directory / _scenario_reading(name)), "--out", str(csv)])
    return code, out.getvalue(), err.getvalue(), csv.read_text() if csv.exists() else None


def _parse_error_line(directory, name, location, reason):
    """The one stderr line of a ParseError at ``location`` of ``name``, whatever stage it is tagged with."""
    return rf"error: (stage=\w+ )?ParseError: {re.escape(str(directory / name))}: {re.escape(location)}: {reason}\n"


@pytest.mark.parametrize("record, location, reason", [
    # not an object comes first
    ([{"from": 1}], "branches[3]", "expected an object, got list"),
    # an unknown key, before a missing key or a bad value
    ({"from": 1, "to": 2, "bogus": 0}, "branches[3]", "unknown field 'bogus' (fields: from, to, x_pu, limit_mw)"),
    ({"from": "x", "bogus": 0}, "branches[3]", "unknown field 'bogus' (fields: from, to, x_pu, limit_mw)"),
    # then each key in table order: a bad value before a missing key, a missing key before a bad value
    ({"from": "x", "to": 2}, "branches[3].from", "'x' is not an integer"),
    ({"to": 2, "x_pu": "x"}, "branches[3]", "missing required field 'from'"),
    ({"from": 1, "to": 2, "limit_mw": "x"}, "branches[3]", "missing required field 'x_pu'"),
])
def test_a_record_with_two_faults_reports_the_first_in_order(record, location, reason):
    with pytest.raises(ParseError) as caught:
        caseio.fields(record, caseio._BRANCH, "network.json", "branches", 3)
    assert (caught.value.location, caught.value.reason) == (location, reason)


def test_a_top_level_record_that_is_not_an_object_is_reported_at_the_top_level():
    with pytest.raises(ParseError, match=r"^network\.json: top level: expected an object, got str$"):
        caseio.fields("buses", caseio._NETWORK, "network.json")


def test_records_cover_every_format():
    assert {fmt for _, _, fmt, _ in RECORDS} == set(FORMATS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(record=st.sampled_from(RECORDS), key=st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8))
def test_key_outside_a_records_format_exits_2_naming_it(record, key):
    name, location, fmt, keys = record
    required, optional = FORMATS[fmt]
    assume(key not in required and key not in optional)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "case"
        code, out, err, _ = _run_edited(directory, name, keys, lambda rec: rec.update({key: 0}))
        line = _parse_error_line(directory, name, location, rf"unknown field '{re.escape(key)}' \([^)]*\)")
        assert (code, out) == (2, "") and re.fullmatch(line, err), err


def test_deleting_a_key_at_its_default_keeps_the_report(tmp_path):
    reports = {}
    deleted = []
    for name, location, fmt, keys in RECORDS:
        record = _record_at(json.loads((CASES_5BUS / name).read_text()), keys)
        for key, default in FORMATS[fmt][1].items():
            if key not in record or record[key] != default:
                continue
            scenario = _scenario_reading(name)
            if scenario not in reports:
                reports[scenario] = _run_edited(tmp_path / "bundled", scenario, (), lambda rec: None)
            result = _run_edited(tmp_path / str(len(deleted)), name, keys, lambda rec: rec.pop(key))
            assert result == reports[scenario], (name, location, key)
            deleted.append((name, location, key))
    assert all(code == 0 for code, *_ in reports.values())
    assert len(deleted) == 43  # base_mva, null limit_mw, sigma, pmin, detectors, confidence, none attacks, ...


def test_deleting_a_required_key_exits_2_naming_it(tmp_path):
    deleted = []
    for name, location, fmt, keys in RECORDS:
        record = _record_at(json.loads((CASES_5BUS / name).read_text()), keys)
        for key in sorted(FORMATS[fmt][0] & record.keys()):
            directory = tmp_path / str(len(deleted))
            code, out, err, _ = _run_edited(directory, name, keys, lambda rec: rec.pop(key))
            line = _parse_error_line(directory, name, location, rf".*'{key}'.*")
            assert (code, out) == (2, "") and re.fullmatch(line, err), (name, location, key, err)
            deleted.append((name, location, key))
    assert len(deleted) == 116  # every required key of the 58 records


# -- a wrong value at every leaf ------------------------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]
NEAR_LIMITS = [1.7976931348623157e308, -1.7976931348623157e308, 1e300, 5e-324, 1e-320]  # finite, near a float limit
WRONG_VALUES = ["x", True, None, [], {}, 1.5, *NON_FINITE, *NEAR_LIMITS]
PATH_KEYS = {"network", "meters", "file"}  # the scenario keys whose value names a file


def _leaves(value, keys=()):
    """The keys from the document down to each value in ``value`` that is neither a list nor an object."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*keys, key))
    else:
        yield keys


def _leaf_location(keys):
    """Where a ParseError puts the value at ``keys``: the object that holds it and its key there.
    An item of a list of values, or a shift in ``pinned``, is put at the key of its list or map."""
    location = ""
    for parent, key in zip(("", *keys), keys):
        if isinstance(key, int) and parent in ITEM_FORMATS:
            location += f"[{key}]"
        elif isinstance(key, str) and parent != "pinned":
            location = f"{location}.{key}" if location else key
        else:
            break
    return location


LEAF_EDITS = [
    (name, keys, value)
    for name in ("network_limit34.json", "meters.json", "measurements.json", "market.json", "profit.json",
                 "mc_clean.json")
    for keys in _leaves(json.loads((CASES_5BUS / name).read_text()))
    for value in WRONG_VALUES
]


# The edits whose run warns. A reactance near the float limit gives its meter a weight 1/x so small
# that the other meters of its loop read an Omega_ii below the criticality floor, although the meter
# graph still holds the branch: the run prints the critical-meter UserWarning beside its report.
# ROADMAP item 8's meter-graph criticality empties this list.
WARNING_EDITS = {
    ("network_limit34.json", ("branches", branch, "x_pu"), value)
    for branch in (0, 1, 3, 4, 5)
    for value in (1.7976931348623157e308, 1e300)
}


def test_a_wrong_value_at_any_leaf_runs_or_fails_in_one_line_naming_its_key(tmp_path):
    # a value of the wrong type or a non-finite number is a ParseError at its object and key; a path
    # to no file is one at that file; a finite number where a number belongs may fail further on, in
    # one line of another error. Warnings are recorded per edit, so a run that prints one beside its
    # report passes only when it is pinned in WARNING_EDITS.
    directory = tmp_path / "case"
    wrong, warned = [], {}
    for name, keys, value in LEAF_EDITS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err, _ = _run_edited(directory, name, keys[:-1], lambda rec: rec.__setitem__(keys[-1], value))
        if caught:
            warned[name, keys, value] = [f"{w.category.__name__}: {w.message}" for w in caught]
        located = _parse_error_line(directory, name, _leaf_location(keys), ".*")
        no_file = isinstance(value, str) and keys[-1] in PATH_KEYS and re.fullmatch(
            _parse_error_line(directory, value, "-", "cannot read file: .*"), err
        )
        later = value in (1.5, *NEAR_LIMITS) and code in (2, 3, 4) and re.fullmatch(
            r"error: (stage=\w+ )?(?!ParseError)\w+: .*\n", err
        )
        if value in NON_FINITE:  # nan is found by identity, and True equals none of these
            right = code == 2 and re.fullmatch(located, err)
        else:
            right = code == 0 and err == "" or code == 2 and (re.fullmatch(located, err) or no_file) or later
        if not right:
            wrong.append((name, keys, value, code, err))
    assert not wrong, f"{len(wrong)} of {len(LEAF_EDITS)} edits: {wrong[:5]}"
    assert set(warned) == WARNING_EDITS
    assert all(re.fullmatch(r"UserWarning: critical meters excluded from LNR test: \[.*\]", line)
               for lines in warned.values() for line in lines), warned
    assert len(LEAF_EDITS) == 14 * 104  # fourteen values at each of the 104 leaves of the six files
