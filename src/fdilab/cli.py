"""Command-line front end.

Subcommands: estimate, detect, attack random|targeted, opf, scenario run,
montecarlo. Text reports go to stdout; ``--out`` writes a CSV with one
row per (stage, quantity, index, value), all numerics fixed to six
decimals so repeated runs are byte-identical. Exit codes: 0 success,
2 parse/validation error, 3 numerical failure, 4 infeasible problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import caseio
from .detection import DetectionMethod, DetectorSpec
from .errors import FdiLabError, InfeasibleError, ParseError, ValidationError
from .market import solve_dc_opf
from .scenario import (
    FileSource,
    RandomAttackSpec,
    Scenario,
    TargetedAttackSpec,
    _branch_names,
    _build_attack_vector,
    _csv,
    _dispatch_lines,
    _dispatch_rows,
    _fmt,
    _load_model,
    _stage,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)


def _pipeline_scenario(args, detectors) -> Scenario:
    return Scenario(
        name=Path(args.measurements).stem,
        network_path=Path(args.case),
        meters_path=Path(args.meters),
        measurements=FileSource(path=Path(args.measurements)),
        detectors=detectors,
    )


def _cmd_report(args) -> int:
    """Print the report ``args.report`` builds; write its CSV to ``--out`` if given."""
    report = args.report(args)
    sys.stdout.write(report.to_text())
    if args.out:
        caseio._write_text(args.out, report.to_csv())
    return 0


def _detect_report(args):
    detectors = tuple(DetectorSpec(method, args.confidence) for method in DetectionMethod)
    return run_scenario(_pipeline_scenario(args, detectors))


def _random_spec(args) -> RandomAttackSpec:
    support = tuple(caseio._decimal(i) for i in args.support.split(","))
    return RandomAttackSpec(support, args.seed, args.magnitude)


def _targeted_spec(args) -> TargetedAttackSpec:
    pins = (pin.split("=", 1) for pin in args.pin)
    return TargetedAttackSpec(tuple((caseio._decimal(bus), caseio._real(shift)) for bus, shift in pins))


def _cmd_attack(args) -> int:
    """Print the attack vector ``args.spec`` reads off argv; write it to ``--out`` if given."""
    try:
        spec = args.spec(args)
    except ValueError as exc:
        raise ValidationError(f"bad attack arguments, expected {args.expected}: {exc}") from exc
    _, _, H, _ = _load_model(args.case, args.meters)
    _, atk = _build_attack_vector(spec, H)
    out = ["[attack vector]", f"  support = {list(atk.support)}"]
    for k, bus in enumerate(H.state_buses):
        out.append(f"  c(bus {bus}) = {_fmt(atk.c[k])} rad")
    for i in range(len(atk.a)):
        out.append(f"  a[{i}] = {_fmt(atk.a[i])} pu")
    sys.stdout.write("\n".join(out) + "\n")
    if args.out:
        caseio.dump_attack(atk, args.out)
    return 0


def _cmd_opf(args) -> int:
    with _stage("parse"):
        net = caseio.parse_network(args.case)
        case = caseio.parse_market(args.market, net)
    with _stage("market"):
        result = solve_dc_opf(case)
    names = _branch_names(net)
    out = ["[dispatch]"]
    for g, gen in enumerate(case.generators):
        out.append(f"  gen {g} (bus {gen.bus}) = {_fmt(result.gen_output[g])} MW")
    for b, flow in enumerate(result.flows):
        out.append(f"  flow {names[b]} = {_fmt(flow)} MW")
    out += _dispatch_lines(result, names)
    sys.stdout.write("\n".join(out) + "\n")
    if args.out:
        caseio._write_text(args.out, _csv(_dispatch_rows("dispatch", result, names)))
    return 0


def _add_model_args(p, measurements=True):
    p.add_argument("--case", required=True, help="network case file (JSON)")
    p.add_argument("--meters", required=True, help="meter configuration file (JSON)")
    if measurements:
        p.add_argument("--measurements", required=True, help="measurement file (JSON)")
    p.add_argument("--out", help="write a CSV report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdilab",
        description="DC state estimation, bad-data detection, stealth measurement "
        "attacks and LMP dispatch on small grid cases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="weighted least-squares state estimate")
    _add_model_args(p)
    p.set_defaults(func=_cmd_report, report=lambda a: run_scenario(_pipeline_scenario(a, detectors=())))

    p = sub.add_parser("detect", help="run both bad-data detectors")
    _add_model_args(p)
    p.add_argument("--confidence", type=float, default=0.99)
    p.set_defaults(func=_cmd_report, report=_detect_report)

    attack = sub.add_parser("attack", help="synthesize a stealth attack vector")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    p = attack_sub.add_parser("random", help="random attack confined to controlled meters")
    _add_model_args(p, measurements=False)
    p.add_argument("--support", required=True, help="comma-separated controlled meter indices")
    p.add_argument("--magnitude", type=float, default=0.1, help="norm of the attack vector (pu)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_attack, spec=_random_spec, expected="--support I,J,...")

    p = attack_sub.add_parser("targeted", help="attack realizing pinned state shifts")
    _add_model_args(p, measurements=False)
    p.add_argument(
        "--pin",
        action="append",
        required=True,
        metavar="BUS=SHIFT_RAD",
        help="pin the angle shift at a bus (repeatable)",
    )
    p.set_defaults(func=_cmd_attack, spec=_targeted_spec, expected="--pin BUS=SHIFT_RAD")

    p = sub.add_parser("opf", help="DC optimal power flow with LMPs")
    p.add_argument("--case", required=True, help="network case file (JSON)")
    p.add_argument("--market", required=True, help="market case file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(func=_cmd_opf)

    scenario = sub.add_parser("scenario", help="scenario pipelines")
    scenario_sub = scenario.add_subparsers(dest="scenario_kind", required=True)
    p = scenario_sub.add_parser("run", help="run a scenario file end to end")
    p.add_argument("scenario", help="scenario file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(func=_cmd_report, report=lambda a: run_scenario(parse_scenario(a.scenario)))

    p = sub.add_parser("montecarlo", help="seeded detection-rate experiment")
    p.add_argument("scenario", help="scenario file with simulated measurements")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(
        func=_cmd_report,
        report=lambda a: run_monte_carlo(parse_scenario(a.scenario), trials=a.trials, base_seed=a.seed),
    )

    return parser


def _exit_code(exc: FdiLabError) -> int:
    if isinstance(exc, (ParseError, ValidationError)):
        return 2
    if isinstance(exc, InfeasibleError):
        return 4
    return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FdiLabError as exc:
        stage = getattr(exc, "stage", None)
        where = f" stage={stage}" if stage else ""
        message = str(exc).replace("\n", " ")
        print(f"error:{where} {type(exc).__name__}: {message}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
