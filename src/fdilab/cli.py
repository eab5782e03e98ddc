"""Command-line front end.

Subcommands: estimate, detect, attack random|targeted, opf, scenario run, montecarlo.
``_cmd_report`` prints each one's text report and writes its ``--out`` file: the attack
vector as JSON, or else a CSV with one row per (stage, quantity, index, value), all
numerics fixed to six decimals so repeated runs are byte-identical. Exit codes: 0 success,
2 parse/validation error, 3 numerical failure, 4 infeasible problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import caseio
from .detection import DetectionMethod, DetectorSpec
from .errors import FdiLabError, ValidationError
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


def _text_and_csv(report):
    """The text of a scenario or Monte Carlo report, and the renderer of its CSV."""
    return report.to_text(), report.to_csv


def _pipeline_report(args, methods=()):
    """The report of the files argv names, with a detector of each of ``methods`` at ``--confidence``."""
    z = Path(args.measurements)
    scn = Scenario(z.stem, Path(args.case), Path(args.meters), FileSource(z),
                   detectors=tuple(DetectorSpec(method, args.confidence) for method in methods))
    return _text_and_csv(run_scenario(scn))


def _cmd_report(args) -> int:
    """Print the text that ``args.report`` returns; write the file its renderer makes to ``--out`` if given."""
    text, render = args.report(args)
    sys.stdout.write(text)
    if args.out:
        caseio._write_text(args.out, render())
    return 0


def _pin(text: str) -> tuple[int, float]:
    bus, _, shift = text.partition("=")
    return caseio._decimal(bus), caseio._real(shift)


# option -> reader of its text, as strict as a case file: int and float, and so argparse's
# type=int and type=float, would also read blanks, underscores and non-ASCII digits
_OPTION_READERS = {"confidence": caseio._real, "magnitude": caseio._real, "seed": caseio._decimal,
                   "trials": caseio._decimal, "pin": lambda texts: tuple(map(_pin, texts)),
                   "support": lambda text: tuple(caseio._decimal(i) for i in text.split(","))}


def _read_options(args) -> None:
    """Replace the text of each option ``_OPTION_READERS`` lists by its value, or raise a ValidationError."""
    for name, read in _OPTION_READERS.items():
        if hasattr(args, name):
            try:
                setattr(args, name, read(getattr(args, name)))
            except ValueError as exc:
                raise ValidationError(f"--{name}: {exc}") from None


def _attack_report(args):
    """The attack vector of ``args.spec``, and the renderer of its JSON echo."""
    _, _, H, _ = _load_model(args.case, args.meters)
    _, atk = _build_attack_vector(args.spec(args), H)
    out = ["[attack vector]", f"  support = {list(atk.support)}"]
    for k, bus in enumerate(H.state_buses):
        out.append(f"  c(bus {bus}) = {_fmt(atk.c[k])} rad")
    for i in range(len(atk.a)):
        out.append(f"  a[{i}] = {_fmt(atk.a[i])} pu")
    return "\n".join(out) + "\n", lambda: caseio.attack_json(atk)


def _opf_report(args):
    """The dispatch of ``--market`` on ``--case``, and the renderer of its CSV."""
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
    return "\n".join(out) + "\n", lambda: _csv(_dispatch_rows("dispatch", result, names))


def _add_model_args(p, measurements=True):
    p.add_argument("--case", required=True, help="network case file (JSON)")
    p.add_argument("--meters", required=True, help="meter configuration file (JSON)")
    if measurements:
        p.add_argument("--measurements", required=True, help="measurement file (JSON)")
    p.add_argument("--out", help="write a CSV report here" if measurements else "write the attack vector as JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdilab",
        description="DC state estimation, bad-data detection, stealth measurement "
        "attacks and LMP dispatch on small grid cases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="weighted least-squares state estimate")
    _add_model_args(p)
    p.set_defaults(report=_pipeline_report)

    p = sub.add_parser("detect", help="run both bad-data detectors")
    _add_model_args(p)
    p.add_argument("--confidence", default="0.99")
    p.set_defaults(report=lambda a: _pipeline_report(a, DetectionMethod))

    attack = sub.add_parser("attack", help="synthesize a stealth attack vector")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    p = attack_sub.add_parser("random", help="random attack confined to controlled meters")
    _add_model_args(p, measurements=False)
    p.add_argument("--support", required=True, help="comma-separated controlled meter indices")
    p.add_argument("--magnitude", default="0.1", help="norm of the attack vector (pu)")
    p.add_argument("--seed", default="0")
    p.set_defaults(report=_attack_report, spec=lambda a: RandomAttackSpec(a.support, a.seed, a.magnitude))

    p = attack_sub.add_parser("targeted", help="attack realizing pinned state shifts")
    _add_model_args(p, measurements=False)
    p.add_argument(
        "--pin",
        action="append",
        required=True,
        metavar="BUS=SHIFT_RAD",
        help="pin the angle shift at a bus (repeatable)",
    )
    p.set_defaults(report=_attack_report, spec=lambda a: TargetedAttackSpec(a.pin))

    p = sub.add_parser("opf", help="DC optimal power flow with LMPs")
    p.add_argument("--case", required=True, help="network case file (JSON)")
    p.add_argument("--market", required=True, help="market case file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(report=_opf_report)

    scenario = sub.add_parser("scenario", help="scenario pipelines")
    scenario_sub = scenario.add_subparsers(dest="scenario_kind", required=True)
    p = scenario_sub.add_parser("run", help="run a scenario file end to end")
    p.add_argument("scenario", help="scenario file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(report=lambda a: _text_and_csv(run_scenario(parse_scenario(a.scenario))))

    p = sub.add_parser("montecarlo", help="seeded detection-rate experiment")
    p.add_argument("scenario", help="scenario file with simulated measurements")
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", default="0", help="base seed")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(
        report=lambda a: _text_and_csv(run_monte_carlo(parse_scenario(a.scenario), a.trials, a.seed))
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _read_options(args)
        return _cmd_report(args)
    except FdiLabError as exc:
        stage = getattr(exc, "stage", None)
        where = f" stage={stage}" if stage else ""
        message = str(exc).replace("\n", " ")
        print(f"error:{where} {type(exc).__name__}: {message}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
