"""Command-line front end: it reads argv, then writes a report to stdout and ``--out``.

Subcommands: estimate, detect, attack random|targeted, opf, scenario run, montecarlo.
argparse reads each numeric option once, as strictly as a case file reads a number.
``scenario`` renders every report, and ``_cmd_report`` prints its text and writes its
``--out`` file. Exit codes: 0 success, 2 parse/validation error, 3 numerical failure,
4 infeasible problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import caseio
from .detection import DetectionMethod, DetectorSpec
from .errors import FdiLabError, ValidationError
from .scenario import (
    FileSource,
    RandomAttackSpec,
    Scenario,
    TargetedAttackSpec,
    attack_report,
    dispatch_report,
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
    """Print the text that ``args.report`` returns; write the file its renderer makes to ``--out`` if given.
    Both are UTF-8, whatever the locale."""
    text, render = args.report(args)
    if sys.stdout.encoding not in (None, "utf-8"):  # None: a StringIO; a case file's names are UTF-8
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    sys.stdout.write(text)
    if args.out:
        try:
            Path(args.out).write_text(render(), encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return 0


def _pin(text: str) -> tuple[int, float]:
    bus, _, shift = text.partition("=")
    return caseio._decimal(bus), caseio._real(shift)


def _support(text: str) -> tuple[int, ...]:
    return tuple(caseio._decimal(i) for i in text.split(","))


def _add_number(p, flag: str, read, **kwargs) -> None:
    """Add the option ``flag``, whose text ``read`` reads; a text it refuses is a ValidationError.

    The readers are as strict as a case file: int and float, and so argparse's type=int and
    type=float, would also read blanks, underscores and non-ASCII digits. argparse catches
    only ValueError, TypeError and ArgumentTypeError, so the ValidationError leaves parse_args.
    """
    def typed(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise ValidationError(f"{flag}: {exc}") from None
    p.add_argument(flag, type=typed, **kwargs)


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
    _add_number(p, "--confidence", caseio._real, default="0.99")
    p.set_defaults(report=lambda a: _pipeline_report(a, DetectionMethod))

    attack = sub.add_parser("attack", help="synthesize a stealth attack vector")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    p = attack_sub.add_parser("random", help="random attack confined to controlled meters")
    _add_model_args(p, measurements=False)
    _add_number(p, "--support", _support, required=True, help="comma-separated controlled meter indices")
    _add_number(p, "--magnitude", caseio._real, default="0.1", help="norm of the attack vector (pu)")
    _add_number(p, "--seed", caseio._decimal, default="0")
    p.set_defaults(report=lambda a: attack_report(a.case, a.meters, RandomAttackSpec(a.support, a.seed, a.magnitude)))

    p = attack_sub.add_parser("targeted", help="attack realizing pinned state shifts")
    _add_model_args(p, measurements=False)
    _add_number(
        p,
        "--pin",
        _pin,
        action="append",
        required=True,
        metavar="BUS=SHIFT_RAD",
        help="pin the angle shift at a bus (repeatable)",
    )
    p.set_defaults(report=lambda a: attack_report(a.case, a.meters, TargetedAttackSpec(tuple(a.pin))))

    p = sub.add_parser("opf", help="DC optimal power flow with LMPs")
    p.add_argument("--case", required=True, help="network case file (JSON)")
    p.add_argument("--market", required=True, help="market case file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(report=lambda a: dispatch_report(a.case, a.market))

    scenario = sub.add_parser("scenario", help="scenario pipelines")
    scenario_sub = scenario.add_subparsers(dest="scenario_kind", required=True)
    p = scenario_sub.add_parser("run", help="run a scenario file end to end")
    p.add_argument("scenario", help="scenario file (JSON)")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(report=lambda a: _text_and_csv(run_scenario(parse_scenario(a.scenario))))

    p = sub.add_parser("montecarlo", help="seeded detection-rate experiment")
    p.add_argument("scenario", help="scenario file with simulated measurements")
    _add_number(p, "--trials", caseio._decimal, required=True)
    _add_number(p, "--seed", caseio._decimal, default="0", help="base seed")
    p.add_argument("--out", help="write a CSV report here")
    p.set_defaults(
        report=lambda a: _text_and_csv(run_monte_carlo(parse_scenario(a.scenario), a.trials, a.seed))
    )

    return parser


def main(argv=None) -> int:
    try:
        return _cmd_report(build_parser().parse_args(argv))
    except FdiLabError as exc:
        stage = getattr(exc, "stage", None)
        where = f" stage={stage}" if stage else ""
        message = str(exc).replace("\n", " ")
        print(f"error:{where} {type(exc).__name__}: {message}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
