"""JSON case-file readers and writers.

Formats:

* network:      {"base_mva": 100, "slack": 1, "buses": [1, ...],
                 "branches": [{"from": 1, "to": 2, "x_pu": 0.03, "limit_mw": null}, ...]}
* meters:       {"meters": [{"branch": [1, 2], "sigma": 0.01}, ...]}
                (the listed bus pair fixes the meter's orientation)
* measurements: {"values_pu": [0.91, ...]}  in meter order
* market:       {"generators": [{"bus": 1, "price": 10, "pmax": 250, "pmin": 0}, ...],
                 "loads": [{"bus": 1, "mw": 100}, ...]}
* attack echo:  {"c": [...], "a": [...], "support": [...]}  (written only)

Parse failures raise ParseError with the offending path and location; so
does a field of the wrong type or shape, such as a bus id "x", a number
written as a string ("2") or a boolean, or a missing key, in every reader
(``reader``). Semantic problems raise the validation errors of the domain
modules.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError, UnknownBranch, ValidationError
from .market import DispatchCase, Generator, Load
from .network import Branch, Meter, MeterConfig, NetworkModel


def load_json(path) -> dict:
    """Read a JSON document; NaN, Infinity, numbers (integers too) that overflow a
    float and a key repeated in one object are ParseErrors."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(path, "-", f"cannot read file: {exc}") from exc
    if not text.strip():
        raise ParseError(path, "line 1", "file is empty")

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ParseError(path, "-", f"non-finite number {token}")
        return value

    def integer(token: str) -> int:
        finite(token)
        return int(token)

    def unique(pairs: list) -> dict:
        record = dict(pairs)
        if len(record) < len(pairs):
            repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
            raise ParseError(path, "-", f"duplicate key '{repeated}'")
        return record

    # Only an integer of over 308 digits overflows a float, and json's own parser takes
    # the shorter ones far faster than a hook per integer: hook only a text with such a run.
    long_digit_run = "1" * 309 in text.translate(str.maketrans("0123456789", "1" * 10))
    try:
        return json.loads(
            text, parse_float=finite, parse_int=integer if long_digit_run else None, parse_constant=finite,
            object_pairs_hook=unique,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno} column {exc.colno}", exc.msg) from exc


def _number(value) -> float:
    """``float(value)`` of a JSON number; a ValueError for a string or a boolean, which ``float`` would read."""
    if type(value) is float:  # most values; the checks below cost every parsed number
        return value
    if isinstance(value, (str, bool)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """``int(value)`` of a JSON number; a ValueError where ``_number`` gives one, and for a fractional part."""
    if type(value) is not int and not _number(value).is_integer():  # bool is not int here
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _decimal(text: str) -> int:
    """``int(text)`` of an id written as text: ASCII digits after an optional minus sign, and a
    ValueError for the blanks, underscores and non-ASCII digits that ``int`` also reads."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def _real(text: str) -> float:
    """``float(text)`` of a number written as text: ASCII digits with an optional sign, point and
    exponent, and a ValueError for the blanks, underscores, non-ASCII digits and words that ``float`` also reads."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def reader(parse):
    """Make a conversion error in ``parse(path, ...)`` a ParseError naming the file.

    Domain errors (every FdiLabError) pass through unchanged.
    """
    @functools.wraps(parse)
    def read(path, *args, **kwargs):
        try:
            return parse(path, *args, **kwargs)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ParseError(path, "-", f"malformed field: {type(exc).__name__}: {exc}") from exc

    return read


def _require(record: dict, key: str, path, location: str):
    if key not in record:
        raise ParseError(path, location, f"missing required field '{key}'")
    return record[key]


@reader
def parse_network(path) -> NetworkModel:
    """Read a network file; ``base_mva`` defaults to 100, and a missing or null ``limit_mw`` leaves a line unlimited."""
    doc = load_json(path)
    for key in ("buses", "branches", "slack"):
        _require(doc, key, path, "top level")
    for i, rec in enumerate(doc["branches"]):
        for key in ("from", "to", "x_pu"):
            _require(rec, key, path, f"branches[{i}]")
    return NetworkModel(  # the arguments convert in order: bus ids, branches, slack, base_mva
        buses=tuple(_integer(b) for b in doc["buses"]),
        branches=tuple(
            Branch(
                from_bus=_integer(rec["from"]),
                to_bus=_integer(rec["to"]),
                x_pu=_number(rec["x_pu"]),
                limit_mw=None if rec.get("limit_mw") is None else _number(rec["limit_mw"]),
            )
            for rec in doc["branches"]
        ),
        slack=_integer(doc["slack"]),
        base_mva=_number(doc.get("base_mva", 100.0)),
    )


@reader
def parse_meters(path, net: NetworkModel) -> MeterConfig:
    doc = load_json(path)
    records = _require(doc, "meters", path, "top level")
    resolve = net.branch_resolver()
    meters = []
    for i, rec in enumerate(records):
        pair = _require(rec, "branch", path, f"meters[{i}]")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ParseError(path, f"meters[{i}].branch", "expected a [from, to] bus pair")
        try:
            index, orientation = resolve(_integer(pair[0]), _integer(pair[1]))
        except UnknownBranch as exc:
            raise ValidationError(f"meters[{i}]: {exc}") from exc
        meters.append(Meter(branch=index, orientation=orientation, sigma=_number(rec.get("sigma", 0.01))))
    return MeterConfig(meters=tuple(meters))


@reader
def parse_measurements(path, expected_count: int | None = None) -> np.ndarray:
    doc = load_json(path)
    values = _require(doc, "values_pu", path, "top level")
    z = np.array([_number(v) for v in values])  # finite: load_json refuses the rest
    if expected_count is not None and z.shape[0] != expected_count:
        raise ValidationError(
            f"{path}: expected {expected_count} measurement values, got {z.shape[0]}"
        )
    return z


@reader
def parse_market(path, net: NetworkModel) -> DispatchCase:
    doc = load_json(path)
    gen_records = _require(doc, "generators", path, "top level")
    load_records = _require(doc, "loads", path, "top level")
    generators = []
    for i, rec in enumerate(gen_records):
        generators.append(
            Generator(
                bus=_integer(_require(rec, "bus", path, f"generators[{i}]")),
                price=_number(_require(rec, "price", path, f"generators[{i}]")),
                p_max=_number(_require(rec, "pmax", path, f"generators[{i}]")),
                p_min=_number(rec.get("pmin", 0.0)),
            )
        )
    loads = []
    for i, rec in enumerate(load_records):
        loads.append(
            Load(
                bus=_integer(_require(rec, "bus", path, f"loads[{i}]")),
                mw=_number(_require(rec, "mw", path, f"loads[{i}]")),
            )
        )
    return DispatchCase(network=net, generators=tuple(generators), loads=tuple(loads))


def _write_text(path, text: str) -> None:
    """Write a file; a path that cannot be written is a ValidationError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def dump_attack(atk, path) -> None:
    doc = {
        "c": [float(v) for v in atk.c],
        "a": [float(v) for v in atk.a],
        "support": list(atk.support),
    }
    _write_text(path, json.dumps(doc, indent=2) + "\n")
