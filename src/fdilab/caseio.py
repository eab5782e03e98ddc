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

Every reader reads each JSON object with ``fields``: a missing required key, or a key
its format does not list, is a ParseError naming the file, the object and the key. So
is a field of the wrong type or shape, such as a bus id "x" or a number written as a
string ("2") or a boolean (``reader``). Semantic problems raise the domain's errors.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections.abc import ValuesView
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


REQUIRED = object()  # the default of a key that a record must have


def fields(record, table: dict, path, where: str, index: int | None = None) -> ValuesView:
    """The values of ``record``'s keys in ``table`` order, with a key's default where ``record`` lacks it.

    ``table`` maps each key of the record's format to its default, or to REQUIRED.
    A record that is not a JSON object, lacks a required key or has a key that
    ``table`` does not list is a ParseError at ``where`` (``where[index]`` given an index).
    """
    if type(record) is dict:
        merged = table | record  # in table order; a key the table lacks adds one
        if len(merged) == len(table) and (len(record) == len(table) or REQUIRED not in merged.values()):
            return merged.values()
    location = where if index is None else f"{where}[{index}]"
    if type(record) is not dict:
        raise ParseError(path, location, f"expected an object, got {type(record).__name__}")
    for key in record:
        if key not in table:
            raise ParseError(path, location, f"unknown field '{key}' (fields: {', '.join(table)})")
    missing = next(key for key, default in table.items() if default is REQUIRED and key not in record)
    raise ParseError(path, location, f"missing required field '{missing}'")


_NETWORK = {"base_mva": 100.0, "slack": REQUIRED, "buses": REQUIRED, "branches": REQUIRED}
_BRANCH = {"from": REQUIRED, "to": REQUIRED, "x_pu": REQUIRED, "limit_mw": None}
_METERS = {"meters": REQUIRED}
_METER = {"branch": REQUIRED, "sigma": 0.01}
_MEASUREMENTS = {"values_pu": REQUIRED}
_MARKET = {"generators": REQUIRED, "loads": REQUIRED}
_GENERATOR = {"bus": REQUIRED, "price": REQUIRED, "pmax": REQUIRED, "pmin": 0.0}
_LOAD = {"bus": REQUIRED, "mw": REQUIRED}


@reader
def parse_network(path) -> NetworkModel:
    """Read a network file; ``base_mva`` defaults to 100, and a missing or null ``limit_mw`` leaves a line unlimited."""
    base_mva, slack, buses, records = fields(load_json(path), _NETWORK, path, "top level")
    branches = [fields(rec, _BRANCH, path, "branches", i) for i, rec in enumerate(records)]
    return NetworkModel(  # the arguments convert in order: bus ids, branches, slack, base_mva
        buses=tuple(_integer(b) for b in buses),
        branches=tuple(
            Branch(_integer(i), _integer(j), _number(x_pu), None if limit is None else _number(limit))
            for i, j, x_pu, limit in branches
        ),
        slack=_integer(slack),
        base_mva=_number(base_mva),
    )


@reader
def parse_meters(path, net: NetworkModel) -> MeterConfig:
    (records,) = fields(load_json(path), _METERS, path, "top level")
    resolve = net.branch_resolver()
    meters = []
    for i, rec in enumerate(records):
        pair, sigma = fields(rec, _METER, path, "meters", i)
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ParseError(path, f"meters[{i}].branch", "expected a [from, to] bus pair")
        try:
            index, orientation = resolve(_integer(pair[0]), _integer(pair[1]))
        except UnknownBranch as exc:
            raise ValidationError(f"meters[{i}]: {exc}") from exc
        meters.append(Meter(branch=index, orientation=orientation, sigma=_number(sigma)))
    return MeterConfig(meters=tuple(meters))


@reader
def parse_measurements(path, expected_count: int | None = None) -> np.ndarray:
    (values,) = fields(load_json(path), _MEASUREMENTS, path, "top level")
    z = np.array([_number(v) for v in values])  # finite: load_json refuses the rest
    if expected_count is not None and z.shape[0] != expected_count:
        raise ValidationError(f"{path}: expected {expected_count} measurement values, got {z.shape[0]}")
    return z


@reader
def parse_market(path, net: NetworkModel) -> DispatchCase:
    gen_records, load_records = fields(load_json(path), _MARKET, path, "top level")
    generators = [fields(rec, _GENERATOR, path, "generators", i) for i, rec in enumerate(gen_records)]
    loads = [fields(rec, _LOAD, path, "loads", i) for i, rec in enumerate(load_records)]
    return DispatchCase(
        network=net,
        generators=tuple(
            Generator(_integer(bus), _number(price), _number(p_max), _number(p_min))
            for bus, price, p_max, p_min in generators
        ),
        loads=tuple(Load(_integer(bus), _number(mw)) for bus, mw in loads),
    )


def _write_text(path, text: str) -> None:
    """Write a file; a path that cannot be written is a ValidationError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def dump_attack(atk, path) -> None:
    doc = {"c": atk.c.tolist(), "a": atk.a.tolist(), "support": list(atk.support)}
    _write_text(path, json.dumps(doc, indent=2) + "\n")
