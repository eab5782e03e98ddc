"""JSON case-file readers.

Formats:

* network:      {"base_mva": 100, "slack": 1, "buses": [1, ...],
                 "branches": [{"from": 1, "to": 2, "x_pu": 0.03, "limit_mw": null}, ...]}
* meters:       {"meters": [{"branch": [1, 2], "sigma": 0.01}, ...]}
                (the listed bus pair fixes the meter's orientation)
* measurements: {"values_pu": [0.91, ...]}  in meter order
* market:       {"generators": [{"bus": 1, "price": 10, "pmax": 250, "pmin": 0}, ...],
                 "loads": [{"bus": 1, "mw": 100}, ...]}

Every reader reads each JSON object against its format's table of each key's reader and
default. A missing required key, a key the format does not list or a value its key's reader
refuses is a ParseError naming the file, the object and the key, such as
``meters.json: meters[0].sigma: '0.01' is not a number``; ``fields`` forms it. A bus id "x",
a number written as a string ("2") or a boolean, a scenario ``name`` that is not a string and
``detectors`` that are not a list are such values. Semantic problems raise the domain's errors.

The branches, meters and loads are read a column at a time, one list per key, each checked
whole, and the network and meter set are built from the columns. When a check refuses, the
records are read again one by one, each with ``fields`` and then its own checks, up to the
first one refused, so a file's first fault is reported as a record-by-record read reports it.

``_decimal`` and ``_real`` read a number written as text, such as a CLI option's value: ASCII
digits only, as strictly as the readers above read a JSON number.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError, UnknownBus, ValidationError
from .market import DispatchCase, Generator
from .network import Branch, Meter, MeterConfig, NetworkModel


def load_json(path) -> dict:
    """Read a JSON document; a key repeated in one object, or lists and objects nested about
    1,000 deep, is a ParseError. Its numbers are judged by the readers of their keys, which
    know where each one stands."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: text that is not UTF-8, a NUL in the path
        raise ParseError(path, "-", f"cannot read file: {exc}") from exc
    if not text.strip():
        raise ParseError(path, "line 1", "file is empty")

    def unique(pairs: list) -> dict:
        record = dict(pairs)
        if len(record) < len(pairs):
            _locate_repeated_key(text)  # raises, unless the objects nest too deep for json's Python scanner
            repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
            raise ParseError(path, "-", f"duplicate key '{repeated}'")
        return record

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno} column {exc.colno}", exc.msg) from exc
    except ValueError as exc:  # an integer of more digits than int() reads, 4,300 by default
        raise ParseError(path, "-", str(exc)) from exc
    except RecursionError:  # lists or objects nested past the interpreter's recursion limit; json gives no position
        raise ParseError(path, "-", "lists or objects nest too deep to read") from None


def _locate_repeated_key(text: str) -> None:
    """Raise a JSONDecodeError at the '{' of the first object in ``text`` to close that repeats a key.

    json's C scanner hands ``object_pairs_hook`` no position, so the text is read again by its
    Python scanner, whose object parser gets the offset just past each object's '{'. Objects
    nested too deep for its recursion raise nothing."""
    decoder = json.JSONDecoder(object_pairs_hook=list)

    def parse_object(s_and_end, *args):
        pairs, end = json.decoder.JSONObject(s_and_end, *args)
        keys = set()
        for key, _ in pairs:
            if key in keys:
                raise json.JSONDecodeError(f"duplicate key '{key}'", s_and_end[0], s_and_end[1] - 1)
            keys.add(key)
        return pairs, end

    decoder.parse_object = parse_object
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    with contextlib.suppress(RecursionError):
        decoder.decode(text)


# -- readers: each takes a JSON value and returns what it stands for, or raises a ValueError

def _number(value) -> float:
    """``float(value)`` of a finite JSON number. NaN, ±inf (which ``1e999`` reads as), an integer
    that overflows a float and any other value, a string or a boolean included, are a ValueError."""
    if type(value) is float:  # most values
        if math.isfinite(value):
            return value
    elif type(value) is not int:  # bool is not int here
        raise ValueError(f"{value!r} is not a number")
    elif abs(value) < 2**1024 - 2**970:  # the ints that float() rounds to at most the largest float
        return float(value)
    raise ValueError(f"non-finite number {value}")


def _integer(value) -> int:
    """``int(value)`` of a JSON number with no fractional part; a ValueError for any other value."""
    if type(value) is int:  # most values; bool is not int here
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


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


def _of_type(kind: type, name: str):
    """A reader of a value of JSON type ``kind`` (``name`` in its message), returned as it is."""
    def read(value):
        if type(value) is not kind:
            raise ValueError(f"expected {name}, got {type(value).__name__}")
        return value
    return read


_text, _list, _object = _of_type(str, "a string"), _of_type(list, "a list"), _of_type(dict, "an object")


def _items(read):
    """A reader of a JSON list whose items ``read`` reads, as a tuple."""
    return lambda value: tuple(_column(_list(value), read))


def _optional(read):
    """``read``, with null read as None."""
    return lambda value: None if value is None else read(value)


_optional_number = _optional(_number)


def _choice(options: dict, what: str):
    """A reader of a string that ``options`` lists, returning its entry there."""
    def read(value):
        if _text(value) not in options:
            raise ValueError(f"unknown {what} '{value}'")
        return options[value]
    return read


def _pair(value) -> tuple[int, int]:
    """The two bus ids of a ``[from, to]`` list."""
    if type(value) is not list or len(value) != 2:
        raise ValueError("expected a [from, to] bus pair")
    return _integer(value[0]), _integer(value[1])


# the types of the values each reader returns as they are, a float only when finite
_AS_READ = {_integer: {int}, _number: {float}, _optional_number: {float, type(None)}}


def _column(values: list, read) -> list:
    """``values``, each read by ``read``; the values of a bus pair reader flat, each pair's from and
    to bus in turn. A column of values that ``read`` returns as they are is checked in one pass over
    their types and one sum, which is finite only when every float is; the reader reads any other,
    and raises a ValueError at the first value it refuses."""
    kinds = set(map(type, values))
    if read is _pair:
        if not kinds <= {list} or not set(map(len, values)) <= {2}:
            raise ValueError("expected a [from, to] bus pair")
        return _column([bus for pair in values for bus in pair], _integer)
    if kinds <= _AS_READ.get(read, set()) and (int in kinds or math.isfinite(sum(filter(None, values)))):
        return values
    return list(map(read, values))


def _columns(records: list, table: dict) -> list[list]:
    """The values of ``records``' keys in ``table`` order, one ``_column`` per key, with a key's default
    where a record lacks it; a ValueError where ``fields`` refuses some record."""
    if not set(map(type, records)) <= {dict} or not set().union(*records) <= table.keys():
        raise ValueError("a record that is not an object, or a key its format does not list")
    return [_column([record.get(key, default) for record in records], read) for key, (read, default) in table.items()]


REQUIRED = object()  # the default of a key that a record must have


def fields(record, table: dict, path, where: str = "", index: int | None = None) -> list:
    """The values of ``record``'s keys in ``table`` order, each read by its key's reader, with a key's
    default where ``record`` lacks it.

    ``table`` maps each key of the record's format to (its reader, its default or REQUIRED).
    The first fault found is a ParseError: a record that is not a JSON object, then a key that
    ``table`` does not list, then, key by key in ``table`` order, a missing required key or a value
    its reader refuses. A value's fault is at ``where.key`` (the bare key at the top level), every
    other at ``where`` (``where[index]`` given an index).
    """
    if type(record) is not dict:
        raise ParseError(path, _location(where, index), f"expected an object, got {type(record).__name__}")
    if not record.keys() <= table.keys():
        unknown = next(key for key in record if key not in table)
        raise ParseError(path, _location(where, index), f"unknown field '{unknown}' (fields: {', '.join(table)})")
    values = []
    for key, (read, default) in table.items():
        if key in record:
            try:
                values.append(read(record[key]))
            except ValueError as exc:
                raise ParseError(path, f"{_location(where, index)}.{key}" if where else key, str(exc)) from exc
        elif default is REQUIRED:
            raise ParseError(path, _location(where, index), f"missing required field '{key}'")
        else:
            values.append(default)
    return values


def _location(where: str, index: int | None) -> str:
    """``where[index]``, or ``where`` without an index, or the top level; formed only for a fault."""
    return (where if index is None else f"{where}[{index}]") or "top level"


_NETWORK = {"base_mva": (_number, 100.0), "slack": (_integer, REQUIRED), "buses": (_items(_integer), REQUIRED),
            "branches": (_list, REQUIRED)}
_BRANCH = {"from": (_integer, REQUIRED), "to": (_integer, REQUIRED), "x_pu": (_number, REQUIRED),
           "limit_mw": (_optional_number, None)}
_METERS = {"meters": (_list, REQUIRED)}
_METER = {"branch": (_pair, REQUIRED), "sigma": (_number, 0.01)}
_MEASUREMENTS = {"values_pu": (_items(_number), REQUIRED)}
_MARKET = {"generators": (_list, REQUIRED), "loads": (_list, REQUIRED)}
_GENERATOR = {"bus": (_integer, REQUIRED), "price": (_number, REQUIRED), "pmax": (_number, REQUIRED),
              "pmin": (_number, 0.0)}
_LOAD = {"bus": (_integer, REQUIRED), "mw": (_number, REQUIRED)}


def parse_network(path) -> NetworkModel:
    """Read a network file; ``base_mva`` defaults to 100, and a missing or null ``limit_mw`` leaves a line unlimited."""
    base_mva, slack, buses, records = fields(load_json(path), _NETWORK, path)
    try:
        columns = _columns(records, _BRANCH)
    except ValueError:  # some record is refused: read them one by one, up to the first refused
        for i, record in enumerate(records):
            Branch(*fields(record, _BRANCH, path, "branches", i))
        raise
    return NetworkModel.from_columns(buses, *columns, slack, base_mva)


def parse_meters(path, net: NetworkModel) -> MeterConfig:
    """Read a meter file: each listed bus pair names the first branch in input order that joins
    the two buses, whichever way it is stored, read from the pair's first bus to its second."""
    (records,) = fields(load_json(path), _METERS, path)
    try:
        ends, sigmas = _columns(records, _METER)
        branch, orientation = _first_branches(net, ends)
        if -1 in branch:
            raise ValueError("a bus pair that no branch joins")
    except ValueError:  # some record is refused: read them one by one, up to the first refused
        for i, record in enumerate(records):
            (f, t), sigma = fields(record, _METER, path, "meters", i)
            (index,), (orientation,) = _first_branches(net, [f, t])
            if index < 0:
                raise ValidationError(f"meters[{i}]: no branch joins buses {f} and {t}")
            Meter(index, orientation, sigma)
        raise
    return MeterConfig.from_columns(branch, orientation, sigmas)


def _first_branches(net: NetworkModel, ends: list) -> tuple[list, list]:
    """For each bus pair of ``ends``, flat, each pair's buses in turn: the first branch in input order
    that joins the two buses, whichever way it is stored, -1 where none does, and +1.0 where that branch
    is stored from the pair's first bus, -1.0 where it is stored the other way. A branch and a pair are
    keyed lower * n + higher of their bus positions, < 0 where a bus is unknown; the keys are formed
    in three numpy calls, and a dict over them, filled from the last branch to the first, keeps each
    key's first branch."""
    n, position = len(net.buses), net.position
    keys = (np.sort(net.ends, axis=1) @ (n, 1)).tolist()
    first = dict(zip(keys[::-1], range(len(keys) - 1, -1, -1)))
    f, t = [position.get(bus, -1) for bus in ends[::2]], [position.get(bus, -1) for bus in ends[1::2]]
    branch = [first.get(a * n + b if a < b else b * n + a, -1) for a, b in zip(f, t)]
    head = net.ends[:, 0].tolist() + [n]  # a pair's k = -1, no branch, reads the last entry
    return branch, [1.0 if head[k] == a else -1.0 for k, a in zip(branch, f)]


def parse_measurements(path) -> np.ndarray:
    (values,) = fields(load_json(path), _MEASUREMENTS, path)
    return np.array(values, dtype=float)  # finite: _number refuses the rest


def parse_market(path, net: NetworkModel) -> DispatchCase:
    """Read a market file; each bus's demand sums its load records in file order. A record's
    negative demand is refused, though the bus's sum may be >= 0."""
    generators, loads = fields(load_json(path), _MARKET, path)
    generators = tuple(Generator(*fields(rec, _GENERATOR, path, "generators", i)) for i, rec in enumerate(generators))
    try:
        buses, mw = _columns(loads, _LOAD)
        rows = [net.position.get(bus, -1) for bus in buses]
        if -1 in rows or min(mw, default=0.0) < 0:  # finite: _number refuses the rest
            raise ValueError("a negative load, or a load at an unknown bus")
    except ValueError:  # some record is refused: read them one by one, up to the first refused
        for i, rec in enumerate(loads):
            bus, mw = fields(rec, _LOAD, path, "loads", i)
            if mw < 0:
                raise ValidationError(f"load at bus {bus}: demand {mw} < 0")
            if bus not in net.position:
                raise UnknownBus(f"load references unknown bus {bus}")
        raise
    # bincount adds each row's loads in file order, as a sum from 0.0 record by record would
    return DispatchCase(net, generators, np.bincount(np.array(rows, dtype=np.intp), mw, len(net.buses)))
