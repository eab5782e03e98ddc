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
a number written as a string ("2") or a boolean, a string that UTF-8 cannot encode, a scenario
``name`` that is not a string and ``detectors`` that are not a list are such values. Semantic
problems raise the domain's errors.

Each record is read once, with ``fields`` and then its own checks (``Branch``, ``Meter``,
``Generator`` and a load's), so a file's first faulty record is the one reported, and the
network, meter set and market are built from the records read.

Files are read as UTF-8, whatever the locale. ``parse_network``, ``parse_meters`` and
``parse_market`` each keep one entry: the text of the last file they accepted, the network it was
read against and the object they returned. A call whose file text equals the entry's, read against
the same network object, returns that object, so the runs of one grid parse its files once; any
other call parses, and its result takes the entry. Every object a reader returns is read-only, and
a refused file raises on every call and is never kept.

``_decimal`` and ``_real`` read a number written as text, such as a CLI option's value: ASCII
digits only, as strictly as the readers above read a JSON number.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError, UnknownBus, ValidationError
from .market import DispatchCase, Generator
from .network import Branch, Meter, MeterConfig, NetworkModel


def load_json(path) -> dict:
    """Read a JSON document, as UTF-8 whatever the locale; a key repeated in one object, or lists and objects
    nested about 1,000 deep, is a ParseError. Its numbers are judged by the readers of their keys, which
    know where each one stands."""
    return _decode(Path(path), _read_text(path))


def _read_text(path) -> str:
    """The text of a file, read as UTF-8 (RFC 8259), or a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: text that is not UTF-8, a NUL in the path
        raise ParseError(Path(path), "-", f"cannot read file: {exc}") from exc


def _decode(path: Path, text: str) -> dict:
    """The JSON document of ``text``, the text of ``path``, as ``load_json`` reads it."""
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


_string, _list, _object = _of_type(str, "a string"), _of_type(list, "a list"), _of_type(dict, "an object")


def _text(value) -> str:
    """A JSON string that UTF-8 encodes. json reads an escaped lone surrogate, such as ``"\\ud800"``,
    into a string that UTF-8 cannot encode, so no report or ``--out`` file could hold it."""
    try:
        _string(value).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{value!r} holds a lone surrogate, which UTF-8 cannot encode") from None
    return value


def _items(read):
    """A reader of a JSON list whose items ``read`` reads, as a tuple."""
    return lambda value: tuple([read(item) for item in _list(value)])


def _optional(read):
    """``read``, with null read as None."""
    return lambda value: None if value is None else read(value)


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
           "limit_mw": (_optional(_number), None)}
_METERS = {"meters": (_list, REQUIRED)}
_METER = {"branch": (_pair, REQUIRED), "sigma": (_number, 0.01)}
_MEASUREMENTS = {"values_pu": (_items(_number), REQUIRED)}
_MARKET = {"generators": (_list, REQUIRED), "loads": (_list, REQUIRED)}
_GENERATOR = {"bus": (_integer, REQUIRED), "price": (_number, REQUIRED), "pmax": (_number, REQUIRED),
              "pmin": (_number, 0.0)}
_LOAD = {"bus": (_integer, REQUIRED), "mw": (_number, REQUIRED)}


# Each memoised reader's one entry, replaced in one assignment: (the text of the last file it accepted,
# the network it was read against, what it returned).
_last: dict = {}


def _kept(parse):
    """``parse(path, document, *net)`` as a reader ``(path, *net)`` that keeps one entry in ``_last``: a call
    whose file text equals the entry's, read against the same network object, returns the entry's object;
    any other decodes that text and parses it, and its result takes the entry. So the result is a pure
    function of the text the document is decoded from, and a refused file is never kept."""

    @functools.wraps(parse)
    def read(path, *net):
        text, entry = _read_text(path), _last.get(parse.__name__, ())  # one read: a thread may replace the entry
        if entry[:2] != (text, net):  # a NetworkModel compares by identity
            entry = _last[parse.__name__] = (text, net, parse(path, _decode(Path(path), text), *net))
        return entry[2]

    return read


@_kept
def parse_network(path, document) -> NetworkModel:
    """Read a network file; ``base_mva`` defaults to 100, and a missing or null ``limit_mw`` leaves a line unlimited."""
    base_mva, slack, buses, records = fields(document, _NETWORK, path)
    branches = [Branch(*fields(record, _BRANCH, path, "branches", i)) for i, record in enumerate(records)]
    return NetworkModel(buses, branches, slack, base_mva)


@_kept
def parse_meters(path, document, net: NetworkModel) -> MeterConfig:
    """Read a meter file: each listed bus pair names the first branch in input order that joins
    the two buses, whichever way it is stored, read from the pair's first bus to its second."""
    (records,) = fields(document, _METERS, path)
    first: dict[tuple[int, int], int] = {}  # each bus pair's first branch, keyed (lower id, higher id)
    for i, br in enumerate(net.branches):
        f, t = br.from_bus, br.to_bus
        first.setdefault((f, t) if f < t else (t, f), i)
    meters = []
    for i, record in enumerate(records):
        (f, t), sigma = fields(record, _METER, path, "meters", i)
        index = first.get((f, t) if f < t else (t, f))
        if index is None:
            raise ValidationError(f"meters[{i}]: no branch joins buses {f} and {t}")
        meters.append(Meter(index, 1 if net.branches[index].from_bus == f else -1, sigma))
    return MeterConfig(meters)


def parse_measurements(path) -> np.ndarray:
    (values,) = fields(load_json(path), _MEASUREMENTS, path)
    return np.array(values, dtype=float)  # finite: _number refuses the rest


@_kept
def parse_market(path, document, net: NetworkModel) -> DispatchCase:
    """Read a market file record by record; each bus's demand sums its load records in file
    order. A record's negative demand is refused, though the bus's sum may be >= 0."""
    generators, loads = fields(document, _MARKET, path)
    generators = tuple(Generator(*fields(rec, _GENERATOR, path, "generators", i)) for i, rec in enumerate(generators))
    rows, demand = [], []
    for i, rec in enumerate(loads):
        bus, mw = fields(rec, _LOAD, path, "loads", i)
        if mw < 0:  # finite: _number refuses the rest
            raise ValidationError(f"load at bus {bus}: demand {mw} < 0")
        if bus not in net.position:
            raise UnknownBus(f"load references unknown bus {bus}")
        rows.append(net.position[bus])
        demand.append(mw)
    # bincount adds each row's loads in file order, as a sum from 0.0 record by record would
    return DispatchCase(net, generators, np.bincount(np.array(rows, dtype=np.intp), demand, len(net.buses)))
