"""Report documents and their deterministic serialization.

The JSON emitter is hand-rolled for reproducibility: every float, in the
JSON reports and the CSV files alike, is written with the one format
``FLOAT_FORMAT`` (%.17g, which round-trips every double), dictionary
order is insertion order, and numeric leaf arrays are kept on one line.
Identical inputs therefore produce byte-identical documents.

Repeated records are rendered one column at a time.  A run is a list or
a dict of at least ``_MIN_RUN`` values of one type, dict, list or
complex: the route tables, ``weak_values``, ``two_state`` and
``arm_input_amplitudes``.  Smaller or mixed containers are cheaper value
by value.  A run's dicts share one non-empty key tuple, and each key's
values form a column of one kind that is checked and formatted in one
pass: strings are encoded by one mapped call, a float column gets one
finiteness check and a ``FLOAT_FORMAT`` slot, exact ints a ``%d`` slot,
complex numbers a ``re`` and an ``im`` column, nested records of one key
tuple their own columns, and string lists (a route's ``arms``) are
joined item by item.  One ``%`` template at the run's indent describes
every item, and one ``%`` call fills it for the whole run.  A column of
anything else -- numpy scalars, subclasses of built-in types, ``None``,
mixed kinds, lists of other values -- is rendered value by value, and a
run of dicts of several key tuples, or of lists that are not all string
lists, is no run.  Either way the text is the same, byte for byte, so
the report format does not change.

NaN and inf are refused with ``NonFiniteResultError``, and a non-string
key with ``TypeError``; either names the first bad value in document
order.  When a column's check fails, the run is rendered again value by
value, which raises at the first bad value that order meets.  A
spectrum's power, a ``Floats`` in its report, is checked with one
array-wide ``np.isfinite`` test before any text is made, and a CSV table
likewise one chunk of rows at a time.  They are then written by
``_floattext.join_floats``, which gives the text of ``FLOAT_FORMAT`` byte
for byte from numpy array steps; that module says why the text is exact.
The JSON report and ``spectrum.csv`` share one formatting of the power.
A CSV file's text grows from its header by a chunk of rows at a time, so
little is held beyond it.

A ``Rendered`` value writes its own JSON text at the indent where
``render_json`` meets it: a report's echo of a custom network's nodes and
arms, written from the parsed records by ``scenario.scenario_echo``.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, repeat
from operator import attrgetter, itemgetter

import numpy as np

from ._floattext import FLOAT_FORMAT, join_floats
from .errors import DegeneratePointerError, NonFiniteResultError
from .netgraph import Network
from .pathsum import PathEnsemble
from .spectra import BlockingSuite, SpectralReport

VERSION = "0.1.0"

# the C encoder behind json.dumps(str, ensure_ascii=True)
_encode_str = json.encoder.encode_basestring_ascii

# types that keep a list on one line (subclasses included)
_SCALARS = (bool, int, float, str, np.integer, np.floating, type(None))

_JSON_BOOLS = ("false", "true")
_real, _imag = attrgetter("real"), attrgetter("imag")


class Floats(np.ndarray):
    """A float64 array formatted once, on first use: a spectrum's power is
    printed by the JSON report and by ``spectrum.csv`` from the same text.
    ``Floats(values)`` views a float64 array without a copy."""

    def __new__(cls, values):
        return np.asarray(values, dtype=float).view(cls)

    @functools.cached_property
    def text(self) -> str:
        """Every value in ``FLOAT_FORMAT``, joined by ", " as in a JSON array."""
        return _fmt_floats(self.view(np.ndarray), ", ", "")


class Rendered:
    """JSON text that ``render_json`` does not make itself: ``write(indent)``
    writes it as a value at the indent where it lands.  A report echoes a
    custom network's nodes and arms this way (``scenario.scenario_echo``)."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write


class _ColumnCheckFailed(Exception):
    """A column holds a value that its one-pass check refuses."""


def _non_finite(x) -> NonFiniteResultError:
    return NonFiniteResultError(f"the result holds a non-finite value ({float(x)!r})")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return FLOAT_FORMAT % x


def _fmt_floats(values: np.ndarray, sep: str, end: str) -> str:
    """Every float of ``values`` in ``FLOAT_FORMAT``, in C order: the values
    of each row (the last axis) joined by ``sep``, each row followed by
    ``end``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(values[~finite][0])
    return join_floats(values, sep, end)


def _render(value, indent: int) -> str:
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        return _fmt_float(value)
    if kind is dict:
        if not value:
            return "{}"
        text = _render_run(value.values(), indent, value)
        if text is not None:
            return text
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            items.append(_encode_str(key) + ": " + _render(item, indent + 1))
        return _lines("{", items, "}", indent)
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            return "[" + ", ".join(map(_encode_str, value)) + "]"
        if all(issubclass(k, _SCALARS) for k in kinds):
            return "[" + ", ".join([_render(v, indent + 1) for v in value]) + "]"
        text = _render_run(value, indent)
        if text is not None:
            return text
        return _lines("[", [_render(v, indent + 1) for v in value], "]", indent)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is complex and math.isfinite(value.real) and math.isfinite(value.imag):
        return _complex_template(indent) % (value.real, value.imag)
    if kind is Floats:
        return "[" + value.text + "]"
    if kind is Rendered:
        return value.write(indent)
    return _render(_builtin(value), indent)


def _lines(opening: str, items, closing: str, indent: int) -> str:
    """``items`` one per line at ``indent + 1``, between ``opening`` and
    ``closing``."""
    inner = "\n" + "  " * (indent + 1)
    # one copy of the joined items, which may be long
    return f"{opening}{inner}{(',' + inner).join(items)}\n{'  ' * indent}{closing}"


# the item types that make a run, and the fewest items that pay for the
# column path's set-up
_RUN_KINDS = {dict, list, complex}
_MIN_RUN = 8


def _render_run(values, indent: int, keys=None) -> str | None:
    """A list's items, or a dict's values with the dict as ``keys``, written
    with one template for every item and filled by one ``%`` call.

    ``None`` when they are not a run (fewer than ``_MIN_RUN`` values,
    values of more than one type or of a type outside ``_RUN_KINDS``, or
    values of no column kind), and when a check fails or a key is not a
    string: the caller then renders value by value, and the first bad
    value in document order raises."""
    kinds = set(map(type, values))
    if len(values) < _MIN_RUN or len(kinds) != 1 or not kinds <= _RUN_KINDS:
        return None
    try:
        column = _column(list(values), indent + 1)
        if column is None:
            return None
        template, columns = column
        opening, closing = "[", "]"
        if keys is not None:
            opening, closing = "{", "}"
            template, columns = "%s: " + template, [list(map(_encode_str, keys)), *columns]
        return _lines(opening, repeat(template, len(values)), closing, indent) % tuple(
            chain.from_iterable(zip(*columns))
        )
    except (_ColumnCheckFailed, NonFiniteResultError, TypeError, ValueError):
        return None


def _check_finite(values: list) -> None:
    # NaN and inf survive a sum; an overflow only costs the value-by-value path
    if not math.isfinite(sum(values)):
        raise _ColumnCheckFailed


def _record_template(keys, templates, indent: int) -> str:
    fields = [_encode_str(k).replace("%", "%%") + ": " + t for k, t in zip(keys, templates)]
    return _lines("{", fields, "}", indent)


@functools.lru_cache(maxsize=32)  # one entry per nesting depth
def _complex_template(indent: int) -> str:
    return _record_template(("re", "im"), (FLOAT_FORMAT, FLOAT_FORMAT), indent)


def _str_lists(values: list) -> list[str]:
    """Each list of strings in ``values`` on one line."""
    raw = "".join(chain.from_iterable(values))
    if len(_encode_str(raw)) == len(raw) + 2:  # no string needs an escape: quote around the joins
        return ['["' + '", "'.join(v) + '"]' if v else "[]" for v in values]
    return ["[" + ", ".join(map(_encode_str, v)) + "]" for v in values]


def _column(values: list, indent: int) -> tuple[str, list[list]] | None:
    """The ``%`` template of one item of ``values`` at ``indent``, and the
    columns of arguments that fill it, one entry per item; ``None`` unless
    the values are of one column kind: str, float, int, bool, complex, a
    record of one non-empty key tuple, or a list of strings."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return "%s", [list(map(_encode_str, values))]
    if kind is float:
        _check_finite(values)
        return FLOAT_FORMAT, [values]
    if kind is int:
        return "%d", [values]
    if kind is bool:
        return "%s", [list(map(_JSON_BOOLS.__getitem__, values))]
    if kind is complex:
        re, im = list(map(_real, values)), list(map(_imag, values))
        _check_finite(re)
        _check_finite(im)
        return _complex_template(indent), [re, im]
    if kind is dict:
        shapes = set(map(tuple, values))
        keys = shapes.pop() if len(shapes) == 1 else None
        if keys:  # _record_template refuses a key that is not a string
            templates, columns = [], []
            for key in keys:
                field = list(map(itemgetter(key), values))
                column = _column(field, indent + 1)
                template, cols = column or ("%s", [[_render(v, indent + 1) for v in field]])
                templates.append(template)
                columns += cols
            return _record_template(keys, templates, indent), columns
    elif kind is list and set(map(type, chain.from_iterable(values))) <= {str}:
        return "%s", [_str_lists(values)]
    return None


def _builtin(value):
    """The built-in value that a numpy scalar or array, a complex number, a
    tuple or a subclass of a built-in type is written as."""
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_json(doc: dict) -> str:
    """Serialize a report document; trailing newline included."""
    return _render(doc, 0) + "\n"


def envelope(command: str, scenario_document: dict, net: Network, result: dict) -> dict:
    return {
        "tool": "weaktrace",
        "version": VERSION,
        "command": command,
        "scenario": scenario_document,
        "network": {
            "nodes": len(net.nodes),
            "arms": len(net.arms),
            "source": net.source,
            "detectors": list(net.detectors),
            "sites": sorted(net.site_labels()),
        },
        "result": result,
    }


def paths_result(ens: PathEnsemble, terminals: dict[str, complex]) -> dict:
    return {
        "detector": ens.detector,
        "paths": [
            {
                "arms": list(p.arms),
                "sites": list(p.sites),
                "amplitude": p.amplitude,
                "blocked": p.blocked,
            }
            for p in ens.paths
        ],
        "total": ens.total,
        "probability": abs(ens.total) ** 2,
        "terminals": {
            t: {"amplitude": a, "probability": abs(a) ** 2}
            for t, a in sorted(terminals.items())
        },
        "terminal_probability_sum": sum(abs(a) ** 2 for a in terminals.values()),
    }


def weak_result(ens: PathEnsemble, alphas, values: dict[str, complex], states: dict) -> dict:
    """The route table, and each site's weak value and the two states
    behind it."""
    return {
        "detector": ens.detector,
        "total": ens.total,
        "probability": abs(ens.total) ** 2,
        "paths": [
            {
                "sites": list(p.sites),
                "amplitude": p.amplitude,
                "relative_amplitude": a,
            }
            for p, a in zip(ens.paths, np.asarray(alphas).tolist())
        ],
        "weak_values": values,
        "two_state": states,
    }


def pointer_result(
    detector: str,
    site: str,
    sigma: float,
    weak_value: complex,
    readings: list[tuple[float, float]],
) -> dict:
    return {
        "detector": detector,
        "site": site,
        "sigma": sigma,
        "weak_value": weak_value,
        "readings": [
            {
                "coupling": g,
                "shift": shift,
                "first_order": g * weak_value.real,
            }
            for g, shift in readings
        ],
    }


def spectral_result(report: SpectralReport) -> dict:
    return {
        "detector": report.detector,
        "sigma": report.sigma,
        "samples": report.samples,
        "mean_rate": report.mean_rate,
        "noise_floor": report.noise_floor,
        "peaks": [
            {
                "site": p.site,
                "bin": p.bin,
                "power": p.power,
                "classification": p.classification,
            }
            for p in report.peaks
        ],
        "power": Floats(report.power),
    }


def blocking_result(suite: BlockingSuite) -> dict:
    configs = []
    for c in suite.configs:
        doc = {"name": c.name, "blocked_site": c.blocked_site}
        if c.report is None:
            doc.update(error=DegeneratePointerError.code, message=c.error)
        else:
            doc["static_probability"] = c.static_probability
            doc.update(spectral_result(c.report))
        configs.append(doc)
    return {"configs": configs}


# the rows of a CSV file made at once: its text grows by one chunk of rows
# at a time, and only that chunk is held apart from it
_CSV_CHUNK = 2**14


def _csv(header: str, *columns) -> str:
    """The header, then one row per index: the index and each column's float."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    text = header + "\n"
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        chunk = [c[lo : lo + _CSV_CHUNK] for c in columns]
        index = np.arange(lo, lo + len(chunk[0]), dtype=float)
        # "%.17g" writes every index below 2**53 as its integer digits; the
        # first bad value of a later chunk raises as it would from the whole table
        text += _fmt_floats(np.column_stack([index, *chunk]), ",", "\n")
    return text


def timeseries_csv(xbar, rate) -> str:
    return _csv("k,xbar,rate", xbar, rate)


def _split_chunks(text: str, sep: str, size: int):
    """``text`` split at every ``sep``, one list per stretch of about
    ``size`` characters that ends at a separator."""
    start = 0
    while start < len(text):
        stop = text.find(sep, start + size)
        stop = len(text) if stop < 0 else stop
        yield text[start:stop].split(sep)
        start = stop + len(sep)


def spectrum_csv(power) -> str:
    """``power`` may be the ``Floats`` of a spectral report, whose text the
    JSON report has already made."""
    if type(power) is not Floats:
        power = Floats(power)
    text, k = "bin,power\n", 0
    # about _CSV_CHUNK bins at a time, from the longest text a value can have;
    # appending to the one reference resizes the text in place (in a for loop:
    # from a while loop's body, CPython 3.11 copied the text on every append)
    for values in _split_chunks(power.text, ", ", 24 * _CSV_CHUNK):
        rows = chain.from_iterable(zip(range(k, k + len(values)), values))
        text += ("%d,%s\n" * len(values)) % tuple(rows)
        k += len(values)
    return text
