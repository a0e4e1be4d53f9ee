"""Scenario documents: the JSON input format of the command line tool.

A scenario names a network (the standard nested layout, possibly with
scatter overrides and blocked sites, or a fully custom node/arm list) and
optionally one experiment section.  Parsing is strict: unknown keys,
wrong types, and out-of-range values raise SchemaError naming the JSON
path of the first bad value, such as ``$.network.arms[3].from[0]``; of
several missing required keys, the first in a fixed order is named.  Each
reader takes only the value it reads, and the path is spelled only when a
check fails.  A custom network's ``nodes`` and ``arms`` are read one
column at a time: each field of every record is gathered into one list and
checked by the types it holds.  If any such check fails, the record readers
read the array again from its first item; they alone name the first bad
value, so both ways accept the same documents and build the same records.
Semantic problems that need the assembled graph (non-unitary scatter,
cycles, unknown site labels) are deferred to network construction:
``build_scenario_network`` builds the section's network, standard or
custom, and then blocks the sites of its ``blocks`` with
``netgraph.apply_block``, so every network error comes before an unknown
blocked site.  A spectral or blocking plan read from a custom network's
arm modulations is checked while parsing, but when the arms give no plan,
the network is built first, so its own fault is named before the plan's.

``parse_scenario`` fills every default, and ``scenario_doc`` renders a
Scenario back to a plain document, so parse(render(s)) == s: a record's
optional keys are left out at their defaults.  A report echoes the
scenario through ``scenario_echo``, which writes a custom network's nodes
and arms as JSON text straight from the records, at the indent where they
land in the report: the same bytes that ``reports.render_json`` makes of
``scenario_doc``.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter

from ._floattext import FLOAT_FORMAT
from .errors import SchemaError, UnknownLabelError
from .netgraph import (
    NODE_KINDS,
    Arm,
    Matrix2,
    Modulation,
    Network,
    Node,
    apply_block,
    build_network,
    standard_nested_mzi,
)
from .reports import Rendered, _complex_template, _encode_str, _lines, _record_template
from .spectra import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    STANDARD_BLOCK_SITES,
    ModulationPlan,
    NoiseModel,
    SiteModulation,
    default_plan,
    plan_from_network,
)

STANDARD_SPLITTERS = ("BS1", "BS2", "BS3", "BS4")
DEFAULT_POINTER_COUPLING_FRACTIONS = (0.125, 0.0625, 0.03125)


@dataclass(frozen=True)
class NetworkSection:
    kind: str
    scatter: tuple[tuple[str, Matrix2], ...] = ()
    blocks: tuple[str, ...] = ()
    nodes: tuple[Node, ...] = ()
    arms: tuple[Arm, ...] = ()


@dataclass(frozen=True)
class PathsExperiment:
    detector: str | None = None


@dataclass(frozen=True)
class WeakValuesExperiment:
    detector: str | None = None
    sites: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PointerExperiment:
    site: str
    sigma: float = 1.0
    couplings: tuple[float, ...] = ()
    detector: str | None = None


@dataclass(frozen=True)
class SpectralExperiment:
    sigma: float
    plan: ModulationPlan
    noise: NoiseModel | None = None
    detector: str | None = None


@dataclass(frozen=True)
class BlockingExperiment:
    sigma: float
    plan: ModulationPlan
    block_sites: tuple[str, ...] = STANDARD_BLOCK_SITES
    detector: str | None = None


Experiment = (
    PathsExperiment
    | WeakValuesExperiment
    | PointerExperiment
    | SpectralExperiment
    | BlockingExperiment
)

EXPERIMENT_KINDS = {
    "paths": PathsExperiment,
    "weak_values": WeakValuesExperiment,
    "pointer": PointerExperiment,
    "spectral": SpectralExperiment,
    "blocking": BlockingExperiment,
}

_EXPERIMENT_KEYS = {
    "paths": ("kind", "detector"),
    "weak_values": ("kind", "detector", "sites"),
    "pointer": ("kind", "detector", "site", "sigma", "couplings"),
    "spectral": ("kind", "detector", "sigma", "samples", "plan", "noise"),
    "blocking": ("kind", "detector", "sigma", "samples", "plan", "block_sites"),
}


@dataclass(frozen=True)
class Scenario:
    network: NetworkSection
    experiment: Experiment | None = None


class _Invalid(Exception):
    """A failed check.  ``keys`` locates it, innermost object key or array
    index first; ``_at`` appends one as the error leaves each container."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.keys = [] if key is None else [key]


@contextmanager
def _schema_errors():
    """Raise a failed check as SchemaError, its keys spelled as a JSON path."""
    try:
        yield
    except _Invalid as exc:
        path = "$" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" for key in reversed(exc.keys)
        )
        raise SchemaError(path, str(exc)) from exc.__cause__


_REQUIRED = object()


def _at(container, key, read, default=_REQUIRED):
    """``read(container[key])``, with a failed check inside it moved under
    ``key``.  Given a ``default``, an absent object key returns it."""
    if default is not _REQUIRED and key not in container:
        return default
    try:
        return read(container[key])
    except _Invalid as exc:
        exc.keys.append(key)
        raise


def _check_keys(obj: dict, allowed, required: tuple[str, ...] = ()):
    """Reject a key outside ``allowed`` (any key if None), then the first missing one."""
    if allowed is not None:
        for key in obj:
            if key not in allowed:
                raise _Invalid("unknown key", key)
    for key in required:
        if key not in obj:
            raise _Invalid(f"missing required key {key!r}")


def _typed(kind: type, name: str):
    """A reader that accepts only a value whose type is exactly ``kind``;
    ``json.loads`` makes no subclasses, so this keeps booleans out of ints."""

    def read(value):
        if type(value) is not kind:
            raise _Invalid(f"expected {name}, got {type(value).__name__}")
        return value

    return read


_object = _typed(dict, "an object")
_array = _typed(list, "an array")
_string = _typed(str, "a string")
_integer = _typed(int, "an integer")


def _number(value) -> float:
    if type(value) is not float and type(value) is not int:
        raise _Invalid(f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal past the float range
        out = math.inf
    if not math.isfinite(out):
        raise _Invalid("number must be finite")
    return out


def _items(read):
    """A reader of a JSON array whose every item ``read`` reads."""

    def read_items(value) -> tuple:
        items = _array(value)
        return tuple([_at(items, i, read) for i in range(len(items))])

    return read_items


_string_list = _items(_string)


def _complex(value) -> complex:
    """A JSON number, or an object {"re": x, "im": y}."""
    if isinstance(value, dict):
        _check_keys(value, ("re", "im"), ("re", "im"))
        return complex(_at(value, "re", _number), _at(value, "im", _number))
    return complex(_number(value))


def _pair(first, second, wrong_length: str):
    """A reader of a two-item JSON array, its items read by ``first`` and
    ``second``; any other length fails with ``wrong_length.format(length)``."""

    def read_pair(value):
        items = _array(value)
        if len(items) != 2:
            raise _Invalid(wrong_length.format(len(items)))
        return _at(items, 0, first), _at(items, 1, second)

    return read_pair


_row = _pair(_complex, _complex, "expected 2 entries, got {}")
_matrix = _pair(_row, _row, "expected 2 rows, got {}")
_endpoint = _pair(_string, _integer, "expected [node_id, port]")


def _probe(value) -> Modulation:
    """A probe's {"delta", "bin"}, on an arm or in an experiment plan."""
    obj = _object(value)
    _check_keys(obj, ("delta", "bin"), ("delta", "bin"))
    delta = _at(obj, "delta", _number)
    if delta < 0.0:
        raise _Invalid("modulation depth must be non-negative", "delta")
    return Modulation(delta=delta, bin=_at(obj, "bin", _integer))


_NODE_KEYS = ("id", "kind", "scatter", "label")
_NODE_REQUIRED = ("id", "kind")
_ARM_KEYS = ("id", "from", "to", "label", "phase", "transmission", "modulation")
_ARM_REQUIRED = ("id", "from", "to")


def _node(value) -> Node:
    obj = _object(value)
    _check_keys(obj, _NODE_KEYS, _NODE_REQUIRED)
    kind = _at(obj, "kind", _string)
    if kind not in NODE_KINDS:
        raise _Invalid(f"unknown node kind {kind!r}", "kind")
    scatter = _at(obj, "scatter", _matrix, None)
    label = _at(obj, "label", _string, None)
    return Node(id=_at(obj, "id", _string), kind=kind, scatter=scatter, label=label)


def _arm(value) -> Arm:
    obj = _object(value)
    _check_keys(obj, _ARM_KEYS, _ARM_REQUIRED)
    # from_node, from_port, to_node, to_port
    ends = (*_at(obj, "from", _endpoint), *_at(obj, "to", _endpoint))
    modulation = _at(obj, "modulation", _probe, None)
    return Arm(
        _at(obj, "id", _string),
        *ends,
        label=_at(obj, "label", _string, None),
        static_phase=_at(obj, "phase", _number, 0.0),
        transmission=_at(obj, "transmission", _number, 1.0),
        modulation=modulation,
    )


class _Irregular(Exception):
    """A failed column check; the record readers then name the bad value."""


def _shapes(items, allowed, required) -> set[tuple[str, ...]]:
    """The distinct key tuples of ``items``, if it is a non-empty list of
    exact dicts whose keys are all ``allowed`` and include ``required``."""
    if type(items) is not list or not items or set(map(type, items)) != {dict}:
        raise _Irregular
    shapes = set(map(tuple, items))
    for keys in shapes:
        if not set(required) <= set(keys) <= set(allowed):
            raise _Irregular
    return shapes


def _typed_column(values, *kinds):
    """``values``, if the type of each is exactly one of ``kinds``; only
    types are hashed, since a value may be a list."""
    if not set(map(type, values)) <= set(kinds):
        raise _Irregular
    return values


def _field(items, key, *kinds):
    """The value under ``key``, a required key, on every item."""
    return _typed_column([item[key] for item in items], *kinds)


def _endpoints(items, key):
    """Node ids and ports of the ``[node_id, port]`` under ``key`` on every item."""
    ends = _field(items, key, list)
    if set(map(len, ends)) != {2}:
        raise _Irregular
    node_ids, ports = zip(*ends)
    return _typed_column(node_ids, str), _typed_column(ports, int)


def _numbers(items, key, default: float) -> list[float]:
    """Finite numbers under ``key``, ``default`` where it is absent."""
    values = _typed_column([item.get(key, default) for item in items], float, int)
    values = list(map(float, values))  # OverflowError past the float range
    # an inf or a nan makes the sum non-finite (as can two huge finite
    # values, which the record readers then accept)
    if not math.isfinite(sum(values)):
        raise _Irregular
    return values


_ABSENT = object()


def _optional(items, shapes, key, read) -> list:
    """``read`` of the value under ``key`` on every item, None where it is absent."""
    if not any(key in keys for keys in shapes):
        return [None] * len(items)
    values = [item.get(key, _ABSENT) for item in items]
    return [None if v is _ABSENT else read(v) for v in values]  # read(None) fails


def _node_columns(items) -> tuple[Node, ...]:
    shapes = _shapes(items, _NODE_KEYS, _NODE_REQUIRED)
    kinds = _field(items, "kind", str)
    if not set(kinds) <= set(NODE_KINDS):
        raise _Irregular
    scatters = _optional(items, shapes, "scatter", _matrix)
    labels = _optional(items, shapes, "label", _string)
    return tuple(map(Node, _field(items, "id", str), kinds, scatters, labels))


def _arm_columns(items) -> tuple[Arm, ...]:
    shapes = _shapes(items, _ARM_KEYS, _ARM_REQUIRED)
    return tuple(
        map(
            Arm,
            _field(items, "id", str),
            *_endpoints(items, "from"),
            *_endpoints(items, "to"),
            _optional(items, shapes, "label", _string),
            _numbers(items, "phase", 0.0),
            _numbers(items, "transmission", 1.0),
            _optional(items, shapes, "modulation", _probe),
        )
    )


def _records(value, columns, read) -> tuple:
    """``columns(value)``, or, if one of its checks fails, ``value`` read
    item by item by ``read``, which names the first bad value."""
    try:
        return columns(value)
    except (_Irregular, _Invalid, OverflowError):
        return _items(read)(value)


def _standard_scatter(value) -> tuple[tuple[str, Matrix2], ...]:
    obj = _object(value)
    for name in obj:
        if name not in STANDARD_SPLITTERS:
            raise _Invalid("unknown splitter", name)
    return tuple((name, _at(obj, name, _matrix)) for name in STANDARD_SPLITTERS if name in obj)


def _network(value) -> NetworkSection:
    if isinstance(value, str):
        if value != "standard":
            raise _Invalid(f"unknown network shorthand {value!r}")
        return NetworkSection(kind="standard")
    obj = _object(value)
    kind = _at(obj, "kind", _string, None)
    if kind == "standard":
        _check_keys(obj, ("kind", "scatter", "blocks"))
        parts = {"scatter": _at(obj, "scatter", _standard_scatter, ())}
    elif kind == "custom":
        _check_keys(obj, ("kind", "nodes", "arms", "blocks"), ("nodes", "arms"))
        parts = {
            "nodes": _at(obj, "nodes", lambda v: _records(v, _node_columns, _node)),
            "arms": _at(obj, "arms", lambda v: _records(v, _arm_columns, _arm)),
        }
    else:
        raise _Invalid('expected "standard" or "custom"', "kind")
    return NetworkSection(kind=kind, blocks=_at(obj, "blocks", _string_list, ()), **parts)


def _plan_sites(value) -> tuple[SiteModulation, ...]:
    obj = _object(value)
    probes = {site: _at(obj, site, _probe) for site in sorted(obj)}
    return tuple(SiteModulation(site, p.delta, p.bin) for site, p in probes.items())


def _width(value) -> float:
    sigma = _number(value)
    if sigma <= 0.0:
        raise _Invalid("pointer width must be positive")
    return sigma


def _coupling(value, sigma: float) -> float:
    g = _number(value)
    if not math.isfinite(g / sigma):
        raise _Invalid("coupling / sigma must be finite")
    return g


def _samples(value) -> int:
    samples = _integer(value)
    if samples < 4 or samples > MAX_SAMPLES or samples & (samples - 1):
        raise _Invalid(f"{samples} is not a power of two in [4, {MAX_SAMPLES}]")
    return samples


def _noise(value) -> NoiseModel:
    obj = _object(value)
    _check_keys(obj, ("std", "seed"), ("std",))
    std = _at(obj, "std", _number)
    if std < 0.0:
        raise _Invalid("noise std must be non-negative", "std")
    seed = _at(obj, "seed", _integer, 0)
    if seed < 0:
        raise _Invalid("seed must be non-negative", "seed")
    return NoiseModel(std=std, seed=seed)


def _distinct_sites(verb: str):
    """A reader of a string array that names no site twice: a repeated
    weak-value site would be dropped from the report, and a repeated
    blocked site's CSV files would overwrite the first one's."""

    def read(value) -> tuple[str, ...]:
        sites = _string_list(value)
        seen = set()
        for i, site in enumerate(sites):
            if site in seen:
                raise _Invalid(f"site {site!r} {verb} twice", i)
            seen.add(site)
        return sites

    return read


_weak_sites = _distinct_sites("named")
_block_sites = _distinct_sites("blocked")


def _experiment(value, network: NetworkSection) -> Experiment:
    obj = _object(value)
    _check_keys(obj, None, ("kind",))
    kind = _at(obj, "kind", _string)
    if kind not in EXPERIMENT_KINDS:
        raise _Invalid(f"unknown experiment kind {kind!r}", "kind")
    detector = _at(obj, "detector", _string, None)
    _check_keys(obj, _EXPERIMENT_KEYS[kind], ("site",) if kind == "pointer" else ())

    if kind == "paths":
        return PathsExperiment(detector=detector)
    if kind == "weak_values":
        return WeakValuesExperiment(detector=detector, sites=_at(obj, "sites", _weak_sites, None))

    sigma = _at(obj, "sigma", _width, 1.0)
    if kind == "pointer":
        default_couplings = tuple(f * sigma for f in DEFAULT_POINTER_COUPLING_FRACTIONS)
        couplings = _at(obj, "couplings", _items(lambda g: _coupling(g, sigma)), default_couplings)
        return PointerExperiment(
            site=_at(obj, "site", _string), sigma=sigma, couplings=couplings, detector=detector
        )

    # spectral and blocking share samples and the plan
    samples = _at(obj, "samples", _samples, DEFAULT_SAMPLES)
    try:
        if "plan" in obj:
            plan = ModulationPlan(sites=_at(obj, "plan", _plan_sites), samples=samples)
        elif network.kind == "standard":
            plan = default_plan(samples=samples)
        else:  # the probes a custom network declares on its arms
            plan = plan_from_network(network, samples)
            if not plan.sites:
                raise ValueError("a custom network needs an explicit plan or arm modulations")
    except (UnknownLabelError, ValueError) as exc:
        if "plan" not in obj and network.kind == "custom":
            # a plan read from the arms can fail on a network fault, such as
            # one site label on two modulated arms: the network's is named first
            build_scenario_network(network)
        raise _Invalid(str(exc), "plan") from exc

    if kind == "spectral":
        noise = _at(obj, "noise", _noise, None)
        return SpectralExperiment(sigma=sigma, plan=plan, noise=noise, detector=detector)

    # the standard network's dark arms; on a custom network, the probed sites
    default_sites = (
        STANDARD_BLOCK_SITES if network.kind == "standard" else tuple(sm.site for sm in plan.sites)
    )
    block_sites = _at(obj, "block_sites", _block_sites, default_sites)
    if not block_sites:
        raise _Invalid("must name at least one site", "block_sites")
    return BlockingExperiment(sigma=sigma, plan=plan, block_sites=block_sites, detector=detector)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    with _schema_errors():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _Invalid(f"not valid JSON ({exc.msg} at line {exc.lineno})") from exc
        except (ValueError, RecursionError) as exc:
            # an integer past the interpreter's digit limit, or nesting past its recursion limit
            raise _Invalid(f"not valid JSON ({exc})") from exc
        obj = _object(doc)
        _check_keys(obj, ("network", "experiment"), ("network",))
        network = _at(obj, "network", _network)
        experiment = _at(obj, "experiment", lambda e: _experiment(e, network), None)
    return Scenario(network=network, experiment=experiment)


def default_experiment(scenario: Scenario, kind: str) -> Experiment:
    """The experiment a bare scenario implies for a given subcommand.

    It is the parse of a section that names only the kind, so every
    default has one owner, ``_experiment``.
    """
    with _schema_errors():
        if kind == "pointer":
            raise _Invalid(
                "a pointer experiment section is required (no default site)", "experiment"
            )
        bare = {"experiment": {"kind": kind}}
        return _at(bare, "experiment", lambda e: _experiment(e, scenario.network))


def build_scenario_network(section: NetworkSection) -> Network:
    """Assemble and validate the network a scenario describes, then block
    every site of its ``blocks`` with ``apply_block``, in one rebuild."""
    if section.kind == "standard":
        net = standard_nested_mzi(**{name.lower(): mat for name, mat in section.scatter})
    else:
        net = build_network(section.nodes, section.arms)
    return apply_block(net, *section.blocks) if section.blocks else net


def _complex_doc(z: complex):
    return {"re": z.real, "im": z.imag}


def _matrix_doc(mat: Matrix2):
    return [[_complex_doc(mat[i][j]) for j in range(2)] for i in range(2)]


# A record's shape holds one bit per optional key of its echo, the keys
# after the required ones in _NODE_KEYS and _ARM_KEYS, in that order: the
# bit is set when the echo writes the key.  A key is left out at the
# default that parsing fills in, so parsing an echo gives the record back.
# The plain documents and the text writer both take their shapes and their
# key order from here.


def _node_shapes(nodes) -> list[int]:
    """Bits: scatter, label."""
    return [(n.scatter is not None) | (n.label is not None) << 1 for n in nodes]


def _arm_shapes(arms) -> list[int]:
    """Bits: label, phase (left out at 0.0 and -0.0), transmission, modulation."""
    return [
        (a.label is not None)
        | (a.static_phase != 0.0) << 1
        | (a.transmission != 1.0) << 2
        | (a.modulation is not None) << 3
        for a in arms
    ]


def _shape_keys(keys: tuple[str, ...], required: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The keys an echo writes, for each shape."""
    optional = keys[len(required) :]
    return tuple(
        required + tuple(k for i, k in enumerate(optional) if shape >> i & 1)
        for shape in range(1 << len(optional))
    )


_NODE_SHAPE_KEYS = _shape_keys(_NODE_KEYS, _NODE_REQUIRED)
_ARM_SHAPE_KEYS = _shape_keys(_ARM_KEYS, _ARM_REQUIRED)

# each key's value in a plain document
_NODE_FIELDS = {
    "id": attrgetter("id"),
    "kind": attrgetter("kind"),
    "scatter": lambda n: _matrix_doc(n.scatter),
    "label": attrgetter("label"),
}
_ARM_FIELDS = {
    "id": attrgetter("id"),
    "from": lambda a: [a.from_node, a.from_port],
    "to": lambda a: [a.to_node, a.to_port],
    "label": attrgetter("label"),
    "phase": attrgetter("static_phase"),
    "transmission": attrgetter("transmission"),
    "modulation": lambda a: {"delta": a.modulation.delta, "bin": a.modulation.bin},
}


@functools.lru_cache(maxsize=64)  # one entry per record kind and indent
def _echo_templates(shape_keys: tuple, indent: int) -> list[str]:
    """The text writer's template for each shape of ``shape_keys``
    (``_NODE_SHAPE_KEYS`` or ``_ARM_SHAPE_KEYS``), for a record in an array
    at ``indent``: the record at ``indent + 1``, its values one deeper."""
    slots = {
        "id": "%s",
        "kind": "%s",
        "label": "%s",
        "scatter": _lines(
            "[", [_lines("[", [_complex_template(indent + 4)] * 2, "]", indent + 3)] * 2, "]", indent + 2
        ),
        "from": "[%s, %d]",
        "to": "[%s, %d]",
        "phase": FLOAT_FORMAT,
        "transmission": FLOAT_FORMAT,
        "modulation": _record_template(("delta", "bin"), (FLOAT_FORMAT, "%d"), indent + 2),
    }
    return [_record_template(keys, [slots[k] for k in keys], indent + 1) for keys in shape_keys]


def _record_docs(section: NetworkSection) -> tuple[list[dict], list[dict]]:
    """A custom network's nodes and arms as plain dicts."""
    return (
        [
            {key: _NODE_FIELDS[key](n) for key in _NODE_SHAPE_KEYS[shape]}
            for n, shape in zip(section.nodes, _node_shapes(section.nodes))
        ],
        [
            {key: _ARM_FIELDS[key](a) for key in _ARM_SHAPE_KEYS[shape]}
            for a, shape in zip(section.arms, _arm_shapes(section.arms))
        ],
    )


def _array_text(shape_keys: tuple, shapes: list[int], args: list, indent: int) -> str:
    """An array at ``indent``: one template per record, by its shape, filled
    by one ``%`` call."""
    if not shapes:
        return "[]"
    templates = _echo_templates(shape_keys, indent)
    return _lines("[", map(templates.__getitem__, shapes), "]", indent) % tuple(args)


def _record_texts(section: NetworkSection) -> tuple:
    """A custom network's nodes and arms as ``Rendered`` text, written
    straight from the records: the bytes ``render_json`` makes of
    ``_record_docs``.  Strings go through the JSON encoder as ``%``
    arguments, never into a template.  When a float is not finite (never
    on parsed records), the plain dicts are returned instead, and
    ``render_json`` names the first bad value in document order."""
    nodes, arms = section.nodes, section.arms
    node_shapes, arm_shapes = _node_shapes(nodes), _arm_shapes(arms)
    node_args, arm_args, floats = [], [], []
    for n, shape in zip(nodes, node_shapes):
        node_args += (_encode_str(n.id), _encode_str(n.kind))
        if shape & 1:
            (a, b), (c, d) = n.scatter
            entries = (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
            node_args += entries
            floats += entries
        if shape & 2:
            node_args.append(_encode_str(n.label))
    for a, shape in zip(arms, arm_shapes):
        arm_args += (
            _encode_str(a.id),
            _encode_str(a.from_node),
            a.from_port,
            _encode_str(a.to_node),
            a.to_port,
        )
        if shape:
            if shape & 1:
                arm_args.append(_encode_str(a.label))
            if shape & 2:
                arm_args.append(a.static_phase)
                floats.append(a.static_phase)
            if shape & 4:
                arm_args.append(a.transmission)
                floats.append(a.transmission)
            if shape & 8:
                arm_args += (a.modulation.delta, a.modulation.bin)
                floats.append(a.modulation.delta)
    if not all(map(math.isfinite, floats)):
        return _record_docs(section)
    return (
        Rendered(functools.partial(_array_text, _NODE_SHAPE_KEYS, node_shapes, node_args)),
        Rendered(functools.partial(_array_text, _ARM_SHAPE_KEYS, arm_shapes, arm_args)),
    )


def _network_doc(section: NetworkSection, records) -> dict:
    doc: dict = {"kind": section.kind}
    if section.kind == "standard":
        if section.scatter:
            doc["scatter"] = {name: _matrix_doc(m) for name, m in section.scatter}
    else:
        doc["nodes"], doc["arms"] = records(section)
    if section.blocks:
        doc["blocks"] = list(section.blocks)
    return doc


def _experiment_doc(exp: Experiment) -> dict:
    kind = next(k for k, cls in EXPERIMENT_KINDS.items() if type(exp) is cls)
    doc: dict = {"kind": kind}
    if kind == "weak_values" and exp.sites is not None:
        doc["sites"] = list(exp.sites)
    elif kind == "pointer":
        doc.update(site=exp.site, sigma=exp.sigma, couplings=list(exp.couplings))
    elif kind in ("spectral", "blocking"):
        doc.update(
            sigma=exp.sigma,
            samples=exp.plan.samples,
            plan={sm.site: {"delta": sm.delta, "bin": sm.bin} for sm in exp.plan.sites},
        )
        if kind == "blocking":
            doc["block_sites"] = list(exp.block_sites)
        elif exp.noise is not None:
            doc["noise"] = {"std": exp.noise.std, "seed": exp.noise.seed}
    if exp.detector is not None:
        doc["detector"] = exp.detector
    return doc


def _scenario_doc(scenario: Scenario, records) -> dict:
    doc: dict = {"network": _network_doc(scenario.network, records)}
    if scenario.experiment is not None:
        doc["experiment"] = _experiment_doc(scenario.experiment)
    return doc


def scenario_doc(scenario: Scenario) -> dict:
    """Render a Scenario back to a plain JSON-ready document."""
    return _scenario_doc(scenario, _record_docs)


def scenario_echo(scenario: Scenario) -> dict:
    """The scenario section of a report: ``scenario_doc``, except that a
    custom network's nodes and arms are ``reports.Rendered`` text written
    from the records, with one ``%`` template per record shape.
    ``render_json`` gives the same bytes for it as for ``scenario_doc``,
    for records as ``parse_scenario`` builds them (exact ``str``, ``int``
    and ``float`` fields)."""
    return _scenario_doc(scenario, _record_texts)
