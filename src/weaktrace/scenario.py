"""Scenario documents: the JSON input format of the command line tool.

A scenario names a network (the standard nested layout, possibly with
scatter overrides and blocked sites, or a fully custom node/arm list) and
optionally one experiment section.  Parsing is strict: unknown keys,
wrong types, and out-of-range values raise SchemaError naming the JSON
path of the first bad value, such as ``$.network.arms[3].from[0]``; of
several missing required keys, the first in a fixed order is named.  Each
reader takes only the value it reads, and the path is spelled only when a
check fails.  Semantic problems that need the assembled graph
(non-unitary scatter, cycles, unknown site labels) are deferred to
network construction.

``parse_scenario`` fills every default, and ``scenario_doc`` renders a
Scenario back to a plain document, so parse(render(s)) == s.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

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
    return Modulation(delta=_at(obj, "delta", _number), bin=_at(obj, "bin", _integer))


def _node(value) -> Node:
    obj = _object(value)
    _check_keys(obj, ("id", "kind", "scatter", "label"), ("id", "kind"))
    kind = _at(obj, "kind", _string)
    if kind not in NODE_KINDS:
        raise _Invalid(f"unknown node kind {kind!r}", "kind")
    scatter = _at(obj, "scatter", _matrix, None)
    label = _at(obj, "label", _string, None)
    return Node(id=_at(obj, "id", _string), kind=kind, scatter=scatter, label=label)


def _arm(value) -> Arm:
    obj = _object(value)
    allowed = ("id", "from", "to", "label", "phase", "transmission", "modulation")
    _check_keys(obj, allowed, ("id", "from", "to"))
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
        parts = {"nodes": _at(obj, "nodes", _items(_node)), "arms": _at(obj, "arms", _items(_arm))}
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
                raise _Invalid("a custom network needs an explicit plan or arm modulations", "plan")
    except (UnknownLabelError, ValueError) as exc:
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
    """Assemble and validate the network a scenario describes."""
    if section.kind == "standard":
        overrides = {name.lower(): mat for name, mat in section.scatter}
        net = standard_nested_mzi(**overrides)
    else:
        net = build_network(section.nodes, section.arms)
    for site in section.blocks:
        net = apply_block(net, site)
    return net


def _complex_doc(z: complex):
    return {"re": z.real, "im": z.imag}


def _matrix_doc(mat: Matrix2):
    return [[_complex_doc(mat[i][j]) for j in range(2)] for i in range(2)]


def _network_doc(section: NetworkSection) -> dict:
    doc: dict = {"kind": section.kind}
    if section.kind == "standard":
        if section.scatter:
            doc["scatter"] = {name: _matrix_doc(m) for name, m in section.scatter}
    else:
        doc["nodes"] = []
        for n in section.nodes:
            nd: dict = {"id": n.id, "kind": n.kind}
            if n.scatter is not None:
                nd["scatter"] = _matrix_doc(n.scatter)
            if n.label is not None:
                nd["label"] = n.label
            doc["nodes"].append(nd)
        doc["arms"] = []
        for a in section.arms:
            ad: dict = {
                "id": a.id,
                "from": [a.from_node, a.from_port],
                "to": [a.to_node, a.to_port],
            }
            if a.label is not None:
                ad["label"] = a.label
            if a.static_phase != 0.0:
                ad["phase"] = a.static_phase
            if a.transmission != 1.0:
                ad["transmission"] = a.transmission
            if a.modulation is not None:
                ad["modulation"] = {"delta": a.modulation.delta, "bin": a.modulation.bin}
            doc["arms"].append(ad)
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


def scenario_doc(scenario: Scenario) -> dict:
    """Render a Scenario back to a plain JSON-ready document."""
    doc: dict = {"network": _network_doc(scenario.network)}
    if scenario.experiment is not None:
        doc["experiment"] = _experiment_doc(scenario.experiment)
    return doc
