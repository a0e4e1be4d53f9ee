"""Scenario documents: the JSON input format of the command line tool.

A scenario names a network (the standard nested layout, possibly with
scatter overrides and blocked sites, or a fully custom node/arm list) and
optionally one experiment section.  Parsing is strict: unknown keys,
wrong types, and out-of-range values raise SchemaError with the JSON
path of the offending entry.  Semantic problems that need the assembled
graph (non-unitary scatter, cycles, unknown site labels) are deferred to
network construction.

``parse_scenario`` fills every default, and ``scenario_doc`` renders a
Scenario back to a plain document, so parse(render(s)) == s.
"""

from __future__ import annotations

import json
import math
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


@dataclass(frozen=True)
class Scenario:
    network: NetworkSection
    experiment: Experiment | None = None


def _check_keys(obj: dict, path: str, allowed: set[str], required: set[str] = frozenset()):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key {key!r}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(path, "number must be finite")
    return out


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _complex(value, path: str) -> complex:
    """A JSON number, or an object {"re": x, "im": y}."""
    if isinstance(value, dict):
        _check_keys(value, path, {"re", "im"}, {"re", "im"})
        return complex(_number(value["re"], f"{path}.re"), _number(value["im"], f"{path}.im"))
    return complex(_number(value, path))


def _matrix(value, path: str) -> Matrix2:
    rows = _array(value, path)
    if len(rows) != 2:
        raise SchemaError(path, f"expected 2 rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        cells = _array(row, f"{path}[{i}]")
        if len(cells) != 2:
            raise SchemaError(f"{path}[{i}]", f"expected 2 entries, got {len(cells)}")
        out.append(tuple(_complex(c, f"{path}[{i}][{j}]") for j, c in enumerate(cells)))
    return (out[0], out[1])


def _string_list(value, path: str) -> tuple[str, ...]:
    return tuple(_string(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path)))


def _parse_node(value, path: str) -> Node:
    obj = _object(value, path)
    _check_keys(obj, path, {"id", "kind", "scatter", "label"}, {"id", "kind"})
    kind = _string(obj["kind"], f"{path}.kind")
    if kind not in NODE_KINDS:
        raise SchemaError(f"{path}.kind", f"unknown node kind {kind!r}")
    scatter = None
    if "scatter" in obj:
        scatter = _matrix(obj["scatter"], f"{path}.scatter")
    label = _string(obj["label"], f"{path}.label") if "label" in obj else None
    return Node(id=_string(obj["id"], f"{path}.id"), kind=kind, scatter=scatter, label=label)


def _parse_endpoint(value, path: str) -> tuple[str, int]:
    pair = _array(value, path)
    if len(pair) != 2:
        raise SchemaError(path, "expected [node_id, port]")
    return _string(pair[0], f"{path}[0]"), _integer(pair[1], f"{path}[1]")


def _parse_arm(value, path: str) -> Arm:
    obj = _object(value, path)
    _check_keys(
        obj,
        path,
        {"id", "from", "to", "label", "phase", "transmission", "modulation"},
        {"id", "from", "to"},
    )
    from_node, from_port = _parse_endpoint(obj["from"], f"{path}.from")
    to_node, to_port = _parse_endpoint(obj["to"], f"{path}.to")
    modulation = None
    if "modulation" in obj:
        mod = _object(obj["modulation"], f"{path}.modulation")
        _check_keys(mod, f"{path}.modulation", {"delta", "bin"}, {"delta", "bin"})
        modulation = Modulation(
            delta=_number(mod["delta"], f"{path}.modulation.delta"),
            bin=_integer(mod["bin"], f"{path}.modulation.bin"),
        )
    return Arm(
        id=_string(obj["id"], f"{path}.id"),
        from_node=from_node,
        from_port=from_port,
        to_node=to_node,
        to_port=to_port,
        label=_string(obj["label"], f"{path}.label") if "label" in obj else None,
        static_phase=_number(obj["phase"], f"{path}.phase") if "phase" in obj else 0.0,
        transmission=(
            _number(obj["transmission"], f"{path}.transmission")
            if "transmission" in obj
            else 1.0
        ),
        modulation=modulation,
    )


def _parse_network(value, path: str) -> NetworkSection:
    if isinstance(value, str):
        if value != "standard":
            raise SchemaError(path, f"unknown network shorthand {value!r}")
        return NetworkSection(kind="standard")
    obj = _object(value, path)
    kind = _string(obj.get("kind"), f"{path}.kind") if "kind" in obj else None
    if kind == "standard":
        _check_keys(obj, path, {"kind", "scatter", "blocks"})
        scatter = []
        if "scatter" in obj:
            sc = _object(obj["scatter"], f"{path}.scatter")
            for name in sc:
                if name not in STANDARD_SPLITTERS:
                    raise SchemaError(f"{path}.scatter.{name}", "unknown splitter")
            for name in STANDARD_SPLITTERS:
                if name in sc:
                    scatter.append((name, _matrix(sc[name], f"{path}.scatter.{name}")))
        blocks = _string_list(obj["blocks"], f"{path}.blocks") if "blocks" in obj else ()
        return NetworkSection(kind="standard", scatter=tuple(scatter), blocks=blocks)
    if kind == "custom":
        _check_keys(obj, path, {"kind", "nodes", "arms", "blocks"}, {"nodes", "arms"})
        nodes = tuple(
            _parse_node(v, f"{path}.nodes[{i}]")
            for i, v in enumerate(_array(obj["nodes"], f"{path}.nodes"))
        )
        arms = tuple(
            _parse_arm(v, f"{path}.arms[{i}]")
            for i, v in enumerate(_array(obj["arms"], f"{path}.arms"))
        )
        blocks = _string_list(obj["blocks"], f"{path}.blocks") if "blocks" in obj else ()
        return NetworkSection(kind="custom", nodes=nodes, arms=arms, blocks=blocks)
    raise SchemaError(f"{path}.kind", "expected \"standard\" or \"custom\"")


def _parse_plan(obj, path: str, samples: int) -> ModulationPlan:
    plan_obj = _object(obj, path)
    site_mods = []
    for site in sorted(plan_obj):
        entry = _object(plan_obj[site], f"{path}.{site}")
        _check_keys(entry, f"{path}.{site}", {"delta", "bin"}, {"delta", "bin"})
        site_mods.append(
            SiteModulation(
                site=site,
                delta=_number(entry["delta"], f"{path}.{site}.delta"),
                bin=_integer(entry["bin"], f"{path}.{site}.bin"),
            )
        )
    try:
        return ModulationPlan(sites=tuple(site_mods), samples=samples)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _default_spectral_plan(network: NetworkSection, samples: int, path: str) -> ModulationPlan:
    """The plan to use when the experiment section does not give one.

    The standard network gets the standard five-site plan; a custom
    network must declare probes on its arms (collected here) or spell the
    plan out in the experiment section.
    """
    if network.kind == "standard":
        return default_plan(samples=samples)
    try:
        plan = plan_from_network(network, samples)
    except (UnknownLabelError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc
    if not plan.sites:
        raise SchemaError(
            path,
            "a custom network needs an explicit plan or arm modulations",
        )
    return plan


def _parse_noise(value, path: str) -> NoiseModel:
    obj = _object(value, path)
    _check_keys(obj, path, {"std", "seed"}, {"std"})
    std = _number(obj["std"], f"{path}.std")
    if std < 0.0:
        raise SchemaError(f"{path}.std", "noise std must be non-negative")
    seed = _integer(obj["seed"], f"{path}.seed") if "seed" in obj else 0
    if seed < 0:
        raise SchemaError(f"{path}.seed", "seed must be non-negative")
    return NoiseModel(std=std, seed=seed)


def _parse_experiment(value, path: str, network: NetworkSection) -> Experiment:
    obj = _object(value, path)
    if "kind" not in obj:
        raise SchemaError(path, "missing required key 'kind'")
    kind = _string(obj["kind"], f"{path}.kind")
    if kind not in EXPERIMENT_KINDS:
        raise SchemaError(f"{path}.kind", f"unknown experiment kind {kind!r}")
    detector = _string(obj["detector"], f"{path}.detector") if "detector" in obj else None

    if kind == "paths":
        _check_keys(obj, path, {"kind", "detector"})
        return PathsExperiment(detector=detector)

    if kind == "weak_values":
        _check_keys(obj, path, {"kind", "detector", "sites"})
        sites = _string_list(obj["sites"], f"{path}.sites") if "sites" in obj else None
        return WeakValuesExperiment(detector=detector, sites=sites)

    if kind == "pointer":
        _check_keys(obj, path, {"kind", "detector", "site", "sigma", "couplings"})
        if "site" not in obj:
            raise SchemaError(path, "missing required key 'site'")
        sigma = _number(obj["sigma"], f"{path}.sigma") if "sigma" in obj else 1.0
        if sigma <= 0.0:
            raise SchemaError(f"{path}.sigma", "pointer width must be positive")
        if "couplings" in obj:
            couplings = tuple(
                _number(v, f"{path}.couplings[{i}]")
                for i, v in enumerate(_array(obj["couplings"], f"{path}.couplings"))
            )
        else:
            couplings = tuple(f * sigma for f in DEFAULT_POINTER_COUPLING_FRACTIONS)
        return PointerExperiment(
            site=_string(obj["site"], f"{path}.site"),
            sigma=sigma,
            couplings=couplings,
            detector=detector,
        )

    # spectral and blocking share sigma, samples and the plan
    common = {"kind", "detector", "sigma", "samples", "plan"}
    allowed = common | ({"noise"} if kind == "spectral" else {"block_sites"})
    _check_keys(obj, path, allowed)
    sigma = _number(obj["sigma"], f"{path}.sigma") if "sigma" in obj else 1.0
    if sigma <= 0.0:
        raise SchemaError(f"{path}.sigma", "pointer width must be positive")
    samples = _integer(obj["samples"], f"{path}.samples") if "samples" in obj else DEFAULT_SAMPLES
    if samples < 4 or samples > MAX_SAMPLES or samples & (samples - 1):
        raise SchemaError(
            f"{path}.samples", f"{samples} is not a power of two in [4, {MAX_SAMPLES}]"
        )
    if "plan" in obj:
        plan = _parse_plan(obj["plan"], f"{path}.plan", samples)
    else:
        plan = _default_spectral_plan(network, samples, f"{path}.plan")

    if kind == "spectral":
        noise = _parse_noise(obj["noise"], f"{path}.noise") if "noise" in obj else None
        return SpectralExperiment(sigma=sigma, plan=plan, noise=noise, detector=detector)

    # the standard network's dark arms; on a custom network, the probed sites
    if "block_sites" in obj:
        block_sites = _string_list(obj["block_sites"], f"{path}.block_sites")
    elif network.kind == "standard":
        block_sites = STANDARD_BLOCK_SITES
    else:
        block_sites = tuple(sm.site for sm in plan.sites)
    if not block_sites:
        raise SchemaError(f"{path}.block_sites", "must name at least one site")
    return BlockingExperiment(
        sigma=sigma, plan=plan, block_sites=block_sites, detector=detector
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON ({exc.msg} at line {exc.lineno})") from exc
    obj = _object(doc, "$")
    _check_keys(obj, "$", {"network", "experiment"}, {"network"})
    network = _parse_network(obj["network"], "$.network")
    experiment = None
    if "experiment" in obj:
        experiment = _parse_experiment(obj["experiment"], "$.experiment", network)
    return Scenario(network=network, experiment=experiment)


def default_experiment(scenario: Scenario, kind: str) -> Experiment:
    """The experiment a bare scenario implies for a given subcommand.

    It is the parse of a section that names only the kind, so every
    default has one owner, ``_parse_experiment``.
    """
    if kind == "pointer":
        raise SchemaError(
            "$.experiment", "a pointer experiment section is required (no default site)"
        )
    return _parse_experiment({"kind": kind}, "$.experiment", scenario.network)


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
