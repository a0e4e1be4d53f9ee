"""What a scenario file asks for, read by the benchmark's own rules.

This follows the scenario format described in the project README (the
"standard" shorthand, custom node/arm lists, per-subcommand experiment
defaults) so that the expected results of a CLI call are worked out
without the program's parser.
"""

from __future__ import annotations

import inputs
import oracle
from checks import DEFAULT_BLOCK_SITES, DEFAULT_SAMPLES, STANDARD_PLAN

DEFAULT_POINTER_FRACTIONS = (0.125, 0.0625, 0.03125)


def network_doc(section) -> dict:
    if section == "standard" or section.get("kind") == "standard":
        doc = inputs.standard_network_doc()
        if isinstance(section, dict):
            for node in doc["nodes"]:
                if node["id"] in section.get("scatter", {}):
                    node["scatter"] = section["scatter"][node["id"]]
            if section.get("blocks"):
                doc["blocks"] = list(section["blocks"])
        return doc
    return section


def graph_of(network: dict, blocked=None) -> oracle.Graph:
    return oracle.Graph(network, () if blocked is None else (blocked,))


def resolve(scn: dict, command: str) -> dict:
    network = network_doc(scn["network"])
    exp = scn.get("experiment", {})
    detectors = [n["id"] for n in network["nodes"] if n["kind"] == "detector"]
    out = {
        "network": network,
        "graph": graph_of(network),
        "detector": exp.get("detector", detectors[0]),
    }
    if command == "pointer":
        sigma = exp.get("sigma", 1.0)
        couplings = exp.get("couplings", [f * sigma for f in DEFAULT_POINTER_FRACTIONS])
        out.update(site=exp["site"], sigma=sigma, couplings=couplings)
    if command in ("spectrum", "block"):
        if "plan" in exp:
            plan = sorted((s, e["delta"], e["bin"]) for s, e in exp["plan"].items())
        elif scn["network"] == "standard" or scn["network"].get("kind") == "standard":
            plan = list(STANDARD_PLAN)
        else:
            plan = sorted(
                (a["label"], a["modulation"]["delta"], a["modulation"]["bin"])
                for a in network["arms"]
                if "modulation" in a
            )
        out.update(
            sigma=exp.get("sigma", 1.0),
            samples=exp.get("samples", DEFAULT_SAMPLES),
            plan=plan,
            noise=exp.get("noise") if command == "spectrum" else None,
            block_sites=tuple(exp.get("block_sites", DEFAULT_BLOCK_SITES)),
        )
    return out
