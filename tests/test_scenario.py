import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_calls
from test_scenario_fuzz import DELETE, MUTATIONS, locations
from weaktrace import ModulationPlan, NoiseModel, SiteModulation, scenario
from weaktrace.errors import (
    NetworkError,
    NonUnitaryScatterError,
    SchemaError,
    UnknownLabelError,
)
from weaktrace.netgraph import NODE_KINDS, apply_block, build_network
from weaktrace.reports import render_json
from weaktrace.scenario import (
    BlockingExperiment,
    NetworkSection,
    PathsExperiment,
    PointerExperiment,
    Scenario,
    SpectralExperiment,
    WeakValuesExperiment,
    build_scenario_network,
    default_experiment,
    parse_scenario,
    scenario_doc,
)

CUSTOM_DARK_PORT = {
    "network": {
        "kind": "custom",
        "nodes": [
            {"id": "SRC", "kind": "source"},
            {"id": "BS1", "kind": "beam_splitter",
             "scatter": [[0.7071067811865476, 0.7071067811865476],
                         [0.7071067811865476, -0.7071067811865476]]},
            {"id": "BS2", "kind": "beam_splitter",
             "scatter": [[0.7071067811865476, 0.7071067811865476],
                         [0.7071067811865476, -0.7071067811865476]]},
            {"id": "MX", "kind": "mirror", "label": "X"},
            {"id": "D", "kind": "detector", "label": "D"},
            {"id": "K", "kind": "sink"},
        ],
        "arms": [
            {"id": "in", "from": ["SRC", 0], "to": ["BS1", 0]},
            {"id": "X", "from": ["BS1", 0], "to": ["MX", 0], "label": "X",
             "modulation": {"delta": 0.01, "bin": 9}},
            {"id": "X_out", "from": ["MX", 0], "to": ["BS2", 0]},
            {"id": "ref", "from": ["BS1", 1], "to": ["BS2", 1]},
            {"id": "bright", "from": ["BS2", 0], "to": ["D", 0]},
            {"id": "dark", "from": ["BS2", 1], "to": ["K", 0]},
        ],
    }
}


def with_value(loc, value):
    """CUSTOM_DARK_PORT with the value at key path ``loc`` set to ``value``."""
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    parent = doc
    for key in loc[:-1]:
        parent = parent[key]
    parent[loc[-1]] = value
    return doc


def test_shorthand_standard():
    sc = parse_scenario('{"network": "standard"}')
    assert sc == Scenario(network=NetworkSection(kind="standard"))
    net = build_scenario_network(sc.network)
    assert len(net.nodes) == 13


def test_not_json():
    with pytest.raises(SchemaError) as err:
        parse_scenario("{network:")
    assert err.value.path == "$"


def test_unknown_top_level_key():
    with pytest.raises(SchemaError) as err:
        parse_scenario('{"network": "standard", "extra": 1}')
    assert err.value.path == "$.extra"


def test_scatter_override_roundtrip():
    text = json.dumps(
        {
            "network": {
                "kind": "standard",
                "scatter": {"BS2": [[0, 1], [1, 0]]},
                "blocks": ["A"],
            }
        }
    )
    sc = parse_scenario(text)
    assert sc.network.scatter == (("BS2", ((0j, 1 + 0j), (1 + 0j, 0j))),)
    assert sc.network.blocks == ("A",)
    net = build_scenario_network(sc.network)
    assert net.node_map()["BS2"].scatter == ((0j, 1 + 0j), (1 + 0j, 0j))
    assert net.labeled_arm("A").transmission == 0.0
    assert parse_scenario(json.dumps(scenario_doc(sc))) == sc


def test_complex_entries_as_objects():
    sc = parse_scenario(
        json.dumps(
            {
                "network": {
                    "kind": "standard",
                    "scatter": {
                        "BS3": [
                            [{"re": 0, "im": 1}, 0],
                            [0, {"re": 0, "im": -1}],
                        ]
                    },
                }
            }
        )
    )
    (name, mat) = sc.network.scatter[0]
    assert name == "BS3"
    assert mat[0][0] == 1j


def test_bad_matrix_shape():
    with pytest.raises(SchemaError) as err:
        parse_scenario(
            '{"network": {"kind": "standard", "scatter": {"BS1": [[1, 0, 0], [0, 1, 0]]}}}'
        )
    assert "scatter.BS1" in err.value.path


def test_unknown_splitter_name():
    with pytest.raises(SchemaError) as err:
        parse_scenario('{"network": {"kind": "standard", "scatter": {"BS9": [[1,0],[0,1]]}}}')
    assert err.value.path == "$.network.scatter.BS9"


def test_non_unitary_override_fails_at_build_not_parse():
    sc = parse_scenario(
        '{"network": {"kind": "standard", "scatter": {"BS2": [[1, 0], [0.5, 1]]}}}'
    )
    with pytest.raises(NonUnitaryScatterError):
        build_scenario_network(sc.network)


def test_custom_network_parses_and_builds():
    sc = parse_scenario(json.dumps(CUSTOM_DARK_PORT))
    net = build_scenario_network(sc.network)
    assert net.detectors == ("D",)
    assert net.site_labels() == frozenset({"X"})
    assert parse_scenario(json.dumps(scenario_doc(sc))) == sc


def test_custom_network_semantic_error_deferred():
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    doc["network"]["arms"][0]["from"] = ["NOPE", 0]
    sc = parse_scenario(json.dumps(doc))  # parse is fine
    from weaktrace.errors import PortConflictError

    with pytest.raises(PortConflictError):
        build_scenario_network(sc.network)


def test_unknown_block_site_fails_at_build():
    sc = parse_scenario('{"network": {"kind": "standard", "blocks": ["Z"]}}')
    with pytest.raises(UnknownLabelError):
        build_scenario_network(sc.network)


def test_experiment_kind_required():
    with pytest.raises(SchemaError) as err:
        parse_scenario('{"network": "standard", "experiment": {}}')
    assert err.value.path == "$.experiment"


def test_unknown_experiment_kind():
    with pytest.raises(SchemaError):
        parse_scenario('{"network": "standard", "experiment": {"kind": "magic"}}')


def test_spectral_defaults():
    sc = parse_scenario('{"network": "standard", "experiment": {"kind": "spectral"}}')
    exp = sc.experiment
    assert isinstance(exp, SpectralExperiment)
    assert exp.sigma == 1.0
    assert exp.noise is None
    assert exp.plan.samples == 4096
    assert [(sm.site, sm.delta, sm.bin) for sm in exp.plan.sites] == [
        ("A", 0.01, 13),
        ("B", 0.01, 17),
        ("C", 0.01, 19),
        ("E", 0.01, 23),
        ("F", 0.01, 29),
    ]


def test_spectral_explicit_plan_and_noise():
    text = json.dumps(
        {
            "network": "standard",
            "experiment": {
                "kind": "spectral",
                "sigma": 2.0,
                "samples": 512,
                "plan": {"A": {"delta": 0.02, "bin": 5}, "C": {"delta": 0.01, "bin": 11}},
                "noise": {"std": 1e-4, "seed": 7},
            },
        }
    )
    sc = parse_scenario(text)
    assert sc.experiment == SpectralExperiment(
        sigma=2.0,
        plan=ModulationPlan(
            sites=(SiteModulation("A", 0.02, 5), SiteModulation("C", 0.01, 11)),
            samples=512,
        ),
        noise=NoiseModel(std=1e-4, seed=7),
    )
    assert parse_scenario(json.dumps(scenario_doc(sc))) == sc


def test_plan_bin_collision_is_schema_error():
    text = json.dumps(
        {
            "network": "standard",
            "experiment": {
                "kind": "spectral",
                "plan": {"A": {"delta": 0.01, "bin": 5}, "B": {"delta": 0.01, "bin": 5}},
            },
        }
    )
    with pytest.raises(SchemaError) as err:
        parse_scenario(text)
    assert err.value.path == "$.experiment.plan"


def test_samples_must_be_power_of_two():
    with pytest.raises(SchemaError) as err:
        parse_scenario(
            '{"network": "standard", "experiment": {"kind": "spectral", "samples": 1000}}'
        )
    assert err.value.path == "$.experiment.samples"


def test_custom_network_harvests_arm_modulations():
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    doc["experiment"] = {"kind": "spectral", "detector": "D"}
    sc = parse_scenario(json.dumps(doc))
    assert sc.experiment.plan == ModulationPlan(
        sites=(SiteModulation("X", 0.01, 9),), samples=4096
    )


def test_custom_network_without_probes_needs_plan():
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    del doc["network"]["arms"][1]["modulation"]
    doc["experiment"] = {"kind": "spectral"}
    with pytest.raises(SchemaError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.experiment.plan"


def test_pointer_defaults_scale_with_sigma():
    sc = parse_scenario(
        '{"network": "standard", "experiment": {"kind": "pointer", "site": "A", "sigma": 2.0}}'
    )
    assert sc.experiment == PointerExperiment(
        site="A", sigma=2.0, couplings=(0.25, 0.125, 0.0625)
    )
    assert parse_scenario(json.dumps(scenario_doc(sc))) == sc


def test_pointer_site_required():
    with pytest.raises(SchemaError):
        parse_scenario('{"network": "standard", "experiment": {"kind": "pointer"}}')


def test_blocking_defaults():
    sc = parse_scenario('{"network": "standard", "experiment": {"kind": "blocking"}}')
    exp = sc.experiment
    assert isinstance(exp, BlockingExperiment)
    assert exp.block_sites == ("E", "F")
    assert parse_scenario(json.dumps(scenario_doc(sc))) == sc


def test_custom_blocking_defaults_to_plan_sites():
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    doc["experiment"] = {"kind": "blocking"}
    sc = parse_scenario(json.dumps(doc))
    assert sc.experiment.block_sites == ("X",)
    bare = parse_scenario(json.dumps(CUSTOM_DARK_PORT))
    assert default_experiment(bare, "blocking").block_sites == ("X",)


def test_unlabeled_modulated_arm_is_schema_error():
    doc = json.loads(json.dumps(CUSTOM_DARK_PORT))
    del doc["network"]["arms"][1]["label"]
    doc["experiment"] = {"kind": "spectral"}
    with pytest.raises(SchemaError, match="modulated arm 'X' has no site label") as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.experiment.plan"


def test_blocking_rejects_noise_key():
    with pytest.raises(SchemaError) as err:
        parse_scenario(
            '{"network": "standard", "experiment": {"kind": "blocking", "noise": {"std": 1}}}'
        )
    assert err.value.path == "$.experiment.noise"


def test_weak_values_sites_subset():
    sc = parse_scenario(
        '{"network": "standard", "experiment": {"kind": "weak_values", "sites": ["A", "E"]}}'
    )
    assert sc.experiment == WeakValuesExperiment(sites=("A", "E"))


def test_default_experiments():
    sc = parse_scenario('{"network": "standard"}')
    assert default_experiment(sc, "paths") == PathsExperiment()
    assert default_experiment(sc, "weak_values") == WeakValuesExperiment()
    spectral = default_experiment(sc, "spectral")
    assert isinstance(spectral, SpectralExperiment)
    assert len(spectral.plan.sites) == 5
    with pytest.raises(SchemaError):
        default_experiment(sc, "pointer")


def test_wrong_types_report_their_path():
    cases = [
        ('{"network": 7}', "$.network"),
        ('{"network": {"kind": "standard", "blocks": "A"}}', "$.network.blocks"),
        (
            '{"network": "standard", "experiment": {"kind": "spectral", "sigma": "big"}}',
            "$.experiment.sigma",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "spectral", '
            '"noise": {"std": 1e-4, "seed": 1.5}}}',
            "$.experiment.noise.seed",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "pointer", "site": "A", '
            '"couplings": [0.1, "x"]}}',
            "$.experiment.couplings[1]",
        ),
        (
            json.dumps(with_value(("network", "nodes", 1, "scatter", 1, 0), {"re": 0, "im": "x"})),
            "$.network.nodes[1].scatter[1][0].im",
        ),
        (json.dumps(with_value(("network", "arms", 2, "from", 0), 3)), "$.network.arms[2].from[0]"),
        (json.dumps(with_value(("network", "arms", 2, "to", 1), "0")), "$.network.arms[2].to[1]"),
        (
            json.dumps(with_value(("network", "arms", 1, "modulation", "bin"), 9.5)),
            "$.network.arms[1].modulation.bin",
        ),
        (
            json.dumps(with_value(("network", "arms", 0, "colour"), "red")),
            "$.network.arms[0].colour",
        ),
        (json.dumps(with_value(("network", "blocks"), [None])), "$.network.blocks[0]"),
        (
            '{"network": {"kind": "standard", "scatter": {"BS2": [[1, 0], [0]]}}}',
            "$.network.scatter.BS2[1]",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "weak_values", "sites": ["A", 1]}}',
            "$.experiment.sites[1]",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "blocking", "block_sites": [[]]}}',
            "$.experiment.block_sites[0]",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "spectral", '
            '"plan": {"A": {"delta": "x", "bin": 5}}}}',
            "$.experiment.plan.A.delta",
        ),
    ]
    for text, path in cases:
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert err.value.path == path, text


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"network": "nested"}', "$.network: unknown network shorthand 'nested'"),
        ('{"network": {"kind": "ring"}}', '$.network.kind: expected "standard" or "custom"'),
        (
            '{"network": "standard", "experiment": {"kind": "blocking", "block_sites": []}}',
            "$.experiment.block_sites: must name at least one site",
        ),
    ],
    ids=["shorthand", "kind", "block_sites"],
)
def test_unknown_network_forms_and_empty_block_sites_are_refused(text, message):
    with pytest.raises(SchemaError) as err:
        parse_scenario(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, path",
    [
        (
            json.dumps(with_value(("network", "arms", 1, "modulation", "delta"), -0.01)),
            "$.network.arms[1].modulation.delta",
        ),
        (
            '{"network": "standard", "experiment": {"kind": "spectral", '
            '"plan": {"A": {"delta": -0.01, "bin": 13}}}}',
            "$.experiment.plan.A.delta",
        ),
    ],
    ids=["arm", "plan"],
)
def test_negative_probe_depth_is_refused_at_its_path(text, path):
    with pytest.raises(SchemaError) as err:
        parse_scenario(text)
    assert str(err.value) == f"{path}: modulation depth must be non-negative"


def test_negative_noise_std_rejected():
    with pytest.raises(SchemaError):
        parse_scenario(
            '{"network": "standard", "experiment": {"kind": "spectral", "noise": {"std": -1}}}'
        )
    # and so is a negative seed
    with pytest.raises(SchemaError) as err:
        parse_scenario(
            '{"network": "standard", "experiment": {"kind": "spectral", '
            '"noise": {"std": 0, "seed": -1}}}'
        )
    assert str(err.value) == "$.experiment.noise.seed: seed must be non-negative"


@pytest.mark.parametrize("network", ['"standard"', json.dumps(CUSTOM_DARK_PORT["network"])])
@pytest.mark.parametrize("kind", ["paths", "weak_values", "spectral", "blocking"])
def test_default_experiment_is_parse_of_bare_kind(network, kind):
    bare = parse_scenario(f'{{"network": {network}}}')
    parsed = parse_scenario(f'{{"network": {network}, "experiment": {{"kind": "{kind}"}}}}')
    assert default_experiment(bare, kind) == parsed.experiment


def test_default_pointer_experiment_message():
    with pytest.raises(SchemaError) as err:
        default_experiment(parse_scenario('{"network": "standard"}'), "pointer")
    assert str(err.value) == (
        "$.experiment: a pointer experiment section is required (no default site)"
    )


@pytest.mark.parametrize(
    "experiment, keys",
    [
        ({"kind": "paths", "detector": "D"}, ["kind", "detector"]),
        ({"kind": "weak_values", "sites": ["E", "A"]}, ["kind", "sites"]),
        (
            {"kind": "pointer", "site": "B", "sigma": 2.0, "detector": "D"},
            ["kind", "site", "sigma", "couplings", "detector"],
        ),
        (
            {"kind": "spectral", "samples": 512, "noise": {"std": 1e-4, "seed": 7}},
            ["kind", "sigma", "samples", "plan", "noise"],
        ),
        (
            {"kind": "blocking", "sigma": 0.5, "block_sites": ["A"], "detector": "D"},
            ["kind", "sigma", "samples", "plan", "block_sites", "detector"],
        ),
    ],
)
def test_scenario_doc_round_trip_every_kind(experiment, keys):
    sc = parse_scenario(json.dumps({"network": "standard", "experiment": experiment}))
    doc = scenario_doc(sc)
    assert list(doc["experiment"]) == keys
    assert parse_scenario(json.dumps(doc)) == sc


CUSTOM_MZI = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "custom_mzi.json").read_text()
)


def blocked_custom_mzi(blocks, arm_changes=None) -> NetworkSection:
    """The network of custom_mzi.json with ``blocks``, some arms updated."""
    network = copy.deepcopy(CUSTOM_MZI["network"])
    for i, changes in (arm_changes or {}).items():
        network["arms"][i].update(changes)
    network["blocks"] = blocks
    return parse_scenario(json.dumps({"network": network})).network


@pytest.mark.parametrize(
    "section, blocked_ids",
    [
        (parse_scenario('{"network": {"kind": "standard", "blocks": ["A", "B"]}}').network, ["A", "B"]),
        (blocked_custom_mzi(["X", "Y"]), ["upper", "lower"]),
    ],
    ids=["standard", "custom"],
)
def test_blocks_are_applied_by_apply_block_in_one_rebuild(monkeypatch, section, blocked_ids):
    calls = build_calls(monkeypatch)
    net = build_scenario_network(section)
    # the section's network, then one rebuild for both blocked sites
    assert len(calls) == 2
    assert [a.id for a in net.arms if a.transmission == 0.0] == blocked_ids
    if section.kind == "custom":
        assert net == apply_block(build_network(section.nodes, section.arms), *section.blocks)


def _error(call):
    try:
        call()
    except NetworkError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "arm_changes, blocks",
    [
        ({}, ["Z"]),  # an unknown site
        ({}, ["X", "Z", "Q"]),  # the first unknown site is named
        ({0: {"to": ["NOPE", 0]}}, ["Z"]),  # a network error comes first
        ({1: {"transmission": 2.0}}, ["X"]),  # so does a blocked arm's own range
        ({3: {"label": "X"}}, ["X"]),  # and a site label on two arms
    ],
    ids=["unknown", "first-unknown", "network-first", "range-first", "duplicate-label"],
)
def test_custom_block_errors_match_build_then_block(arm_changes, blocks):
    section = blocked_custom_mzi(blocks, arm_changes)
    expected = _error(lambda: apply_block(build_network(section.nodes, section.arms), *blocks))
    assert expected is not None
    assert _error(lambda: build_scenario_network(section)) == expected


def _outcome(text):
    try:
        return parse_scenario(text)
    except SchemaError as err:
        return err.path, str(err)


def _irregular(items):
    raise scenario._Irregular


def read_both_ways(text):
    """``text`` parsed with the column readers, which must agree with the
    record readers alone: the same SchemaError path and message, or equal
    Scenarios of equal repr (so no int is left where a float belongs)."""
    by_columns = _outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_node_columns", _irregular)
        mp.setattr(scenario, "_arm_columns", _irregular)
        by_records = _outcome(text)
    # compared without pytest's diff, which takes minutes on a 1000-mirror chain
    agree = by_columns == by_records and repr(by_columns) == repr(by_records)
    assert agree, "the column and record readers disagree"
    return by_columns


@st.composite
def custom_networks(draw):
    """Custom network documents of 1 to 40 nodes and arms, valid to the
    parser (not necessarily to build_network)."""
    count = st.integers(1, 40)
    node_ids = [f"n{i}" for i in range(draw(count))]
    phase = st.one_of(st.integers(-3, 3), st.floats(-7.0, 7.0))
    nodes = []
    for i, node_id in enumerate(node_ids):
        node = {"id": node_id, "kind": draw(st.sampled_from(NODE_KINDS))}
        if draw(st.booleans()):
            node["scatter"] = [[0.6, {"re": 0.8, "im": 0}], [0.8, -0.6]]
        if draw(st.booleans()):
            node["label"] = f"N{i}"
        nodes.append(node)
    arms = []
    for i in range(draw(count)):
        arm = {
            "id": f"a{i}",
            "from": [draw(st.sampled_from(node_ids)), draw(st.integers(0, 1))],
            "to": [draw(st.sampled_from(node_ids)), draw(st.integers(0, 1))],
        }
        for key, value in (
            ("label", st.just(f"S{i}")),
            ("phase", phase),
            ("transmission", st.sampled_from([0, 1, 0.5])),
            ("modulation", st.builds(lambda b: {"delta": 0.01, "bin": b}, st.integers(1, 9))),
        ):
            if draw(st.booleans()):
                arm[key] = draw(value)
        arms.append(arm)
    return {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}


KEEP = object()
UNKNOWN_KEY = object()  # added to the record holding the location
VALUES = (*MUTATIONS, KEEP, UNKNOWN_KEY, 10**400, ["n0"], ["n0", 0, 0], 3, 0.25, "mirror")


@settings(max_examples=200, deadline=None)
@given(doc=custom_networks(), data=st.data())
def test_column_and_record_readers_agree(doc, data):
    sites = [loc for loc in locations(doc["network"]) if loc[0] in ("nodes", "arms")]
    loc = data.draw(st.sampled_from(sites))
    value = data.draw(st.sampled_from(VALUES))
    parent = doc["network"]
    for key in loc[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[loc[-1]]
    elif value is UNKNOWN_KEY:
        # a location may be a whole list; its first record takes the key
        doc["network"][loc[0]][loc[1] if len(loc) > 1 else 0]["colour"] = "red"
    elif value is not KEEP:
        parent[loc[-1]] = value
    read_both_ways(json.dumps(doc))


def _two_shapes(arm3, arm9):
    """A custom network with twelve arms, the 4th and 10th updated."""
    nodes = [{"id": "SRC", "kind": "source"}, {"id": "D", "kind": "detector", "label": "D"}]
    arms = [
        {"id": f"a{i}", "from": ["SRC", 0], "to": ["D", 0], "label": f"s{i}", "phase": 0.5}
        if i % 2
        else {"id": f"a{i}", "from": ["SRC", 0], "to": ["D", 0]}
        for i in range(12)
    ]
    arms[3].update(arm3)
    arms[9].update(arm9)
    return json.dumps({"network": {"kind": "custom", "nodes": nodes, "arms": arms}})


@pytest.mark.parametrize(
    "arm3, arm9, path, message",
    [
        ({"colour": "red"}, {"from": ["SRC", True]}, "$.network.arms[3].colour", "unknown key"),
        ({"colour": "red"}, {}, "$.network.arms[3].colour", "unknown key"),
        ({}, {"from": ["SRC", True]}, "$.network.arms[9].from[1]", "expected an integer, got bool"),
        ({"phase": 10**400}, {}, "$.network.arms[3].phase", "number must be finite"),
        ({"to": ["D"]}, {}, "$.network.arms[3].to", "expected [node_id, port]"),
        ({}, {"to": ["D", 0, 0]}, "$.network.arms[9].to", "expected [node_id, port]"),
        ({"label": None}, {}, "$.network.arms[3].label", "expected a string, got NoneType"),
        ({"transmission": float("nan")}, {}, "$.network.arms[3].transmission",
         "number must be finite"),
        ({"phase": 1e308}, {"phase": 1e308}, None, None),  # an infinite sum of finite phases
        ({"phase": 2}, {"phase": -1.5}, None, None),
    ],
)
def test_column_reader_errors_name_the_first_bad_value(arm3, arm9, path, message):
    outcome = read_both_ways(_two_shapes(arm3, arm9))
    if path is not None:
        assert outcome == (path, f"{path}: {message}")


def test_missing_required_key_is_named_by_the_record_reader():
    doc = json.loads(_two_shapes({}, {}))
    del doc["network"]["arms"][5]["to"]
    assert read_both_ways(json.dumps(doc)) == (
        "$.network.arms[5]", "$.network.arms[5]: missing required key 'to'"
    )


def test_valid_custom_network_is_read_by_columns_only(monkeypatch):
    calls = []
    for name in ("_node", "_arm"):
        real = getattr(scenario, name)
        monkeypatch.setattr(scenario, name, lambda v, real=real: calls.append(1) or real(v))
    for doc in (CUSTOM_DARK_PORT, CUSTOM_MZI):
        sc = parse_scenario(json.dumps(doc))
        assert sc.network.arms[1].modulation is not None
        assert sc.network.nodes[1].scatter is not None
    assert calls == []


def _mirror_chain(mirrors: int) -> dict:
    """A balanced interferometer with ``mirrors`` mirrors on each arm."""
    hadamard = [[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]
    nodes = [
        {"id": "SRC", "kind": "source"},
        {"id": "J0", "kind": "beam_splitter", "scatter": hadamard},
        {"id": "J1", "kind": "beam_splitter", "scatter": hadamard},
        {"id": "D", "kind": "detector", "label": "D"},
        {"id": "K", "kind": "sink"},
    ]
    arms = [{"id": "in", "from": ["SRC", 0], "to": ["J0", 0]}]
    for port, side in enumerate("ud"):
        prev = ["J0", port]
        for m in range(mirrors):
            nodes.append({"id": f"M{side}{m}", "kind": "mirror"})
            arm = {"id": f"{side}{m}", "from": prev, "to": [f"M{side}{m}", 0]}
            if m == 0:
                arm["label"] = side
            if m % 3:
                arm["phase"] = m % 2 or 0.125 * m
            arms.append(arm)
            prev = [f"M{side}{m}", 0]
        arms.append({"id": f"{side}_out", "from": prev, "to": ["J1", port]})
    arms += [
        {"id": "out", "from": ["J1", 0], "to": ["D", 0], "transmission": 0.5},
        {"id": "dump", "from": ["J1", 1], "to": ["K", 0]},
    ]
    return {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}


def test_mirror_chain_round_trip():
    text = json.dumps(_mirror_chain(1000))
    sc = parse_scenario(text)
    assert len(sc.network.nodes) == 2005 and len(sc.network.arms) == 2005
    assert parse_scenario(render_json(scenario_doc(sc))) == sc
    assert read_both_ways(text) == sc
