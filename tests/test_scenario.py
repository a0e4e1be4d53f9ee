import json

import pytest

from conftest import build_calls
from weaktrace import ModulationPlan, NoiseModel, SiteModulation
from weaktrace.errors import NonUnitaryScatterError, SchemaError, UnknownLabelError
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


def test_blocks_are_applied_in_one_rebuild(monkeypatch):
    calls = build_calls(monkeypatch)
    sc = parse_scenario('{"network": {"kind": "standard", "blocks": ["A", "B"]}}')
    net = build_scenario_network(sc.network)
    # the standard network, then one rebuild for both blocked sites
    assert len(calls) == 2
    assert [a.id for a in net.arms if a.transmission == 0.0] == ["A", "B"]


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
