import contextlib
import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_sweeps, dead_branch_scenario, hadamard_cascade_scenario
from weaktrace import cli, pathsum, reports, spectra, weakval
from weaktrace.cli import main
from weaktrace.errors import NetworkError, NonFiniteResultError
from weaktrace.netgraph import DETECTOR, SOURCE, Arm, Node, build_network

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

STD = '{"network": "standard"}\n'

SPECTRAL_NOISY = json.dumps(
    {
        "network": "standard",
        "experiment": {
            "kind": "spectral",
            "noise": {"std": 1e-4, "seed": 0},
        },
    }
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    code, out, _ = run(capsys, ["validate", scn])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["result"]["valid"] is True
    assert doc["network"]["nodes"] == 13
    assert doc["result"]["arm_input_amplitudes"]["F"] == {"re": 0, "im": 0}


def test_paths_report(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    code, out, _ = run(capsys, ["paths", scn])
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["probability"] == pytest.approx(0.25, abs=1e-12)
    amps = {tuple(p["sites"]): p["amplitude"]["re"] for p in result["paths"]}
    assert amps[("E", "A", "F")] == pytest.approx(0.25, abs=1e-12)
    assert amps[("E", "B", "F")] == pytest.approx(-0.25, abs=1e-12)
    assert amps[("C",)] == pytest.approx(0.5, abs=1e-12)
    assert result["terminal_probability_sum"] == pytest.approx(1.0, abs=1e-12)


def test_weak_report(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    code, out, _ = run(capsys, ["weak", scn])
    assert code == 0
    w = json.loads(out)["result"]["weak_values"]
    assert w["A"]["re"] == pytest.approx(0.5, abs=1e-12)
    assert w["B"]["re"] == pytest.approx(-0.5, abs=1e-12)
    assert w["C"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert abs(w["E"]["re"]) < 1e-12 and abs(w["F"]["re"]) < 1e-12
    # after the weak values, the two states behind each: E is reached but
    # sends nothing on to D, F the reverse
    result = json.loads(out)["result"]
    assert list(result)[-2:] == ["weak_values", "two_state"]
    states = result["two_state"]
    assert list(states) == list(w) == ["A", "B", "C", "E", "F"]
    h = 0.7071067811865476
    assert states["E"]["forward"]["re"] == pytest.approx(h, abs=1e-15)
    assert states["E"]["backward"] == {"re": 0, "im": 0}
    assert states["F"]["forward"] == {"re": 0, "im": 0}
    assert states["F"]["backward"]["re"] == pytest.approx(h, abs=1e-15)
    for site, s in states.items():
        through = s["through"]["re"]
        assert through == pytest.approx(s["forward"]["re"] * s["backward"]["re"], abs=1e-15)
        assert w[site]["re"] == pytest.approx(through / result["total"]["re"], abs=1e-15)


def test_pointer_report(tmp_path, capsys):
    scn = write(
        tmp_path,
        "pointer.json",
        json.dumps(
            {
                "network": "standard",
                "experiment": {"kind": "pointer", "site": "B", "sigma": 1.0},
            }
        ),
    )
    code, out, _ = run(capsys, ["pointer", scn])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["site"] == "B"
    assert result["weak_value"]["re"] == pytest.approx(-0.5, abs=1e-12)
    gs = [r["coupling"] for r in result["readings"]]
    assert gs == [0.125, 0.0625, 0.03125]
    for r in result["readings"]:
        assert r["first_order"] == pytest.approx(-r["coupling"] / 2, abs=1e-12)
        assert abs(r["shift"] - r["first_order"]) < 0.01 * r["coupling"]


def test_spectrum_report_and_csv(tmp_path, capsys):
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    csv_dir = tmp_path / "csv"
    code, out, _ = run(capsys, ["spectrum", scn, "--csv-dir", str(csv_dir)])
    assert code == 0
    result = json.loads(out)["result"]
    cls = {p["site"]: p["classification"] for p in result["peaks"]}
    assert cls["A"] == "strong" and cls["C"] == "strong"
    assert cls["E"] == "below_threshold" and cls["F"] == "below_threshold"
    assert len(result["power"]) == 2048

    ts = (csv_dir / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "k,xbar,rate"
    assert len(ts) == 4097
    sp = (csv_dir / "spectrum.csv").read_text().splitlines()
    assert sp[0] == "bin,power"
    assert len(sp) == 2049


def test_block_report_and_csv(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    csv_dir = tmp_path / "csv"
    code, out, _ = run(capsys, ["block", scn, "--csv-dir", str(csv_dir)])
    assert code == 0
    configs = json.loads(out)["result"]["configs"]
    assert [c["name"] for c in configs] == ["baseline", "block_E", "block_F"]
    for c in configs:
        assert c["static_probability"] == pytest.approx(0.25, abs=1e-12)
    blocked = {p["site"]: p["classification"] for p in configs[1]["peaks"]}
    assert blocked["A"] == "absent" and blocked["B"] == "absent"
    for name in ("baseline", "block_E", "block_F"):
        assert (csv_dir / f"{name}_timeseries.csv").exists()
        assert (csv_dir / f"{name}_spectrum.csv").exists()


def test_out_file_and_quiet(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    out_file = tmp_path / "report" / "weak.json"
    code, out, err = run(capsys, ["weak", scn, "--out", str(out_file), "--quiet"])
    assert code == 0
    assert out == ""
    assert err == ""
    assert json.loads(out_file.read_text())["command"] == "weak"


def test_exit_2_on_schema_error(tmp_path, capsys):
    scn = write(tmp_path, "bad.json", '{"network": "standard", "oops": 1}')
    code, out, err = run(capsys, ["validate", scn])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "schema_error"


def test_exit_2_on_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 2
    assert json.loads(err)["error"] == "schema_error"


def test_exit_3_on_invalid_network(tmp_path, capsys):
    scn = write(
        tmp_path,
        "bad_net.json",
        '{"network": {"kind": "standard", "scatter": {"BS2": [[1, 0], [0.5, 1]]}}}',
    )
    code, _, err = run(capsys, ["validate", scn])
    assert code == 3
    assert json.loads(err)["error"] == "non_unitary_scatter"


def test_cycle_error_document_is_bounded(tmp_path, capsys):
    # a ring of 50 mirrors that nothing feeds: the document names ten of
    # them and counts the rest, so its size does not grow with the ring
    nodes = [{"id": "SRC", "kind": "source"}, {"id": "D", "kind": "detector"}]
    nodes += [{"id": f"R{i:02d}", "kind": "mirror"} for i in range(50)]
    arms = [{"id": "in", "from": ["SRC", 0], "to": ["D", 0]}]
    arms += [{"id": f"r{i}", "from": [f"R{i:02d}", 0], "to": [f"R{(i + 1) % 50:02d}", 0]} for i in range(50)]
    doc = {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}
    code, out, err = run(capsys, ["validate", write(tmp_path, "ring.json", json.dumps(doc))])
    assert (code, out) == (3, "")
    assert len(err.encode()) < 1024
    named = ", ".join(f"'R{i:02d}'" for i in range(10))
    assert json.loads(err) == {
        "error": "cyclic_graph",
        "message": f"cycle through nodes [{named}] and 40 more",
    }


def _label_two_arms_x(arms):
    arms[3]["label"] = "X"  # the upper arm's label, on the modulated lower arm


def _drive_two_arms_at_bin_11(arms):
    arms[3]["modulation"]["bin"] = 11  # the upper arm's bin


def _drop_modulations(arms):
    for arm in arms:
        arm.pop("modulation", None)


def _drop_modulations_and_dark_arm(arms):
    _drop_modulations(arms)
    arms.pop()  # the arm from BS_OUT's port 1


@pytest.mark.parametrize("section", [True, False], ids=["spectral section", "no section"])
@pytest.mark.parametrize("command", ["validate", "spectrum", "block"])
@pytest.mark.parametrize(
    "bad_network, fault, plan_only, plan_fault",
    [
        (_label_two_arms_x, ("duplicate_label", "site label 'X' on multiple arms"),
         _drive_two_arms_at_bin_11, "frequency bin 11 assigned twice"),
        (_drop_modulations_and_dark_arm, ("dangling_port", "output port 1 of node 'BS_OUT' is not connected"),
         _drop_modulations, "a custom network needs an explicit plan or arm modulations"),
    ],
    ids=["one label on two modulated arms", "no modulations and a dangling port"],
)
def test_a_plan_from_the_arms_names_the_network_fault_first(
    tmp_path, capsys, command, section, bad_network, fault, plan_only, plan_fault
):
    """A plan read from a custom network's arms that fails (a site
    modulated twice, no probes at all) names the network's own fault
    first; on a valid network, the plan's fault stands."""

    def run_edited(edit):
        doc = json.loads((SCENARIOS / "custom_mzi.json").read_text())
        if not section:
            del doc["experiment"]
        edit(doc["network"]["arms"])
        return run(capsys, [command, write(tmp_path, "edited.json", json.dumps(doc))])

    code, out, err = run_edited(bad_network)
    assert (code, out) == (3, "")
    assert json.loads(err) == dict(zip(("error", "message"), fault))
    code, out, err = run_edited(plan_only)
    if command == "validate" and not section:  # no plan is read
        assert code == 0
    else:
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema_error", "message": f"$.experiment.plan: {plan_fault}"}


def test_exit_4_on_numeric_degeneracy(tmp_path, capsys):
    # detector on the dark output: summed amplitude is exactly zero
    doc = {
        "network": {
            "kind": "custom",
            "nodes": [
                {"id": "SRC", "kind": "source"},
                {
                    "id": "BS1",
                    "kind": "beam_splitter",
                    "scatter": [
                        [0.7071067811865476, 0.7071067811865476],
                        [0.7071067811865476, -0.7071067811865476],
                    ],
                },
                {
                    "id": "BS2",
                    "kind": "beam_splitter",
                    "scatter": [
                        [0.7071067811865476, 0.7071067811865476],
                        [0.7071067811865476, -0.7071067811865476],
                    ],
                },
                {"id": "D", "kind": "detector"},
                {"id": "K", "kind": "sink"},
            ],
            "arms": [
                {"id": "a", "from": ["SRC", 0], "to": ["BS1", 0]},
                {"id": "b", "from": ["BS1", 0], "to": ["BS2", 0], "label": "X"},
                {"id": "c", "from": ["BS1", 1], "to": ["BS2", 1]},
                {"id": "d", "from": ["BS2", 0], "to": ["K", 0]},
                {"id": "e", "from": ["BS2", 1], "to": ["D", 0]},
            ],
        },
        "experiment": {"kind": "weak_values"},
    }
    scn = write(tmp_path, "dark.json", json.dumps(doc))
    code, _, err = run(capsys, ["weak", scn])
    assert code == 4
    assert json.loads(err)["error"] == "vanishing_total"


def _chain_doc(kind, transmission):
    """A source, one node of ``kind`` and a detector, joined by arms "in" and
    "X"; the labeled arm X, out of the middle node, has the given transmission."""
    return {
        "network": {
            "kind": "custom",
            "nodes": [
                {"id": "SRC", "kind": "source"},
                {"id": "M", "kind": kind},
                {"id": "D", "kind": "detector"},
            ],
            "arms": [
                {"id": "in", "from": ["SRC", 0], "to": ["M", 0]},
                {"id": "X", "from": ["M", 0], "to": ["D", 0], "label": "X", "transmission": transmission},
            ],
        }
    }


def test_block_node_kind_is_refused(tmp_path, capsys):
    # the one absorber is an arm of transmission 0: a `block` node is no kind
    scn = write(tmp_path, "block_node.json", json.dumps(_chain_doc("block", 1.0)))
    code, out, err = run(capsys, ["paths", scn])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "schema_error",
        "message": "$.network.nodes[1].kind: unknown node kind 'block'",
    }
    with pytest.raises(NetworkError, match="unknown kind 'block'"):
        build_network(
            [Node("SRC", SOURCE), Node("B", "block"), Node("D", DETECTOR)],
            [Arm("in", "SRC", 0, "B", 0), Arm("out", "B", 0, "D", 0)],
        )
    # its rewrite, a mirror whose outgoing arm has transmission 0, blocks the route
    scn = write(tmp_path, "absorbing_arm.json", json.dumps(_chain_doc("mirror", 0)))
    code, out, _ = run(capsys, ["paths", scn])
    assert code == 0
    (route,) = json.loads(out)["result"]["paths"]
    assert route["arms"] == ["in", "X"] and route["blocked"] is True
    assert route["amplitude"] == {"re": 0, "im": 0}


def test_degenerate_pointer_names_site_coupling_and_reading(tmp_path, capsys):
    # the total 1e-9 is no vanishing total, but the post-selected rate is 1e-18
    doc = _chain_doc("mirror", 1e-9)
    doc["experiment"] = {"kind": "pointer", "site": "X", "sigma": 1.0, "couplings": [0.5]}
    scn = write(tmp_path, "dim_chain.json", json.dumps(doc))
    code, out, err = run(capsys, ["pointer", scn])
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "degenerate_pointer",
        "message": "pointer at site 'X' with coupling 0.5: post-selected rate dips to "
        "1.000e-18 at reading 0, below 1e-14; pointer mean is undefined there",
    }


def test_degenerate_blocking_configuration_is_named(tmp_path, capsys):
    # blocking C leaves D dark at sample 0, where no probe displaces a route;
    # the baseline and block_E, computed before it, are still written
    doc = {"network": "standard", "experiment": {"kind": "blocking", "samples": 64}}
    doc["experiment"]["block_sites"] = ["E", "C"]
    scn = write(tmp_path, "block_ec.json", json.dumps(doc))
    code, out, _ = run(capsys, ["block", scn, "--csv-dir", str(tmp_path / "csv")])
    assert code == 0
    configs = json.loads(out)["result"]["configs"]
    assert configs[2] == {
        "name": "block_C",
        "blocked_site": "C",
        "error": "degenerate_pointer",
        "message": "post-selected rate dips to 0.000e+00 at reading 0, below 1e-14; "
        "pointer mean is undefined there",
    }
    doc["experiment"]["block_sites"] = ["E"]
    code, alone, _ = run(capsys, ["block", write(tmp_path, "block_e.json", json.dumps(doc))])
    assert code == 0
    assert configs[:2] == json.loads(alone)["result"]["configs"]
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == [
        f"{name}_{kind}.csv" for name in ("baseline", "block_E") for kind in ("spectrum", "timeseries")
    ]


def test_degenerate_blocking_baseline_exits_4(tmp_path, capsys):
    # with C blocked in the network itself, the baseline leaves D dark
    doc = {"network": {"kind": "standard", "blocks": ["C"]}}
    doc["experiment"] = {"kind": "blocking", "samples": 64, "block_sites": ["E"]}
    scn = write(tmp_path, "dark_baseline.json", json.dumps(doc))
    code, out, err = run(capsys, ["block", scn])
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "degenerate_pointer",
        "message": "configuration 'baseline': post-selected rate dips to 0.000e+00 "
        "at reading 0, below 1e-14; pointer mean is undefined there",
    }


@pytest.mark.parametrize("command", ["validate", "paths", "weak", "pointer", "spectrum", "block"])
@pytest.mark.parametrize("with_experiment", [True, False])
def test_negative_arm_depth_is_schema_error(tmp_path, capsys, command, with_experiment):
    doc = json.loads((SCENARIOS / "custom_mzi.json").read_text())
    doc["network"]["arms"][1]["modulation"]["delta"] = -0.01
    if not with_experiment:
        del doc["experiment"]
    scn = write(tmp_path, "negative_depth.json", json.dumps(doc))
    code, out, err = run(capsys, [command, scn])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "schema_error",
        "message": "$.network.arms[1].modulation.delta: modulation depth must be non-negative",
    }


def test_seed_without_noise_model_is_noted(tmp_path, capsys):
    doc = {"network": "standard", "experiment": {"kind": "spectral", "samples": 64}}
    scn = write(tmp_path, "quiet.json", json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", scn, "--seed", "3"])
    assert code == 0
    assert err == "note: --seed ignored, scenario has no noise model\n"
    assert run(capsys, ["spectrum", scn, "--seed", "3", "--quiet"]) == (0, out, "")


def test_experiment_subcommand_mismatch(tmp_path, capsys):
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    code, _, err = run(capsys, ["paths", scn])
    assert code == 2
    assert json.loads(err)["error"] == "schema_error"


def test_pointer_without_experiment_is_schema_error(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    code, _, err = run(capsys, ["pointer", scn])
    assert code == 2


def test_usage_error_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "x.json"])
    assert err.value.code == 2


def test_byte_identical_reports(tmp_path, capsys):
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    outputs = []
    for i in range(2):
        out_file = tmp_path / f"run{i}" / "report.json"
        csv_dir = tmp_path / f"run{i}" / "csv"
        code, _, _ = run(
            capsys,
            ["spectrum", scn, "--out", str(out_file), "--csv-dir", str(csv_dir), "--quiet"],
        )
        assert code == 0
        outputs.append(
            (
                out_file.read_bytes(),
                (csv_dir / "timeseries.csv").read_bytes(),
                (csv_dir / "spectrum.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_seed_flag_overrides_scenario_seed(tmp_path, capsys):
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    code, base, _ = run(capsys, ["spectrum", scn])
    code2, same, _ = run(capsys, ["spectrum", scn, "--seed", "0"])
    code3, other, _ = run(capsys, ["spectrum", scn, "--seed", "31"])
    assert (code, code2, code3) == (0, 0, 0)
    assert base == same
    assert other != base
    assert json.loads(other)["scenario"]["experiment"]["noise"]["seed"] == 31


def test_scenario_echo_reparses_to_same_run(tmp_path, capsys):
    # the resolved scenario embedded in a report is itself a valid
    # scenario producing the identical report body
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    code, out, _ = run(capsys, ["spectrum", scn])
    assert code == 0
    doc = json.loads(out)
    scn2 = write(tmp_path, "echo.json", json.dumps(doc["scenario"]))
    code2, out2, _ = run(capsys, ["spectrum", scn2])
    assert code2 == 0
    assert json.loads(out2)["result"] == doc["result"]


def test_spectrum_without_csv_dir_builds_no_csv(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("CSV text built without --csv-dir")

    monkeypatch.setattr(reports, "timeseries_csv", fail)
    monkeypatch.setattr(reports, "spectrum_csv", fail)
    scn = write(tmp_path, "std.json", STD)
    for command in ("spectrum", "block"):
        code, _, _ = run(capsys, [command, scn])
        assert code == 0


def test_negative_seed_flag_is_schema_error(tmp_path, capsys):
    scn = write(tmp_path, "noisy.json", SPECTRAL_NOISY)
    code, out, err = run(capsys, ["spectrum", scn, "--seed", "-3"])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "schema_error"
    assert doc["message"].startswith("$.experiment.noise.seed:")


def test_block_on_custom_network_defaults_to_plan_sites(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "custom_mzi.json").read_text())
    del doc["experiment"]
    scn = write(tmp_path, "custom.json", json.dumps(doc))
    code, out, _ = run(capsys, ["block", scn])
    assert code == 0
    configs = json.loads(out)["result"]["configs"]
    assert [c["name"] for c in configs] == ["baseline", "block_X", "block_Y"]


def mirror_chain_scenario(mirrors: int) -> dict:
    nodes = [{"id": "SRC", "kind": "source"}]
    nodes += [{"id": f"M{i}", "kind": "mirror"} for i in range(mirrors)]
    nodes.append({"id": "D", "kind": "detector"})
    ids = [n["id"] for n in nodes]
    arms = [
        {"id": f"a{i}", "from": [u, 0], "to": [v, 0]}
        for i, (u, v) in enumerate(zip(ids, ids[1:]))
    ]
    arms[mirrors // 2]["label"] = "X"
    return {
        "network": {"kind": "custom", "nodes": nodes, "arms": arms},
        "experiment": {"kind": "pointer", "site": "X"},
    }


def test_chain_deeper_than_recursion_limit(tmp_path, capsys):
    doc = mirror_chain_scenario(1500)
    with_pointer = write(tmp_path, "chain_pointer.json", json.dumps(doc))
    del doc["experiment"]
    bare = write(tmp_path, "chain.json", json.dumps(doc))
    for command, scn in (("paths", bare), ("weak", bare), ("pointer", with_pointer)):
        code, out, _ = run(capsys, [command, scn])
        assert code == 0, command
        result = json.loads(out)["result"]
        if command == "paths":
            assert len(result["paths"]) == 1
            assert len(result["paths"][0]["arms"]) == 1501
        elif command == "weak":
            assert result["weak_values"]["X"] == {"re": 1, "im": 0}
        else:
            assert result["weak_value"] == {"re": 1, "im": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--csv-dir", "csv"],
        ["validate", "--csv-dir", "csv"],
        ["block", "--seed", "3"],
        ["weak", "--seed", "3"],
    ],
)
def test_options_only_where_they_act(tmp_path, capsys, argv):
    scn = write(tmp_path, "std.json", STD)
    with pytest.raises(SystemExit) as err:
        main([argv[0], scn, *argv[1:]])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "csv").exists()


def test_too_many_routes_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 3)
    scn = write(tmp_path, "std.json", STD)
    for command in ("paths", "weak", "spectrum"):
        code, out, err = run(capsys, [command, scn])
        assert code == 3, command
        assert out == ""
        assert json.loads(err)["error"] == "too_many_routes"


# numpy's overflow warnings would land on stderr next to the error document
@pytest.mark.filterwarnings("error")
def test_non_finite_result_exits_4(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "custom_mzi.json").read_text())
    doc["network"]["arms"][1]["modulation"]["delta"] = 1e308
    scn = write(tmp_path, "deep.json", json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", scn, "--csv-dir", str(tmp_path / "csv")])
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "non_finite_result"
    assert not (tmp_path / "csv").exists()


def test_non_finite_csv_value_is_refused():
    with pytest.raises(NonFiniteResultError):
        reports.timeseries_csv([float("nan")], [1.0])
    with pytest.raises(NonFiniteResultError):
        reports.spectrum_csv([0.0, float("inf")])


def test_too_many_samples_is_schema_error(tmp_path, capsys):
    doc = {"network": "standard", "experiment": {"kind": "spectral", "samples": 2**60}}
    scn = write(tmp_path, "huge.json", json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", scn])
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "schema_error"
    assert error["message"].startswith("$.experiment.samples: ")


# a pointer width of 1e-300 put the second class's displacement at inf and
# the readout at NaN, which ended as a non_finite_result exit 4
@pytest.mark.filterwarnings("error")
def test_overflowing_pointer_coupling_is_schema_error(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "pointer_site_b.json").read_text())
    doc["experiment"].update(sigma=1e-300, couplings=[1e-301, 1e308])
    scn = write(tmp_path, "overflow.json", json.dumps(doc))
    code, out, err = run(capsys, ["pointer", scn])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "schema_error",
        "message": "$.experiment.couplings[1]: coupling / sigma must be finite",
    }


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"network": {"kind": "custom"}}', "$.network: missing required key 'nodes'"),
        (
            '{"network": {"kind": "custom", "nodes": [{}], "arms": []}}',
            "$.network.nodes[0]: missing required key 'id'",
        ),
    ],
    ids=["network", "node"],
)
def test_missing_keys_are_named_in_a_fixed_order(tmp_path, text, message):
    # which of several missing keys is named must not follow the hash seed
    scn = write(tmp_path, "missing.json", text)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "weaktrace.cli", "validate", scn],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        outputs.add(proc.stderr)
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == {"error": "schema_error", "message": message}


def test_non_utf8_scenario_is_schema_error(tmp_path, capsys):
    scn = tmp_path / "bytes.json"
    scn.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, ["validate", str(scn)])
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "schema_error"
    assert error["message"].startswith("$: ")


SPECTRAL_SIGMA = '{"network": "standard", "experiment": {"kind": "spectral", "sigma": %s}}'


@pytest.mark.parametrize(
    "text, path",
    [
        # an integer past the float range
        (SPECTRAL_SIGMA % ("1" + "0" * 400), "$.experiment.sigma"),
        # past the digit limit that Python 3.11 sets on parsing an integer
        (SPECTRAL_SIGMA % ("1" + "0" * 5000), None),
        # nesting past the interpreter's recursion limit
        ('{"network": %s%s}' % ("[" * 100000, "]" * 100000), "$"),
    ],
    ids=["past_float_range", "past_digit_limit", "nested_too_deep"],
)
def test_unreadable_json_values_are_schema_errors(tmp_path, capsys, text, path):
    scn = write(tmp_path, "huge.json", text)
    code, out, err = run(capsys, ["spectrum", scn])
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "schema_error"
    if path is not None:
        assert error["message"].startswith(f"{path}: ")


@pytest.mark.parametrize("label", ["x/../../escaped", "nul\u0000byte"], ids=["traversal", "nul"])
def test_site_label_cannot_name_a_csv_file_outside_csv_dir(tmp_path, capsys, label):
    doc = json.loads((SCENARIOS / "custom_mzi.json").read_text())
    del doc["experiment"]  # block the probed sites X and Y
    doc["network"]["arms"][1]["label"] = label
    scn = write(tmp_path, "doc.json", json.dumps(doc))
    code, out, err = run(capsys, ["block", scn, "--csv-dir", str(tmp_path / "out" / "csv")])
    assert code == 2
    assert out == ""
    error = json.loads(err)  # one document and nothing else
    assert error["error"] == "unwritable_output"
    assert error["message"].startswith(f"configuration {'block_' + label!r} cannot name")
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("option", ["--out", "--csv-dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, option):
    scn = write(tmp_path, "std.json", STD)
    # a regular file cannot be a directory on the way to the output
    code, out, err = run(capsys, ["spectrum", scn, option, str(Path(scn) / "x")])
    assert code == 2
    # the report goes to stdout only once every file is written
    assert out == ""
    assert json.loads(err)["error"] == "unwritable_output"


STANDARD_PATHS = ["paths", str(SCENARIOS / "standard.json")]
STDOUT_WRITERS = {
    "command line": ["-m", "weaktrace.cli", *STANDARD_PATHS],
    # stdout must take a later write, and the flush at exit, without failing again
    "main, then print": [
        "-c",
        "import sys; from weaktrace.cli import main; "
        "code = main(sys.argv[1:]); print('more'); sys.exit(code)",
        *STANDARD_PATHS,
    ],
}


def run_with_stdout(argv, stdout) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def assert_one_unwritable_output_document(proc, reason):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)  # one document and nothing else
    assert error["error"] == "unwritable_output"
    assert error["message"].startswith("cannot write the report to stdout (")
    assert reason in error["message"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS)
def test_full_stdout_exits_2(argv):
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(argv, full)
    assert_one_unwritable_output_document(proc, "No space left")


@pytest.mark.parametrize("argv", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS)
def test_stdout_pipe_without_reader_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_with_stdout(argv, write_end)
    finally:
        os.close(write_end)
    assert_one_unwritable_output_document(proc, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_redirected_stdout_is_left_to_its_caller(capsys):
    full = open("/dev/full", "w")
    try:
        with contextlib.redirect_stdout(full):
            assert main(STANDARD_PATHS) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "unwritable_output"
        # the caller's file still leads to the full device, not to the null one
        with pytest.raises(OSError, match="No space left"):
            full.flush()
    finally:
        with contextlib.suppress(OSError):
            full.close()


def test_weak_normalises_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = weakval.relative_amplitudes

    def counted(ens):
        calls.append(1)
        return real(ens)

    monkeypatch.setattr(weakval, "relative_amplitudes", counted)
    monkeypatch.setattr(cli, "relative_amplitudes", counted)
    scn = write(tmp_path, "std.json", STD)
    code, out, _ = run(capsys, ["weak", scn])
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["result"]["weak_values"]["C"] == {"re": 1, "im": 0}


def test_pointer_has_no_route_limit(tmp_path, capsys):
    doc = hadamard_cascade_scenario(20)
    doc["experiment"] = {"kind": "pointer", "site": "s7u", "couplings": [0.5, 0.125]}
    code, out, err = run(capsys, ["pointer", write(tmp_path, "cascade.json", json.dumps(doc))])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["weak_value"]["re"] == pytest.approx(1.0, abs=1e-12)
    for reading in result["readings"]:
        assert reading["shift"] == pytest.approx(reading["coupling"], abs=1e-12)


def cascade_plan(stages: int, delta: float) -> dict:
    """Every upper arm of hadamard_cascade_scenario probed at ``delta``,
    which splits its 2**stages routes into as many signature classes."""
    return {f"s{s}u": {"delta": delta, "bin": 13 + 2 * s} for s in range(stages)}


def cascade_route_amplitudes(stages: int) -> dict:
    """The amplitude at D of each route of hadamard_cascade_scenario, by
    hand: a route is the output port it takes at J0..J<stages - 1>, and it
    picks up h at each splitter and a sign at each one that it enters and
    leaves by port 1."""
    h = 2**-0.5
    amps = {}
    for ports in itertools.product((0, 1), repeat=stages):
        seq = (0, *ports, 0)  # into J0 by port 0, out of J<stages> by port 0
        flips = sum(a == b == 1 for a, b in zip(seq, seq[1:]))
        amps[ports] = (-1) ** flips * h ** (stages + 1)
    return amps


def test_series_readout_of_1024_classes_matches_quadrature(tmp_path, capsys):
    # 1024 classes at 4096 samples cost 2**32 pair overlaps, but the series
    # takes M + 1 moments per class and sample, well inside the bound
    doc = hadamard_cascade_scenario(10)
    plan = cascade_plan(10, 0.01)
    doc["experiment"] = {"kind": "spectral", "samples": 4096, "plan": plan}
    csv_dir = tmp_path / "csv"
    argv = ["spectrum", write(tmp_path, "cascade.json", json.dumps(doc)), "--csv-dir", str(csv_dir)]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    table = np.loadtxt(csv_dir / "timeseries.csv", delimiter=",", skiprows=1)

    # the pointer state at sample k, sum over routes of A G(x - d), integrated
    amps = cascade_route_amplitudes(10)
    a = np.array(list(amps.values()))
    upper = np.array([[port == 0 for port in ports] for ports in amps], dtype=float)
    bins = np.array([p["bin"] for p in plan.values()], dtype=float)
    x = np.linspace(-12.5, 12.5, 4001)
    weights = np.full(x.size, x[1] - x[0])
    weights[0] = weights[-1] = weights[0] / 2
    for k in (0, 1, 7, 100, 1023, 2048, 3001, 4095):
        d = upper @ (0.01 * np.sin(2 * np.pi * bins * k / 4096))
        psi = a @ weakval.pointer_profile(x[None, :] - d[:, None], 1.0)
        density = np.abs(psi) ** 2
        rate = density @ weights
        assert abs(table[k, 2] - rate) < 1e-12
        assert abs(table[k, 1] - (density * x) @ weights / rate) < 1e-12


def test_readout_bound_exits_3_before_the_readout(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the readout ran")

    monkeypatch.setattr(spectra, "post_selected_mean", refuse)
    # the summed depth 5 reaches past twice the width, so the 1024 classes
    # would take the pair kernel: 4096 x 1024^2 = 2**32 units of work
    doc = hadamard_cascade_scenario(10)
    plan = cascade_plan(10, 0.5)
    doc["experiment"] = {"kind": "spectral", "samples": 4096, "plan": plan}
    code, out, err = run(capsys, ["spectrum", write(tmp_path, "cascade.json", json.dumps(doc))])
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "too_many_routes"
    assert "1024 signature classes at 4096 samples" in error["message"]
    assert error["message"].endswith(f"(here {2**32})")
    # the all-upper class itself is displaced past 2 (t > 1): the series
    # would not run
    k = np.arange(4096)
    reach = np.abs(sum(0.5 * np.sin(2 * np.pi * p["bin"] * k / 4096) for p in plan.values()))
    assert reach.max() > 2.0


def test_waveform_table_bound_exits_3_before_the_table(tmp_path, capsys, monkeypatch):
    def refuse(plan):
        raise AssertionError("the waveform table was built")

    monkeypatch.setattr(spectra.ModulationPlan, "_waves", property(refuse))
    # 33 probed sites off the only route to D pass the class and work
    # bounds with one class, but their table would be 2**20 x 33 floats
    doc = dead_branch_scenario(33, 2**20)
    code, out, err = run(capsys, ["spectrum", write(tmp_path, "dead.json", json.dumps(doc))])
    assert code == 3
    assert out == ""
    error = json.loads(err)  # one document and nothing else
    assert error == {
        "error": "too_many_routes",
        "message": "33 probed sites at 1048576 samples exceed the readout bound of "
        "33554432 samples x sites",
    }


def count_forward_passes(monkeypatch):
    calls = []
    real = pathsum._forward
    monkeypatch.setattr(pathsum, "_forward", lambda *a: calls.append(1) or real(*a))
    return calls


def test_pointer_makes_one_forward_pass(capsys, monkeypatch):
    # one forward and one backward sweep, and no signature pass
    def refuse(*args):
        raise AssertionError("pointer listed routes")

    monkeypatch.setattr(pathsum, "enumerate_paths", refuse)
    monkeypatch.setattr(cli, "enumerate_paths", refuse)
    calls = count_forward_passes(monkeypatch)
    sweeps = count_sweeps(monkeypatch)
    code, out, _ = run(capsys, ["pointer", str(SCENARIOS / "pointer_site_b.json")])
    assert code == 0
    assert len(json.loads(out)["result"]["readings"]) == 3
    assert calls == []
    assert sweeps == ["forward", "backward"]


def test_block_makes_one_forward_pass_per_configuration(capsys, monkeypatch):
    calls = count_forward_passes(monkeypatch)
    code, out, _ = run(capsys, ["block", str(SCENARIOS / "standard.json")])
    assert code == 0
    assert len(json.loads(out)["result"]["configs"]) == 3
    assert len(calls) == 3


def test_block_makes_one_waveform_table(capsys, monkeypatch):
    # blocking an arm leaves the plan alone: the three configurations share
    # one table of per-site sines, as a single spectrum run has its own
    tables = []
    real = np.sin
    monkeypatch.setattr(np, "sin", lambda *a, **kw: tables.append(1) or real(*a, **kw))
    for command in ("block", "spectrum"):
        tables.clear()
        assert run(capsys, [command, str(SCENARIOS / "standard.json")])[0] == 0
        assert len(tables) == 1, command


# a repeated site ran its configuration twice, and the second pair of CSV
# files overwrote the first while the note still counted both
def test_duplicate_block_site_is_schema_error(tmp_path, capsys):
    doc = {"network": "standard", "experiment": {"kind": "blocking", "samples": 64}}
    doc["experiment"]["block_sites"] = ["E", "E"]
    scn = write(tmp_path, "dup.json", json.dumps(doc))
    csv_dir = tmp_path / "csv"
    code, out, err = run(capsys, ["block", scn, "--csv-dir", str(csv_dir)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "schema_error",
        "message": "$.experiment.block_sites[1]: site 'E' blocked twice",
    }
    assert not csv_dir.exists()


def test_duplicate_weak_site_is_schema_error(tmp_path, capsys):
    doc = {"network": "standard", "experiment": {"kind": "weak_values", "sites": ["A", "B", "A"]}}
    scn = write(tmp_path, "dup.json", json.dumps(doc))
    code, out, err = run(capsys, ["weak", scn])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "schema_error",
        "message": "$.experiment.sites[2]: site 'A' named twice",
    }
    doc["experiment"]["sites"] = ["A", "B"]
    scn = write(tmp_path, "once.json", json.dumps(doc))
    code, out, _ = run(capsys, ["weak", scn])
    assert code == 0
    result = json.loads(out)["result"]
    assert list(result["weak_values"]) == list(result["two_state"]) == ["A", "B"]


def test_parser_is_built_once(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, ["validate", scn])
    assert run(capsys, ["validate", scn, "--quiet"]) == first
    assert run(capsys, ["validate", scn]) == first


NON_UNITARY = '{"network": {"kind": "standard", "scatter": {"BS2": [[1, 0], [0.5, 1]]}}}'
# blocking C leaves D dark, so the weak values' total amplitude vanishes
DARK_DETECTOR = '{"network": {"kind": "standard", "blocks": ["C"]}}'


WAYS_OUT = (
    "report",
    "usage error",
    "help",
    "schema error",
    "invalid network",
    "numeric degeneracy",
    "unwritable output",
)


def exits_of_main(tmp_path) -> dict:
    """argv and outcome (exit code, or SystemExit and its code) of each way out of main."""
    std = write(tmp_path, "std.json", STD)
    return {
        "report": (["validate", std, "--quiet"], 0),
        "usage error": (["frobnicate", std], (SystemExit, 2)),
        "help": (["weak", "--help"], (SystemExit, 0)),
        "schema error": (["validate", str(tmp_path / "nope.json")], 2),
        "invalid network": (["validate", write(tmp_path, "bad.json", NON_UNITARY)], 3),
        "numeric degeneracy": (["weak", write(tmp_path, "dark.json", DARK_DETECTOR)], 4),
        # OutputError: a regular file cannot be a directory on the way to --out
        "unwritable output": (["validate", std, "--out", str(Path(std) / "x")], 2),
    }


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("way_out", WAYS_OUT)
def test_main_restores_the_collector(tmp_path, capsys, way_out, collecting):
    argv, outcome = exits_of_main(tmp_path)[way_out]
    if not collecting:
        gc.disable()
    try:
        if isinstance(outcome, tuple):
            with pytest.raises(outcome[0]) as err:
                main(argv)
            assert err.value.code == outcome[1]
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_an_unexpected_error_propagates_and_restores_the_collector(
    tmp_path, capsys, monkeypatch, collecting
):
    during = []

    def crash(args):
        during.append(gc.isenabled())
        raise RuntimeError("a fault outside the error contract")

    monkeypatch.setattr(cli, "_run", crash)
    if not collecting:
        gc.disable()
    try:
        with pytest.raises(RuntimeError, match="outside the error contract"):
            main(["validate", write(tmp_path, "std.json", STD)])
        assert during == [False]
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_runs_make_no_reference_cycles(tmp_path, capsys):
    """Pausing the collector for a run leaks nothing only while runs make no
    cycles: each run below must leave nothing for ``gc.collect`` to free.

    The first call in a process builds the cached parser (argparse's
    objects refer to each other), and numpy's first FFT sets up its own
    caches, so one call per subcommand warms up first.  argparse's usage
    error is exempt: its formatter and the sections it builds refer to
    each other, and it ends the run with ``SystemExit`` anyway.
    """
    out = str(tmp_path / "report.json")

    def cycles_left(argv) -> tuple[int, int]:
        gc.collect()
        code = main(argv + ["--out", out, "--quiet"])
        return code, gc.collect()

    commands = list(cli._SUBCOMMANDS)
    for command in commands:
        cycles_left([command, str(SCENARIOS / "standard.json")])

    runs = {}
    csv = ["--csv-dir", str(tmp_path / "csv")]
    for scenario in sorted(SCENARIOS.glob("*.json")):
        for command in commands:
            runs[f"{scenario.name} {command}"] = cycles_left([command, str(scenario)])
        for command in ("spectrum", "block"):
            runs[f"{scenario.name} {command} --csv-dir"] = cycles_left([command, str(scenario)] + csv)
    # 13 subcommand/scenario pairs exit 0, and 5 of them again with --csv-dir;
    # the other runs end with the error document of a mismatched experiment
    assert sum(code == 0 for code, _ in runs.values()) == 13 + 5

    doc = mirror_chain_scenario(2000)
    with_pointer = write(tmp_path, "chain_pointer.json", json.dumps(doc))
    del doc["experiment"]
    bare = write(tmp_path, "chain.json", json.dumps(doc))
    for command, scn in (("validate", bare), ("paths", bare), ("weak", bare), ("pointer", with_pointer)):
        runs[f"2000-mirror chain {command}"] = cycles_left([command, scn])

    for way_out in ("schema error", "invalid network", "numeric degeneracy"):
        argv, code = exits_of_main(tmp_path)[way_out]
        runs[way_out] = cycles_left(argv)
        assert runs[way_out][0] == code

    assert {name: left for name, (_, left) in runs.items() if left} == {}
    assert all(code == 0 for name, (code, _) in runs.items() if name.startswith("2000"))
