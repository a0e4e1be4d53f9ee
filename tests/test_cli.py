import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weaktrace import cli, pathsum, reports, spectra, weakval
from weaktrace.cli import main
from weaktrace.errors import NonFiniteResultError

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


@pytest.mark.parametrize("option", ["--out", "--csv-dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, option):
    scn = write(tmp_path, "std.json", STD)
    # a regular file cannot be a directory on the way to the output
    code, out, err = run(capsys, ["spectrum", scn, option, str(Path(scn) / "x")])
    assert code == 2
    # the report goes to stdout only once every file is written
    assert out == ""
    assert json.loads(err)["error"] == "unwritable_output"


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


def hadamard_cascade_scenario(stages: int) -> dict:
    """Splitters J0..J<stages>, each joined to the next by two labeled arms:
    2**stages routes reach D.  An even number of Hadamards is the identity,
    so after every joint only port 0 can still reach D: the upper arms have
    weak value 1 and the lower ones 0."""
    h = 2**-0.5
    nodes = [{"id": "SRC", "kind": "source"}]
    nodes += [
        {"id": f"J{j}", "kind": "beam_splitter", "scatter": [[h, h], [h, -h]]}
        for j in range(stages + 1)
    ]
    nodes += [{"id": "D", "kind": "detector"}, {"id": "K", "kind": "sink"}]
    arms = [{"id": "in", "from": ["SRC", 0], "to": ["J0", 0]}]
    for s in range(stages):
        for port, side in ((0, "u"), (1, "d")):
            arms.append(
                {"id": f"s{s}{side}", "from": [f"J{s}", port], "to": [f"J{s + 1}", port],
                 "label": f"s{s}{side}"}
            )
    arms.append({"id": "out", "from": [f"J{stages}", 0], "to": ["D", 0]})
    arms.append({"id": "dump", "from": [f"J{stages}", 1], "to": ["K", 0]})
    return {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}


def test_pointer_has_no_route_limit(tmp_path, capsys):
    doc = hadamard_cascade_scenario(20)
    doc["experiment"] = {"kind": "pointer", "site": "s7u", "couplings": [0.5, 0.125]}
    code, out, err = run(capsys, ["pointer", write(tmp_path, "cascade.json", json.dumps(doc))])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["weak_value"]["re"] == pytest.approx(1.0, abs=1e-12)
    for reading in result["readings"]:
        assert reading["shift"] == pytest.approx(reading["coupling"], abs=1e-12)


def test_readout_bound_exits_3_before_the_readout(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the readout ran")

    monkeypatch.setattr(spectra, "post_selected_mean", refuse)
    # probing every upper arm splits the 2**10 routes into 1024 classes
    doc = hadamard_cascade_scenario(10)
    plan = {f"s{s}u": {"delta": 0.01, "bin": 13 + 2 * s} for s in range(10)}
    doc["experiment"] = {"kind": "spectral", "samples": 4096, "plan": plan}
    code, out, err = run(capsys, ["spectrum", write(tmp_path, "cascade.json", json.dumps(doc))])
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "too_many_routes"
    assert "1024 signature classes at 4096 samples" in error["message"]


def count_forward_passes(monkeypatch):
    calls = []
    real = pathsum._forward
    monkeypatch.setattr(pathsum, "_forward", lambda *a: calls.append(1) or real(*a))
    return calls


def test_pointer_makes_one_forward_pass(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("pointer listed routes")

    monkeypatch.setattr(pathsum, "enumerate_paths", refuse)
    monkeypatch.setattr(cli, "enumerate_paths", refuse)
    calls = count_forward_passes(monkeypatch)
    code, out, _ = run(capsys, ["pointer", str(SCENARIOS / "pointer_site_b.json")])
    assert code == 0
    assert len(json.loads(out)["result"]["readings"]) == 3
    assert len(calls) == 1


def test_block_makes_one_forward_pass_per_configuration(capsys, monkeypatch):
    calls = count_forward_passes(monkeypatch)
    code, out, _ = run(capsys, ["block", str(SCENARIOS / "standard.json")])
    assert code == 0
    assert len(json.loads(out)["result"]["configs"]) == 3
    assert len(calls) == 3


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
    assert list(json.loads(out)["result"]["weak_values"]) == ["A", "B"]


def test_parser_is_built_once(tmp_path, capsys):
    scn = write(tmp_path, "std.json", STD)
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, ["validate", scn])
    assert run(capsys, ["validate", scn, "--quiet"]) == first
    assert run(capsys, ["validate", scn]) == first
