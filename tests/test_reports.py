"""The bulk report emitter against the per-value reference in conftest."""

import dataclasses
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hadamard_cascade_scenario, reference_csv, reference_render_json, traced_peak
from weaktrace import reports
from weaktrace.cli import main
from weaktrace.errors import NonFiniteResultError
from weaktrace.scenario import parse_scenario, scenario_doc, scenario_echo
from weaktrace.spectra import SpectralReport

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
COMMANDS = ("validate", "paths", "weak", "pointer", "spectrum", "block")

SPECIAL = [5e-324, -0.0, 1e308, 2.0**53 + 2, 1e16, 1e17, 0.1, 1e-36, -1e308, 0.0, 1.0, 4095.0]


def seeded_floats(seed: int, n: int) -> np.ndarray:
    """Finite doubles of every magnitude and sign, with SPECIAL mixed in."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    wide = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-323, 308, size=n)
    plain = rng.standard_normal(n)
    values = np.concatenate([bits, wide, plain, SPECIAL])
    return values[rng.permutation(len(values))]


def plain_envelope(doc: dict, scenario_path) -> dict:
    """A CLI report document with its echoed network as ``scenario_doc``
    gives it, plain dicts that the reference renders: the CLI writes a
    custom network's nodes and arms as text made before ``render_json``."""
    if "scenario" not in doc:  # an error document
        return doc
    network = scenario_doc(parse_scenario(Path(scenario_path).read_text()))["network"]
    return {**doc, "scenario": {**doc["scenario"], "network": network}}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_cli_text_matches_reference(tmp_path, capsys, monkeypatch, command, scenario):
    docs, tables = [], []
    render_json = reports.render_json
    timeseries_csv = reports.timeseries_csv
    spectrum_csv = reports.spectrum_csv

    def spy_json(doc):
        text = render_json(doc)
        docs.append((doc, text))
        return text

    def spy_timeseries(xbar, rate):
        text = timeseries_csv(xbar, rate)
        tables.append((text, reference_csv("k,xbar,rate", xbar, rate)))
        return text

    def spy_spectrum(power):
        text = spectrum_csv(power)
        tables.append((text, reference_csv("bin,power", power)))
        return text

    monkeypatch.setattr(reports, "render_json", spy_json)
    monkeypatch.setattr(reports, "timeseries_csv", spy_timeseries)
    monkeypatch.setattr(reports, "spectrum_csv", spy_spectrum)
    argv = [command, str(scenario)]
    if command in ("spectrum", "block"):
        argv += ["--csv-dir", str(tmp_path / "csv")]
    code = main(argv)
    out, err = capsys.readouterr()

    # a report or an error document, always exactly one
    assert len(docs) == 1
    doc, text = docs[0]
    assert (out if code == 0 else err) == text
    assert text == reference_render_json(plain_envelope(doc, scenario))
    for text, expected in tables:
        assert text == expected
    if command in ("spectrum", "block") and "result" in doc:
        assert len(tables) == len(list((tmp_path / "csv").iterdir())) > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_arrays_match_reference(seed):
    values = seeded_floats(seed, 3000)
    assert values.size > 9000
    for special in SPECIAL:
        assert special in values
    grid = values[: 60 * 50].reshape(60, 50)
    doc = {
        "power": values,
        "as_list": values.tolist(),
        "grid": grid,
        "float32": np.random.default_rng(seed).standard_normal(100).astype(np.float32),
        "numpy_scalars": [np.float64(v) for v in values[:20]],
        "complex": [complex(a, b) for a, b in zip(values[:20], values[20:40])],
        "complex_array": values[:20] + 1j * values[20:40],
        "mixed": [1, 2.5, "x", None, True, np.int64(7), np.float64(-0.0)],
        "tuple": (1.5, "y"),
        "empty": [],
        "nested": {"empty": {}, "ints": np.arange(5), "value": 0.1},
    }
    assert reports.render_json(doc) == reference_render_json(doc)
    half = len(values) // 2
    xbar, rate = values[:half], values[half : 2 * half]
    assert reports.timeseries_csv(xbar, rate) == reference_csv("k,xbar,rate", xbar, rate)
    assert reports.spectrum_csv(values) == reference_csv("bin,power", values)
    assert reports.spectrum_csv(values.tolist()) == reference_csv("bin,power", values)


def test_csv_index_column_to_2_20_rows():
    power = np.zeros(2**20)
    text = reports.spectrum_csv(power)
    assert text == reference_csv("bin,power", power)
    assert text.endswith("\n1048575,0\n")


def test_spectrum_csv_holds_one_copy():
    """The 2**19 + 1 bins of a 2**20-sample power, their text already made
    for the report: the CSV text grows by a chunk of rows at a time."""
    power = reports.Floats(np.random.default_rng(7).random(2**19 + 1).tolist())
    power.text
    text, peak = traced_peak(reports.spectrum_csv, power)
    assert text.count("\n") == 2**19 + 2
    assert peak <= sys.getsizeof(text) + 8 * 2**20


def test_timeseries_csv_holds_one_copy():
    """2**20 rows: beyond its text, only a chunk of rows is held, never the
    whole float table or a second copy of the text."""
    rng = np.random.default_rng(8)
    xbar, rate = rng.standard_normal(2**20), rng.random(2**20)
    reports.timeseries_csv(xbar[:10], rate[:10])  # the float text tables are built on first use
    text, peak = traced_peak(reports.timeseries_csv, xbar, rate)
    assert text.startswith("k,xbar,rate\n0,") and text.count("\n") == 2**20 + 1
    assert peak <= sys.getsizeof(text) + 8 * 2**20


def test_report_power_is_the_spectrum_array():
    """A spectral report's power stays the spectrum's float64 array: the
    2**19 + 1 bins of a 2**20-sample run hold about 4 MB, not the 16 MB of
    a tuple of floats, and the JSON report and spectrum.csv read its text."""
    bins = 2**19 + 1

    def section():
        power = np.random.default_rng(9).random(bins)
        report = SpectralReport("D", 2 * (bins - 1), 1.0, power, (), 1e-20, 0.25, np.zeros(4), np.ones(4))
        return reports.spectral_result(report)

    section()  # what numpy imports on first use stays out of the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        power = section()["power"]
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert 8 * bins <= held <= 8 * bins + 2**18
    assert type(power) is reports.Floats and power.dtype == np.float64 and power.size == bins
    assert reports.render_json({"power": power}) == '{\n  "power": [' + power.text + "]\n}\n"
    assert reports.spectrum_csv(power).count("\n") == bins + 1


def test_empty_tables_and_arrays():
    assert reports.spectrum_csv([]) == reference_csv("bin,power", []) == "bin,power\n"
    assert reports.render_json({"power": np.zeros(0)}) == '{\n  "power": []\n}\n'


def refused(call, *args) -> str:
    with pytest.raises(NonFiniteResultError) as err:
        call(*args)
    return str(err.value)


def test_non_finite_array_value_is_named():
    power = np.linspace(0.0, 1.0, 2048)
    power[1000] = np.nan
    message = refused(reports.render_json, {"power": power})
    assert message == refused(reference_render_json, {"power": power})
    assert re.search(r"\(nan\)$", message)
    assert refused(reports.spectrum_csv, power) == message
    assert refused(reports.render_json, {"power": power.tolist()}) == message

    # the first non-finite value in the document's order is the one named
    power[10] = -np.inf
    assert re.search(r"\(-inf\)$", refused(reports.spectrum_csv, power))
    assert re.search(r"\(-inf\)$", refused(reports.render_json, {"power": power}))


def test_non_finite_rate_value_is_named():
    xbar = np.linspace(-1.0, 1.0, 4096)
    rate = np.full(4096, 0.25)
    rate[4000] = np.inf
    message = refused(reports.timeseries_csv, xbar, rate)
    assert message == refused(reference_csv, "k,xbar,rate", xbar, rate)
    assert re.search(r"\(inf\)$", message)


def test_non_finite_scalar_is_named():
    message = refused(reports.render_json, {"mean_rate": float("nan")})
    assert message == refused(reference_render_json, {"mean_rate": float("nan")})
    assert re.search(r"\(nan\)$", message)
    assert re.search(r"\(-inf\)$", refused(reports.render_json, {"x": np.float64(-np.inf)}))


def test_unserializable_values_are_refused():
    with pytest.raises(TypeError, match="non-string report key"):
        reports.render_json({1: 2})
    with pytest.raises(TypeError, match="cannot serialize"):
        reports.render_json({"x": object()})


def test_short_float_list_names_its_first_non_finite_value():
    doc = {"couplings": [0.125, np.nan, -np.inf]}
    message = refused(reports.render_json, doc)
    assert message == refused(reference_render_json, doc)
    assert re.search(r"\(nan\)$", message)


def test_dict_subclass_is_written_as_its_dict():
    class Record(dict):
        pass

    doc = {"a": 0.5, "b": ["x"], "c": {"re": 1.0, "im": -0.0}}
    assert reports.render_json(Record(doc)) == reports.render_json(doc)
    assert reports.render_json({"r": Record(doc)}) == reports.render_json({"r": doc})


# -- the column emitter ------------------------------------------------------


class Label(str):
    """A str subclass: written as its plain string."""


KEYS = ["id", "kind", "re", "im", "a%", "%s", "%(x)s", "50%% off", 'q"uote', "back\\slash", "é"]
TEXTS = ["", "M0", "mirror", 'say "hi"', "tab\there", "line\nbreak", "é€", "\u2028"]
TEXTS += ["%s", "%d%%", "\x00"]


def random_scalar(rng):
    pick = rng.integers(12)
    if pick == 0:
        return float(rng.choice(SPECIAL))
    if pick == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
    if pick == 2:
        return int(rng.integers(-(2**40), 2**40)) * int(rng.choice([1, 2**30]))
    if pick == 3:
        return bool(rng.integers(2))
    if pick == 4:
        return str(rng.choice(TEXTS))
    if pick == 5:
        return Label(rng.choice(TEXTS))
    if pick == 6:
        return np.float64(rng.standard_normal())
    if pick == 7:
        return np.int64(rng.integers(-1000, 1000))
    if pick == 8:
        return complex(float(rng.choice(SPECIAL)), rng.standard_normal())
    if pick == 9:
        return None
    if pick == 10:
        return [str(rng.choice(TEXTS)) for _ in range(rng.integers(4))]
    return int(rng.integers(3))  # small ints next to the bools


def random_maker(rng, depth):
    """A function that makes values of one kind, so that records share a shape."""
    pick = rng.integers(10 if depth < 3 else 6)
    if pick == 0:
        return lambda: float(rng.choice(SPECIAL)) * rng.choice([1.0, 0.5])
    if pick == 1:
        return lambda: complex(rng.standard_normal(), float(rng.choice(SPECIAL)))
    if pick == 2:
        return lambda: str(rng.choice(TEXTS))
    if pick == 3:  # a route's arms: string lists of varying length
        return lambda: [f"a{i}" for i in range(rng.integers(6))] + [
            str(t) for t in rng.choice(TEXTS, rng.integers(2))
        ]
    if pick == 4:  # an arm's endpoint
        return lambda: [f"M{rng.integers(100)}", int(rng.integers(2))]
    if pick == 5:  # anything, kinds mixed within the column
        return lambda: random_scalar(rng)
    if pick == 6:  # a 2x2 scatter matrix
        return lambda: [
            [{"re": rng.standard_normal(), "im": rng.standard_normal()} for _ in range(2)]
            for _ in range(2)
        ]
    if pick == 7:
        make = random_maker(rng, depth + 1)
        return lambda: {"delta": float(rng.standard_normal()), "inner": make()}
    if pick == 8:
        return lambda: random_value(rng, depth + 1)
    return lambda: bool(rng.integers(2)) if rng.integers(2) else int(rng.integers(2))


def random_records(rng, depth):
    """Records of one schema: optional keys, and some records in another key order."""
    keys = list(rng.choice(KEYS, size=rng.integers(1, 5), replace=False))
    makers = {k: random_maker(rng, depth) for k in keys}
    optional = {k for k in keys if rng.random() < 0.3}
    records = []
    for _ in range(rng.choice([0, 1, 2, 7, 8, 9, 20])):
        present = [k for k in keys if k not in optional or rng.random() < 0.5]
        if rng.random() < 0.1:
            present = present[::-1]
        records.append({k: makers[k]() for k in present})
    if records and rng.random() < 0.1:
        records.insert(int(rng.integers(len(records))), random_scalar(rng))
    return records


def random_value(rng, depth=0):
    pick = rng.integers(7 if depth < 3 else 2)
    if pick == 0:
        return random_scalar(rng)
    if pick == 1:
        return [random_scalar(rng) for _ in range(rng.integers(4))]
    if pick == 2:
        return random_records(rng, depth + 1)
    if pick == 3:  # a dict run: weak_values, arm_input_amplitudes
        make = random_maker(rng, depth + 1)
        return {f"{rng.choice(KEYS)}{i}": make() for i in range(rng.choice([0, 1, 2, 8, 12]))}
    if pick == 4:  # nested lists of records
        return [random_records(rng, depth + 1) for _ in range(rng.choice([1, 2, 8]))]
    if pick == 5:
        keys = rng.choice(KEYS, size=rng.integers(4), replace=False)
        return {str(k): random_value(rng, depth + 1) for k in keys}
    return [random_value(rng, depth + 1) for _ in range(rng.integers(3))]


def random_document(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {str(k): random_value(rng) for k in rng.choice(KEYS, size=4, replace=False)}


@pytest.mark.parametrize("seed", range(150))
def test_columns_match_reference_on_random_documents(seed):
    doc = random_document(seed)
    assert reports.render_json(doc) == reference_render_json(doc)


def test_random_documents_hold_long_runs():
    """The generator above reaches the column path: runs of records of one
    key tuple, records nested in them, string lists and dict runs."""
    calls = []
    render = reports._render_run

    def spy(values, indent, keys=None):
        text = render(values, indent, keys)
        calls.append((len(values), keys is None, text is not None))
        return text

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_render_run", spy)
        for seed in range(150):
            reports.render_json(random_document(seed))
    columned = [(n, is_list) for n, is_list, done in calls if done]
    assert sum(is_list for _, is_list in columned) > 50
    assert sum(not is_list for _, is_list in columned) > 20


def chain_scenario(mirrors: int) -> dict:
    """A mirror chain with labels, phases and a splitter at each end."""
    r = 2**-0.5
    h = [
        [{"re": r, "im": 0.0}, {"re": r, "im": 0.0}],
        [{"re": r, "im": 0.0}, {"re": -r, "im": 0.0}],
    ]
    nodes = [{"id": "SRC", "kind": "source"}, {"id": "J0", "kind": "beam_splitter", "scatter": h}]
    nodes += [{"id": f"M{i}", "kind": "mirror"} for i in range(mirrors)]
    nodes += [{"id": "J1", "kind": "beam_splitter", "scatter": h}, {"id": "D", "kind": "detector"}]
    nodes += [{"id": "X", "kind": "sink"}]
    arms = [{"id": "in", "from": ["SRC", 0], "to": ["J0", 0]}]
    chain = ["J0"] + [f"M{i}" for i in range(mirrors)] + ["J1"]
    for i, (u, v) in enumerate(zip(chain, chain[1:])):
        arm = {"id": f"u{i}", "from": [u, 0], "to": [v, 0]}
        if i % 97 == 0:
            arm["label"] = f"U{i}"
        if i % 5 == 0:
            arm["phase"] = 0.001 * i
        arms.append(arm)
    arms += [
        {"id": "short", "from": ["J0", 1], "to": ["J1", 1], "label": "S"},
        {"id": "out", "from": ["J1", 0], "to": ["D", 0]},
        {"id": "dark", "from": ["J1", 1], "to": ["X", 0]},
    ]
    return {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}


@pytest.mark.parametrize("command", ["validate", "paths", "weak", "pointer"])
def test_chain_reports_match_reference(tmp_path, capsys, monkeypatch, command):
    scn = chain_scenario(1000)
    if command == "pointer":
        scn["experiment"] = {"kind": "pointer", "site": "U97", "couplings": [0.1, 0.01]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(scn))
    docs = []
    render_json = reports.render_json

    def spy_json(doc):
        text = render_json(doc)
        docs.append((doc, text))
        return text

    monkeypatch.setattr(reports, "render_json", spy_json)
    assert main([command, str(path)]) == 0
    plain = plain_envelope(docs[0][0], path)
    assert len(plain["scenario"]["network"]["arms"]) == 1005
    assert capsys.readouterr().out == reference_render_json(plain)


def test_cli_tables_take_the_column_path(tmp_path, capsys, monkeypatch):
    """Every run the CLI writes, of the route tables, ``weak_values``,
    ``two_state`` and ``arm_input_amplitudes``, is written by one template."""
    calls, docs = [], []
    render_run, render_json = reports._render_run, reports.render_json

    def spy(values, indent, keys=None):
        text = render_run(values, indent, keys)
        calls.append((values if keys is None else keys, text))
        return text

    monkeypatch.setattr(reports, "_render_run", spy)
    monkeypatch.setattr(reports, "render_json", lambda doc: docs.append(doc) or render_json(doc))
    for name, scn in (("chain", chain_scenario(1000)), ("cascade", hadamard_cascade_scenario(4))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scn))
        for command in ("validate", "paths", "weak"):
            assert main([command, str(path), "--quiet"]) == 0
    capsys.readouterr()

    def is_run(values):
        kinds = set(map(type, values.values() if type(values) is dict else values))
        return len(values) >= reports._MIN_RUN and len(kinds) == 1 and kinds <= reports._RUN_KINDS

    runs = [(values, text) for values, text in calls if is_run(values)]
    assert [values for values, text in runs if text is None] == []
    written = {id(values) for values, _ in runs}
    names = ("paths", "weak_values", "two_state", "arm_input_amplitudes")
    tables = [(key, doc["result"][key]) for doc in docs for key in names if key in doc["result"]]
    assert {key for key, table in tables if is_run(table)} == set(names)
    assert all(id(table) in written for _, table in tables if is_run(table))


# characters that a template would misread ("%"), that JSON escapes, and
# non-ASCII ones, a lone surrogate included
ID_CHARS = st.sampled_from(
    ["a", "s", "d", "%", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "→", "😀", "\ud800"]
)
R = 2**-0.5
SCATTERS = [
    [[R, R], [R, -R]],
    [[{"re": R, "im": 0}, {"re": 0, "im": R}], [{"re": 0.0, "im": R}, {"re": R, "im": -0.0}]],
    [[0, 1], [1, 0]],
    [[1, -0.0], [-0.0, 1.0]],
    [[0.6, 0.8], [0.8, -0.6]],
]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_custom_networks(draw):
    """Custom scenarios that validate: a source, then a chain of mirrors and
    splitters (each splitter's other output into a sink of its own), then a
    detector.  Every node and arm shape occurs, ids and labels hold the
    characters of ID_CHARS, and ``blocks`` names some arm labels."""
    count = draw(st.integers(0, 14))  # 2 to 30 nodes, 1 to 29 arms
    kinds = draw(st.lists(st.sampled_from(["mirror", "beam_splitter"]), min_size=count, max_size=count))
    splitters = kinds.count("beam_splitter")

    def names(n):
        name = st.text(ID_CHARS, min_size=1, max_size=5)
        return iter(draw(st.lists(name, min_size=n, max_size=n, unique=True)))

    node_ids, arm_ids = names(count + splitters + 2), names(count + splitters + 1)
    labels = names(count + splitters + 1)

    def node(kind):
        doc = {"id": next(node_ids), "kind": kind}
        if kind == "beam_splitter":
            doc["scatter"] = draw(st.sampled_from(SCATTERS))
        if draw(st.booleans()):
            doc["label"] = draw(st.text(ID_CHARS, max_size=4))
        return doc

    def arm(start, end):
        doc = {"id": next(arm_ids), "from": start, "to": end}
        if draw(st.booleans()):
            doc["label"] = next(labels)
        if draw(st.booleans()):
            doc["phase"] = draw(st.sampled_from([0, 0.0, -0.0, 1, 1e-300, -5e-324, 2.5]) | FINITE)
        if draw(st.booleans()):
            doc["transmission"] = draw(st.sampled_from([0, 1, 1.0, 0.5, 5e-324]) | st.floats(0, 1))
        if draw(st.booleans()):
            delta = st.sampled_from([0, 0.01, 1e-300]) | st.floats(0, 1e300)
            doc["modulation"] = {"delta": draw(delta), "bin": draw(st.integers(-3, 2**70))}
        return doc

    nodes, arms = [node("source")], []
    end = [nodes[0]["id"], 0]
    for kind in kinds:
        nodes.append(node(kind))
        port = draw(st.integers(0, 1)) if kind == "beam_splitter" else 0
        arms.append(arm(end, [nodes[-1]["id"], port]))
        end = [nodes[-1]["id"], 0]
        if kind == "beam_splitter":
            out = draw(st.integers(0, 1))
            nodes.append(node("sink"))
            arms.append(arm([nodes[-2]["id"], 1 - out], [nodes[-1]["id"], 0]))
            end = [nodes[-2]["id"], out]
    nodes.append(node("detector"))
    arms.append(arm(end, [nodes[-1]["id"], 0]))
    network = {"kind": "custom", "nodes": draw(st.permutations(nodes)), "arms": arms}
    sites = [a["label"] for a in arms if "label" in a]
    if sites and draw(st.booleans()):
        network["blocks"] = draw(st.lists(st.sampled_from(sites), min_size=1, unique=True))
    return {"network": network}


@settings(max_examples=150, deadline=None)
@given(scn=valid_custom_networks())
def test_validate_echo_matches_reference(tmp_path_factory, scn):
    path = tmp_path_factory.mktemp("echo") / "scenario.json"
    path.write_text(json.dumps(scn))
    out = path.with_suffix(".out")
    docs = []
    render_json = reports.render_json
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "render_json", lambda doc: docs.append(doc) or render_json(doc))
        assert main(["validate", str(path), "--out", str(out), "--quiet"]) == 0
    # the nodes and arms were written from the records
    network = docs[0]["scenario"]["network"]
    assert type(network["nodes"]) is type(network["arms"]) is reports.Rendered
    assert out.read_text() == reference_render_json(plain_envelope(docs[0], path))


def test_a_run_of_records_is_rendered_column_by_column(monkeypatch):
    routes = [
        {
            "arms": [f"a{j}" for j in range(i % 7)],
            "sites": ["A"],
            "amplitude": complex(i, -i),
            "blocked": i % 3 == 0,
        }
        for i in range(1000)
    ]
    calls = []
    render = reports._render

    def counted(value, indent):
        calls.append(type(value))
        return render(value, indent)

    monkeypatch.setattr(reports, "_render", counted)
    assert reports.render_json({"paths": routes}) == reference_render_json({"paths": routes})
    assert len(calls) < 10


def error_of(call, doc):
    with pytest.raises((NonFiniteResultError, TypeError)) as err:
        call(doc)
    return type(err.value), str(err.value)


def test_echo_of_a_non_finite_value_names_it_as_the_plain_document_does():
    # parsing refuses these, but an echo of records built in code still
    # refuses a NaN or an infinity at its place in document order
    sc = parse_scenario(json.dumps(chain_scenario(10)))
    arms = list(sc.network.arms)
    arms[3] = dataclasses.replace(arms[3], static_phase=-np.inf)
    arms[7] = dataclasses.replace(arms[7], transmission=np.nan)
    bad = dataclasses.replace(sc, network=dataclasses.replace(sc.network, arms=tuple(arms)))
    err = error_of(reports.render_json, scenario_echo(bad))
    assert err == error_of(reports.render_json, scenario_doc(bad))
    assert err == (NonFiniteResultError, "the result holds a non-finite value (-inf)")


def test_echo_of_no_records_is_the_plain_document():
    # build_network refuses an empty network, but the echo writes one
    sc = parse_scenario('{"network": {"kind": "custom", "nodes": [], "arms": []}}')
    echo = reports.render_json(scenario_echo(sc))
    assert echo == reports.render_json(scenario_doc(sc))
    assert json.loads(echo)["network"] == {"kind": "custom", "nodes": [], "arms": []}


def bad_records(bad: dict) -> list:
    """Nine same-shaped records; ``bad`` maps (record, key) to a replacement."""
    records = [
        {"id": f"r{i}", "value": complex(i, 1.0), "weight": 0.5 * i, "m": {"re": 1.0, "im": 0.0}}
        for i in range(9)
    ]
    for (i, key), value in bad.items():
        if key == "value.re":
            records[i]["value"] = complex(value, 1.0)
        elif key == "value.im":
            records[i]["value"] = complex(1.0, value)
        elif key == "m":
            records[i]["m"] = value
        else:
            records[i][key] = value
    return records


@pytest.mark.parametrize(
    "bad, expected",
    [
        # the im of record 2 comes before the re of record 5
        ({(2, "value.im"): np.nan, (5, "value.re"): np.inf}, "(nan)"),
        ({(5, "value.re"): np.inf, (2, "value.im"): np.nan}, "(nan)"),
        # a later column of an earlier record comes first
        ({(1, "weight"): -np.inf, (3, "value.re"): np.nan}, "(-inf)"),
        ({(3, "weight"): -np.inf, (1, "value.im"): np.inf}, "(inf)"),
        # nested records
        ({(6, "m"): {"re": 1.0, "im": np.nan}, (7, "value.re"): np.inf}, "(nan)"),
        # a non-string key after a bad float, and before one
        ({(2, "weight"): np.nan, (4, "m"): {1: 2.0}}, "(nan)"),
        ({(4, "weight"): np.nan, (2, "m"): {"re": 1.0, 1: 2.0}}, "non-string report key: 1"),
        # an unserializable value after a bad float
        ({(1, "value.im"): np.inf, (2, "id"): object()}, "(inf)"),
    ],
)
def test_errors_name_the_first_bad_value_in_document_order(bad, expected):
    doc = {"records": bad_records(bad)}
    err = error_of(reports.render_json, doc)
    assert err == error_of(reference_render_json, doc)
    assert err[1].endswith(expected)


def test_dict_run_errors_in_document_order():
    values = {f"s{i}": complex(i, 0.5) for i in range(10)}
    values["s3"] = complex(0.0, np.inf)
    values["s7"] = complex(np.nan, 0.0)
    err = error_of(reports.render_json, {"weak_values": values})
    assert err == error_of(reference_render_json, {"weak_values": values})
    assert err[0] is NonFiniteResultError and err[1].endswith("(inf)")

    keyed = {f"s{i}": complex(i, 0.5) for i in range(10)}
    keyed[7] = complex(1.0, 0.0)
    keyed["s2"] = complex(np.nan, 0.0)
    err = error_of(reports.render_json, {"v": keyed})
    assert err == error_of(reference_render_json, {"v": keyed})
    assert err[1].endswith("(nan)")
    del keyed["s2"]
    assert error_of(reports.render_json, {"v": keyed}) == (TypeError, "non-string report key: 7")


def test_overflowing_column_sum_is_not_an_error():
    records = [{"x": 1e308, "y": -1e308} for _ in range(10)]
    assert reports.render_json({"r": records}) == reference_render_json({"r": records})


def test_power_is_formatted_once_per_cli_call(tmp_path, capsys, monkeypatch):
    powers, formatted = [], []
    spectral_result = reports.spectral_result
    fmt_floats = reports._fmt_floats

    def spy_result(report):
        powers.append(np.array(report.power))
        return spectral_result(report)

    def spy_fmt(values, sep, end):
        formatted.append(np.array(values))
        return fmt_floats(values, sep, end)

    monkeypatch.setattr(reports, "spectral_result", spy_result)
    monkeypatch.setattr(reports, "_fmt_floats", spy_fmt)

    def prints_a_power(values):
        columns = [values] if values.ndim == 1 else list(values.T)
        return any(np.array_equal(c, p) for c in columns for p in powers)

    for command in ("spectrum", "block"):
        powers.clear()
        formatted.clear()
        csv_dir = tmp_path / command
        assert main([command, str(SCENARIOS[-1]), "--csv-dir", str(csv_dir), "--quiet"]) == 0
        capsys.readouterr()
        assert len(powers) == len(list(csv_dir.glob("*spectrum.csv"))) > 0
        # one formatting per power array, shared by the report and spectrum.csv
        assert sum(map(prints_a_power, formatted)) == len(powers)
