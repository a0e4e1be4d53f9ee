"""The bulk report emitter against the per-value reference in conftest."""

import re
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_csv, reference_render_json
from weaktrace import reports
from weaktrace.cli import main
from weaktrace.errors import NonFiniteResultError

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
    main(argv)
    capsys.readouterr()

    # a report or an error document, always exactly one
    assert len(docs) == 1
    doc, text = docs[0]
    assert text == reference_render_json(doc)
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
