"""Mutated scenario documents end with a documented exit code.

Each example takes one document from ``scenarios/``, replaces one of its
values (or deletes it), and runs the subcommand that matches the
document's experiment.  Whatever the input, the CLI must exit 0, 2, 3 or
4, and a non-zero exit must leave one JSON error document on stderr.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktrace.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SUBCOMMAND = {
    None: "validate",
    "paths": "paths",
    "weak_values": "weak",
    "pointer": "pointer",
    "spectral": "spectrum",
    "blocking": "block",
}

DELETE = object()
MUTATIONS = (None, True, -1, 0, 2, 1.5, "x", [], {}, 1e308, -1e308, 1e-300, DELETE)


def locations(value, path=()):
    """Key paths of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from locations(item, path + (key,))


DOCS = {f.stem: json.loads(f.read_text()) for f in sorted(SCENARIOS.glob("*.json"))}
SITES = [(name, loc) for name, doc in DOCS.items() for loc in locations(doc)]


def mutated(name, loc, mutation):
    doc = copy.deepcopy(DOCS[name])
    parent = doc
    for key in loc[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[loc[-1]]
    else:
        parent[loc[-1]] = mutation
    return doc


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(SITES), mutation=st.sampled_from(MUTATIONS))
# a huge pointer width overflowed sigma**2
@example(site=("pointer_site_b", ("experiment", "sigma")), mutation=1e308)
# a tiny one made 8 * sigma**2 zero and the overlap a division by zero
@example(site=("spectral_noisy", ("experiment", "sigma")), mutation=1e-300)
# a huge arm modulation depth made the spectrum NaN at render time
@example(site=("custom_mzi", ("network", "arms", 1, "modulation", "delta")), mutation=1e308)
def test_mutated_scenario_exits_with_documented_code(scenario_path, site, mutation):
    name, loc = site
    command = SUBCOMMAND[(DOCS[name].get("experiment") or {}).get("kind")]
    scenario_path.write_text(json.dumps(mutated(name, loc, mutation)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(scenario_path)])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert out.getvalue() == ""
        doc = json.loads(err.getvalue())
        assert sorted(doc) == ["error", "message"]
