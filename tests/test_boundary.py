"""Property: any JSON value at any field of a scenario document ends as a
ScenarioConfig or a ScenarioError, and `hodsim validate` exits 0 or 1."""

import copy
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.cli import main
from hodsim.scenario import ScenarioConfig, ScenarioError, default_document, parse_scenario


def _paths(node, prefix=()):
    """Every key path of a document, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


DEFAULT = default_document()
PATHS = list(_paths(DEFAULT))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _substituted(path, value) -> dict:
    doc = copy.deepcopy(DEFAULT)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PATHS), json_values)
def test_any_value_parses_or_raises_scenario_error(path, value):
    try:
        config = parse_scenario(_substituted(path, value))
    except ScenarioError:
        return
    assert isinstance(config, ScenarioConfig)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PATHS), json_values)
def test_validate_exits_zero_or_one(path, value):
    fd, name = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(_substituted(path, value), fh)
        assert main(["validate", "--config", name]) in (0, 1)
    finally:
        os.unlink(name)
