"""Hostile numbers in every command's input and in every output before
``verify``: each run exits 0, 1 or 2 with one JSON document on stdout and
nothing on stderr (a warning is an error here), and a document of exit 0
or 1 meets its command's output schema."""
import contextlib
import copy
import functools
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from test_cli import ALL_RUNS
from tracezero.cli import run_from_args
from tracezero.schemas import validate

EXTREMES = [1.797e308, -1.797e308, 8e307, 1e308, 1e154, 5e-324, 10 ** 400, 2 ** 1023, 2 ** 63,
            -0.0, math.inf, math.nan]


def _numeric_paths(node, path=()):
    """The paths of the numbers in a JSON tree, booleans left out."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_paths(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _mutated(data, doc):
    """A copy of ``doc`` with one to four of its numbers set to extremes;
    ``json.dumps`` writes inf and nan as the Infinity and NaN tokens."""
    doc = copy.deepcopy(doc)
    paths = list(_numeric_paths(doc))
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4,
                                   unique=True)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(EXTREMES))
    return doc


def _refuse(token):
    raise AssertionError(f"non-JSON token {token} in stdout")


def _run(command, flags, doc):
    """(exit code, output document) of one in-process run, which must exit
    0, 1 or 2, write strict JSON and nothing on stderr."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code, text = run_from_args([command, *flags], stdin_text=json.dumps(doc))
    assert stderr.getvalue() == ""
    assert code in (0, 1, 2)
    out = json.loads(text, parse_constant=_refuse)
    if code != 2:
        validate(out, command, output=True)
    return code, out


@functools.cache
def _clean_output(index):
    command, make_doc, flags = ALL_RUNS[index]
    code, out = _run(command, flags, make_doc())
    assert code == 0
    return out


@pytest.mark.parametrize("index", range(len(ALL_RUNS)), ids=[c for c, _, _ in ALL_RUNS])
@seed(20240)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_extreme_numbers_exit_0_1_or_2_with_one_document(index, data):
    command, make_doc, flags = ALL_RUNS[index]
    outputs = [_clean_output(index)]
    code, out = _run(command, flags, _mutated(data, make_doc()))
    if code != 2:
        outputs.append(out)
    for out in outputs:
        _run("verify", (), _mutated(data, out))
