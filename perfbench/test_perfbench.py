"""Tests of the benchmark's own parts: checkers, tracer, metric names.

Run from the repository root:  python3 -m pytest -q perfbench
Each checker must accept the program's real output and reject a tampered
copy: one matrix entry flipped, or the verdict negated.
"""
import copy
import gc
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracezero import cli  # noqa: E402


def outputs(requests):
    """Run each request; assert the expected exit code; return parsed outputs."""
    docs = []
    for req in requests:
        code, text = cli.run_from_args(list(req.argv), req.stdin)
        assert code == req.code, text[:500]
        docs.append(json.loads(text))
    return docs


def flip_largest(matrix_doc):
    """Negate the largest-magnitude real or imaginary part of one entry."""
    entries = matrix_doc["entries"]
    i, j, k = max(itertools.product(range(len(entries)), range(len(entries)), range(2)),
                  key=lambda ijk: abs(entries[ijk[0]][ijk[1]][ijk[2]]))
    entries[i][j][k] = -entries[i][j][k]


def assert_rejects(check, doc):
    with pytest.raises(checks.CheckFailed):
        check(doc)


def test_permanent_matches_the_definition():
    rng = np.random.default_rng(0)
    for n in range(0, 7):
        m = rng.integers(-2, 3, (n, n)).tolist()
        brute = sum(int(np.prod([m[i][p[i]] for i in range(n)])) for p in itertools.permutations(range(n)))
        assert checks.permanent(m) == brute


def test_decompose_checker_and_error_documents():
    requests = workloads.matrix_io(np.random.default_rng(1), cli.run_from_args, n=12, pool=8)
    docs = outputs(requests)
    for req, doc in zip(requests, docs):
        req.check(doc)
    assert [req.code for req in requests].count(2) == 1
    good = copy.deepcopy(docs[0])
    flip_largest(good["result"]["factors"][0]["x"])
    assert_rejects(requests[0].check, good)
    wrong_path = dict(docs[7], path="$.entries[0][0][0]")
    assert_rejects(requests[7].check, wrong_path)


def test_fack_run_checker():
    [req] = workloads.tower_deep(np.random.default_rng(2), cli.run_from_args,
                                 blocks=3, rank=4, depth=2, pool=1)
    [doc] = outputs([req])
    req.check(doc)
    tampered = copy.deepcopy(doc)
    flip_largest(tampered["result"]["factors"][0]["y"])
    assert_rejects(req.check, tampered)


def test_decompose_field_checker():
    [req] = workloads.field_refine(np.random.default_rng(3), cli.run_from_args, refine=1, pool=1)
    [doc] = outputs([req])
    req.check(doc)
    tampered = copy.deepcopy(doc)
    flip_largest(tampered["result"]["factors"][0]["entries"][0]["x"])
    assert_rejects(req.check, tampered)


def test_verify_checker():
    [req] = workloads.verify_matrix(np.random.default_rng(4), cli.run_from_args, n=10, pool=1)
    [doc] = outputs([req])
    req.check(doc)
    tampered = copy.deepcopy(doc)
    tampered["result"]["verified"] = not tampered["result"]["verified"]
    assert_rejects(req.check, tampered)


def test_obstruct_checker():
    requests = workloads.obstruct_exact(np.random.default_rng(5), cli.run_from_args,
                                        variables=6, pool=2)
    for req, doc in zip(requests, outputs(requests)):
        req.check(doc)
        tampered = copy.deepcopy(doc)
        tampered["result"]["verdict"] = not tampered["result"]["verdict"]
        assert_rejects(req.check, tampered)
        if doc["result"]["euler_class"]:
            [key] = doc["result"]["euler_class"]
            doc["result"]["euler_class"][key] += 1
            assert_rejects(req.check, doc)


def test_tracer_counts_outermost_calls_and_restores_bindings():
    [req] = workloads.verify_matrix(np.random.default_rng(6), cli.run_from_args, n=6, pool=1)
    untraced = cli.run_from_args(list(req.argv), req.stdin)
    original = cli.compare_json
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = tracer.wrap(layertrace.ROOT, cli.run_from_args)(list(req.argv), req.stdin)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert cli.compare_json is original
    assert tracer.absent == []
    metrics = tracer.per_document(1)
    assert metrics["cli.compare_json.calls"] == 1  # recursion is not counted
    assert metrics["schemas.validate.calls"] == 2  # the verify input and the re-run input
    assert metrics["matcore.operator_norm.calls"] > 0
    assert metrics["cli.self_ms"] > 0


def test_tracer_reports_missing_functions_as_absent():
    tracer = layertrace.Tracer({"selfcomm": ("no_such_function", "signed_order"),
                                "no_such_layer": ("f",)})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["selfcomm.no_such_function", "no_such_layer.f"]
    assert tracer.per_document(1)["selfcomm.no_such_function.calls"] == 0


def test_tail_percentile_keeps_ten_samples_above():
    assert bench.tail(list(range(25))) == (14, 60.0, 10)
    assert bench.tail(list(range(21))) == (10, 52.38095238095238, 10)
    assert bench.tail([6.0, 1.0, 5.0, 2.0, 4.0, 3.0]) == (5.0, 83.33333333333333, 1)
    assert bench.tail([7.0]) == (7.0, 100.0, 0)


def test_yardstick_scales_to_the_reference_pace():
    assert hostspeed.yardstick() > 0
    assert gc.isenabled()  # paused only while the yardstick runs
    assert hostspeed.at_reference(0.5, 2 * hostspeed.REFERENCE_S) == 0.25


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"latency_ms_p50", "latency_ms_tail", "docs_per_s", "peak_rss_mb", "setup_s"}
    layer = {m["name"] for m in spec["per_layer"]}
    traced = set(layertrace.Tracer().per_document(1))
    assert layer == traced | {"cli.bytes_in", "cli.bytes_out", "trace.overhead_ratio"}
