"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def _captured(command):
    """A stored warm-cli request of the given command, JSON format."""
    args = next(a for a in wl.cli_catalog()
                if a[0] == command and a[-1] == "json")
    return wl.request_key(args), json.loads(worker._cli_call(args))


def test_changing_one_coefficient_flips_the_verdict():
    key, doc = _captured("inv")
    good = worker.Checker(wl.load_digests())
    good.check(key, doc)
    assert (good.failed, good.mismatches) == (0, [])

    bad_doc = copy.deepcopy(doc)
    bad_doc["terms"][0]["coeff"]["num"] += 1
    bad = worker.Checker(wl.load_digests())
    bad.check(key, bad_doc)
    assert (bad.failed, bad.mismatches) == (1, [key])


def test_a_failed_suite_case_flips_the_report_digest():
    verify = importlib.import_module("lihopf.verify")
    rep = verify.run_suite("golden")
    doc = wl.report_doc([rep])
    rep.failures.append("golden: law violated")
    assert wl.digest(wl.report_doc([rep])) != wl.digest(doc)


def test_every_seed_draws_from_the_stored_catalog():
    stored = wl.load_digests()
    for seed in range(20):
        for args in wl.cli_mix(seed):
            assert wl.request_key(args) in stored
        for key, _, _, _ in wl.ladder_rungs(seed):
            assert key in stored
    assert "verify-all report" in stored


def test_differing_counts_are_reported():
    a = {"algebra.Element.mul.calls": 62564, "trace.spans": 10}
    assert run.count_diff(a, dict(a)) == []
    b = dict(a, **{"algebra.Element.mul.calls": 62565})
    assert run.count_diff(a, b) == [
        "algebra.Element.mul.calls 62564 != 62565"]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_tracer_reaches_names_bound_at_import():
    from tracer import Tracer
    verify = importlib.import_module("lihopf.verify")
    variation = importlib.import_module("lihopf.variation")
    original = verify.build_V
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.build_V is not original
        assert verify.build_V is variation.build_V
        verify.build_V((3, 1), variation.H)
        counts = tracer.counts()
        assert counts["variation.build_V.calls"] == 1
        assert counts["algebra.Element.mul.calls"] > 0
        assert tracer.spans and all(end >= start for _, _, _, start, end
                                    in tracer.spans)
    finally:
        tracer.uninstall()
    assert verify.build_V is original


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
