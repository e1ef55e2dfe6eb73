"""Fast tests of the benchmark's oracle, checker and statistics.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
Z2, S3 = oracle.CATALOGS["rep_z2"][1], oracle.CATALOGS["rep_s3"][1]


# -- oracle -----------------------------------------------------------------


@pytest.mark.parametrize("group, n, count", [(Z2, 1, 4), (Z2, 2, 8), (S3, 1, 8), (S3, 2, 24)])
def test_dijkgraaf_witten_counts(group, n, count):
    assert oracle.dijkgraaf_witten(group, n) == count


@pytest.mark.parametrize("sigma, surface", [
    ("(1 2)", (0, 2)), ("(1 3)(2 4)", (1, 1)), ("(1 2)(3 4)", (0, 3)), ("(1 4)(2 3)", (0, 3)),
    ("(1 3)(2 4)(5 7)(6 8)", (2, 1)), ("", (0, 1)),
])
def test_surface(sigma, surface):
    assert oracle.surface(sigma) == surface


@pytest.mark.parametrize("cat, sigma, rank", [
    ("fibonacci", "(1 3)(2 4)", 2), ("ising", "(1 3)(2 4)", 3), ("ising", "(1 2)", 9),
    ("vec_z3_q", "(1 2)(3 4)", 27), ("semion", "(1 2)(3 4)", 8), ("rep_s3", "(1 3)(2 4)", 24),
    ("vec_z2", "(1 2)", 4),
])
def test_predicted_rank(cat, sigma, rank):
    assert oracle.predicted_rank(cat, sigma) == rank


@pytest.mark.parametrize("text", ["(1 1)", "(1 3)", "(1 2)(2 3)"])
def test_parse_sigma_rejects_non_involutions(text):
    with pytest.raises(ValueError):
        oracle.parse_sigma(text)


def test_pinned_ranks_match_the_oracle():
    ranks = [(argv, EXPECTED[run.job_key(argv)]) for jobs in run.WORKLOADS.values()
             for argv, _ in jobs if argv[:2] == ("center", "rank")]
    assert len(ranks) == 6
    for argv, doc in ranks:
        assert doc["rank"] == oracle.predicted_rank(argv[3], argv[5])
        assert sum(d * d for d in doc["block_dims"]) == doc["total_dim"]


# -- checker ----------------------------------------------------------------


def _result(argv, doc, trace=None):
    return {"key": run.job_key(argv), "exit": 0, "timed_out": False, "cli_exit": 0,
            "stdout": json.dumps(doc), "trace": trace}


RANK_JOB = run.rank("fibonacci", run.TORUS)
VERIFY_JOB = run.verify("ising", run.TORUS, "s")


def test_checker_accepts_the_pinned_outputs():
    for jobs in run.WORKLOADS.values():
        for argv, _ in jobs:
            assert run.check(argv, _result(argv, EXPECTED[run.job_key(argv)]), EXPECTED) == []


@pytest.mark.parametrize("field, value", [("rank", 3), ("block_dims", [3, 3]), ("total_dim", 24)])
def test_checker_flags_a_perturbed_rank_output(field, value):
    doc = dict(EXPECTED[run.job_key(RANK_JOB)], **{field: value})
    assert run.check(RANK_JOB, _result(RANK_JOB, doc), EXPECTED)


def test_checker_flags_a_rank_that_disagrees_with_the_oracle():
    key = run.job_key(RANK_JOB)
    doc = dict(EXPECTED[key], rank=5)
    problems = run.check(RANK_JOB, _result(RANK_JOB, doc), {key: doc})
    assert problems == ["rank 5 differs from the oracle's 2"]


def test_checker_flags_a_failed_verdict_and_exit_codes():
    doc = dict(EXPECTED[run.job_key(VERIFY_JOB)], verify=["hexagon fails"])
    assert run.check(VERIFY_JOB, _result(VERIFY_JOB, doc), EXPECTED)
    good = _result(VERIFY_JOB, EXPECTED[run.job_key(VERIFY_JOB)])
    assert run.check(VERIFY_JOB, dict(good, cli_exit=1), EXPECTED) == ["cli exit code 1"]
    assert run.check(VERIFY_JOB, {"exit": 1, "timed_out": False}, EXPECTED)
    assert run.check(VERIFY_JOB, {"exit": -9, "timed_out": True}, EXPECTED) == ["timed out"]


def test_memo_guard_fails_a_rank_job_without_coupon_work():
    doc = EXPECTED[run.job_key(RANK_JOB)]
    assert run.check(RANK_JOB, _result(RANK_JOB, doc, {"trees.apply_coupon.calls": 0}), EXPECTED)
    assert not run.check(RANK_JOB, _result(RANK_JOB, doc, {"trees.apply_coupon.calls": 4}),
                         EXPECTED)


# -- statistics and aggregation -------------------------------------------


def test_summary():
    assert run.summary([3.0]) == {"n": 1, "median": 3.0}
    values = [4.0, 1.0, 3.0, 2.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.summary(values) == {"n": 5, "median": 3.0, "q1": q1, "q3": q3}
    assert (q1, q3) == (1.5, 7.0)


def test_schedule_shares_the_seconds_and_spreads_samples():
    jobs = [("heavy", 12.0), ("mid", 4.0), ("cheap", 1.0)]
    order = run.schedule(jobs, 30.0)
    assert [order.count(j) for j, _ in jobs] == [1, 2, 10]
    assert order.index("mid") < order.index("heavy") < len(order) - 1 - order[::-1].index("mid")
    assert order[0] == order[-1] == "cheap"


def test_end_to_end_uses_per_job_medians():
    a, b = run.rank("ising", "(1 2)"), run.rank("rep_s3", "(1 2)")
    results = [
        {"key": run.job_key(a), "solve_s": 1.0, "setup_s": 0.2, "rss_mb": 40.0},
        {"key": run.job_key(b), "solve_s": 4.0, "setup_s": 0.3, "rss_mb": 45.0},
        {"key": run.job_key(a), "solve_s": 3.0, "setup_s": 0.4, "rss_mb": 41.0},
        {"key": run.job_key(a), "solve_s": 2.0, "setup_s": 0.1, "rss_mb": 43.0},
        {"key": run.job_key(b), "problems": ["timed out"]},
    ]
    assert run.job_times(results) == {run.job_key(a): [1.0, 3.0, 2.0], run.job_key(b): [4.0]}
    assert run.end_to_end(results) == pytest.approx(
        {"solve_s": 6.0, "job_geomean_s": math.sqrt(8.0), "setup_s": 0.25, "peak_rss_mb": 45.0})


def test_speed_meter_counts_job_time_in_probe_lengths(monkeypatch):
    monkeypatch.setattr(child, "probe_s", lambda: 0.01)
    meter = child.SpeedMeter()
    meter.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.3:
        pass
    meter.stop()
    assert meter.probes >= 4
    assert meter.job_s == pytest.approx(0.3, rel=0.2)
    assert meter.units == pytest.approx(meter.job_s / 0.01)


def test_metered_job_reports_wall_and_probe_scaled_times():
    result = run.spawn_job(run.rank("vec_z2", "(1 2)"), False, 60.0)
    assert result["exit"] == 0 and result["probes"] >= 2
    assert result["solve_s"] / result["wall_solve_s"] == pytest.approx(
        result["setup_s"] / result["wall_setup_s"])


def test_merge_and_per_layer():
    merged = run.merge_traces([
        {"trees.op_map.calls": 4, "trees.op_map.hits": 3, "exactnum.echelon.max_cells": 12,
         "algebra.find_idempotents.calls": 3, "algebra.decompose.calls": 1},
        {"trees.op_map.calls": 6, "trees.op_map.hits": 2, "exactnum.echelon.max_cells": 9},
    ])
    assert merged["trees.op_map.calls"] == 10
    assert merged["exactnum.echelon.max_cells"] == 12
    layers = run.per_layer(merged, 1.25)
    assert layers["trees.op_map.hit_ratio"] == 0.5
    assert layers["algebra.decompose.attempts"] == 3
    assert layers["algebra.decompose.retries"] == 2
    assert layers["exactnum.matrix_scale.nonzero_ratio"] == 0.0
    assert layers["trace.overhead_ratio"] == 1.25


# -- tracer -----------------------------------------------------------------


def test_self_times_partition_a_span():
    t = tracer.Tracer()
    scalar = t._wrap(lambda: sum(range(1000)), tracer.SCALAR, "exactnum.cyc_mul", None, None)
    inner = t._wrap(lambda: scalar() + scalar(), tracer.SPAN, "inner", None, None)
    outer = t._wrap(lambda: inner() + scalar(), tracer.SPAN, "outer", None, None)
    outer()
    v = t.values
    assert (v["outer.calls"], v["inner.calls"], v["exactnum.cyc_mul.calls"]) == (1, 1, 3)
    assert v["outer.s"] == pytest.approx(
        v["outer.self_s"] + v["inner.self_s"] + v["exactnum.cyc.self_s"], abs=1e-12)


def test_tracer_reports_removed_names_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    monkeypatch.setattr(tracer, "TARGETS", [
        ("trees", "Morphism.no_such_method", tracer.SPAN, "a", None, None),
        ("algebra", "_no_such_function", tracer.SPAN, "b", None, None),
        ("no_such_module", "f", tracer.COUNT, "c", None, None),
    ])
    t = tracer.Tracer()
    t.install()
    assert t.absent == {"trees.Morphism.no_such_method", "algebra._no_such_function",
                        "no_such_module.f"}


# -- the benchmark as a whole ------------------------------------------------


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(EXPECTED) == {run.job_key(a) for jobs in run.WORKLOADS.values() for a, _ in jobs}
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_traced_child_reports_every_layer():
    argv = run.rank("vec_z2", "(1 2)")
    result = run.spawn_job(argv, True, 60.0)
    assert result["exit"] == 0 and result["absent"] == []
    assert result["cli_exit"] == 0 and json.loads(result["stdout"])["rank"] == 4
    trace = result["trace"]
    assert trace["trees.apply_coupon.calls"] > 0
    assert trace["center.tube_algebra.dim"] == 4
    layers = run.per_layer(run.merge_traces([trace]), 1.0)
    derived = set(run.per_layer({}, 1.0))
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in derived or name.startswith(("center.create", "center.apply_gamma",
                                                "center.verify", "center.project",
                                                "trees.compose", "exactnum.matmul")):
            continue
        assert name in layers, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tube-torus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
