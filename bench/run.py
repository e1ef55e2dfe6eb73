"""Benchmark of the genuscenter CLI on exact-centre workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload tube-torus --seed 1 --seconds 25 --trace 0

Each job is one ``genuscenter`` CLI call (``center rank``, ``center
verify-induced`` or ``adjoint check``) in a fresh interpreter, because the
library memoizes catalogs and tube algebras per process and a CLI user pays
the full cost on every call.  Jobs run one at a time, each child with one
BLAS thread.  The seed only shuffles the job order.

A run gives every job an equal share of ``--seconds`` and samples it as
often as its share allows, at least once; a job's time is the median of
its samples.  Job and set-up times are counted in lengths of a fixed probe
computation that each child runs alongside its job (see child.py), and
reported in seconds at a nominal probe length, so that the shared host's
changing speed does not read as a change of the program; the wall times go
to the record.  With ``--trace 1`` it then makes one traced pass and reports
the per-layer metrics instead of the end-to-end ones.  Every output is
compared with ``expected.json`` and every rank with the independent
predictor in ``oracle.py``.  The last line of standard output is one JSON
object; details go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "genuscenter"

TORUS, SPHERE3, ANNULUS = "(1 3)(2 4)", "(1 2)(3 4)", "(1 2)"


def rank(cat, sigma):
    return ("center", "rank", "--cat", cat, "--sigma", sigma, "--json")


def verify(cat, sigma, obj):
    return ("center", "verify-induced", "--cat", cat, "--sigma", sigma, "--object", obj, "--json")


def adjoint(cat, sigma):
    return ("adjoint", "check", "--cat", cat, "--sigma", sigma, "--json")


# Why each workload exists is in README.md.  Each job comes with the wall
# seconds one sample took at the seed (2-core Xeon, spawn included); the
# figure only sets how many samples a run takes, so that the work per run
# stays the same from one version of the program to the next.
WORKLOADS = {
    "tube-torus": [
        (rank("fibonacci", TORUS), 11.9), (rank("ising", TORUS), 4.8),
        (rank("vec_z3_q", TORUS), 0.9),
    ],
    "decompose-sphere": [
        (rank("vec_z3_q", SPHERE3), 22.5), (rank("ising", ANNULUS), 1.8),
        (rank("rep_s3", ANNULUS), 1.3),
    ],
    "verify-torus": [
        (verify("fibonacci", TORUS, "1"), 3.4), (verify("ising", TORUS, "s"), 3.6),
        (verify("rep_s3", TORUS, "1"), 10.5), (verify("vec_z3_q", TORUS, "1"), 0.7),
        (adjoint("vec_z3_q", TORUS), 2.7), (adjoint("rep_z2", TORUS), 0.43),
        (adjoint("rep_s3", ANNULUS), 0.77),
    ],
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOB_TIMEOUT_S = 120.0
RUN_BUDGET_S = 170.0  # the whole run, so that it ends within 180 s

# A nominal length of one probe of child.py (probe_s), near what it takes
# on the machine named in README.md.  A job u probe lengths long is
# reported as u * PROBE_REF_S seconds.
PROBE_REF_S = 0.004

# Per-layer values that combine over jobs by max; all others add up.
MAX_KEYS = {"exactnum.echelon.max_cells", "algebra.decompose.field_order", "spec_cache.entries"}


# -- statistics -------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Sample count, median and (from two samples on) the quartiles."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- jobs -------------------------------------------------------------------


def job_key(argv) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn_job(argv, trace: bool, timeout: float) -> dict:
    """Run one job in a fresh interpreter; returns times, exit and child report."""
    payload = json.dumps({"argv": list(argv), "cat": argv[argv.index("--cat") + 1],
                          "trace": int(trace)})
    read_fd, write_fd = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_CLOSE, read_fd),
               (os.POSIX_SPAWN_CLOSE, write_fd)]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, str(BENCH / "child.py"), payload],
                         child_env(), file_actions=actions)
    os.close(write_fd)
    chunks, timed_out = [], False
    try:
        while True:
            left = spawned + timeout - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if select.select([read_fd], [], [], left)[0]:
                data = os.read(read_fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    result = {"key": job_key(argv), "exit": os.waitstatus_to_exitcode(status),
              "timed_out": timed_out, "wall_s": time.monotonic() - spawned,
              "rss_mb": usage.ru_maxrss / 1024.0}
    lines = b"".join(chunks).decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return result
    result.update(setup_s=report["ready"] - spawned, solve_s=report["solve_s"],
                  cli_exit=report["exit"], stdout=report["stdout"],
                  trace=report.get("trace"), absent=report.get("absent", []))
    if "probe_units" in report:
        # The probe's mean length over the job rates the machine; set-up,
        # just before the job, is rated by it too.
        scale = PROBE_REF_S * report["probe_units"] / report["solve_s"]
        result.update(wall_solve_s=report["solve_s"], wall_setup_s=result["setup_s"],
                      probes=report["probes"], solve_s=scale * report["solve_s"],
                      setup_s=scale * result["setup_s"])
    return result


def check(argv, result: dict, expected: dict) -> list[str]:
    """Problems with one job: exit, output against the table, rank against the oracle."""
    if result["timed_out"]:
        return ["timed out"]
    if result["exit"] != 0 or "stdout" not in result:
        return [f"child exited with {result['exit']} and no report"]
    problems = []
    if result["cli_exit"] != 0:
        problems.append(f"cli exit code {result['cli_exit']}")
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return problems + ["output is not JSON"]
    if doc != expected.get(job_key(argv)):
        problems.append("output differs from the expected table")
    if argv[:2] == ("center", "rank"):
        cat, sigma = argv[argv.index("--cat") + 1], argv[argv.index("--sigma") + 1]
        predicted = oracle.predicted_rank(cat, sigma)
        if doc.get("rank") != predicted:
            problems.append(f"rank {doc.get('rank')} differs from the oracle's {predicted}")
        trace = result.get("trace")
        if trace is not None and not trace.get("trees.apply_coupon.calls"):
            problems.append("no apply_coupon call: the tube algebra came from a warm cache")
    return problems


def run_jobs(jobs, trace: bool, expected: dict, deadline: float) -> list[dict]:
    results = []
    for argv in jobs:
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 0:
            result = {"key": job_key(argv), "problems": ["run budget exhausted"]}
        else:
            result = spawn_job(argv, trace, timeout)
            result["problems"] = check(argv, result, expected)
        results.append(result)
        status = "ok" if not result["problems"] else "; ".join(result["problems"])
        print(f"{'traced ' if trace else ''}{result['key']}: "
              f"{result.get('solve_s', math.nan):.3f} s, {status}", file=sys.stderr)
    return results


def schedule(jobs, seconds: float) -> list:
    """Every job gets an equal share of ``seconds``: share / cost samples, at least one.

    A job's samples are spread evenly over the run, so that each job's
    median sees the whole run and not one stretch of it.  Ties keep the
    given (shuffled) order.
    """
    share = seconds / len(jobs)
    slots = []
    for order, (argv, cost) in enumerate(jobs):
        n = max(1, int(share / cost))
        slots += [((i + 0.5) / n, order, argv) for i in range(n)]
    return [argv for _, _, argv in sorted(slots)]


# -- metrics ----------------------------------------------------------------


def job_times(results: list[dict], field: str = "solve_s") -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for r in results:
        if field in r:
            times.setdefault(r["key"], []).append(r[field])
    return times


def end_to_end(results: list[dict]) -> dict:
    """solve_s and job_geomean_s over per-job medians; setup_s median; peak RSS max.

    A metric with no sample (every job failed) reads 0; the run is then
    incorrect anyway.
    """
    medians = [statistics.median(v) for v in job_times(results).values()]
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    rss = [r["rss_mb"] for r in results if "rss_mb" in r]
    return {
        "solve_s": sum(medians),
        "job_geomean_s": statistics.geometric_mean(medians) if medians else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(rss, default=0.0),
    }


def merge_traces(traces: list[dict]) -> dict:
    merged: dict = {}
    for trace in traces:
        for key, value in trace.items():
            merged[key] = max(merged.get(key, 0), value) if key in MAX_KEYS else (
                merged.get(key, 0) + value)
    return merged


def per_layer(merged: dict, overhead: float) -> dict:
    """Per-layer metrics by name; anything a layer did not record reads 0."""
    attempts = merged.get("algebra.find_idempotents.calls", 0)
    solved = merged.get("algebra.decompose.calls", 0) - merged.get("algebra.decompose.errors", 0)
    derived = {
        "exactnum.matrix_scale.nonzero_ratio": ratio(
            merged.get("exactnum.matrix_scale.nonzero", 0),
            merged.get("exactnum.matrix_scale.entries", 0)),
        "trees.op_map.hit_ratio": ratio(
            merged.get("trees.op_map.hits", 0), merged.get("trees.op_map.calls", 0)),
        "algebra.decompose.attempts": attempts,
        "algebra.decompose.retries": max(0, attempts - solved),
        "trace.overhead_ratio": overhead,
    }
    return {**merged, **derived}


# -- records ----------------------------------------------------------------


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code() -> dict:
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}
    return {"git_commit": git_commit(), "src_lines": lines, "src_lines_total": sum(lines.values())}


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no genuscenter sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())

    load_start = os.getloadavg()[0]
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    jobs = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(jobs)

    untraced = run_jobs(schedule(jobs, args.seconds), False, expected, deadline)
    e2e = end_to_end(untraced)
    traced = []
    absent = set()
    if args.trace:
        traced = run_jobs([argv for argv, _ in jobs], True, expected, deadline)
        traced_solve = sum(r.get("solve_s", 0.0) for r in traced)
        merged = merge_traces([r["trace"] for r in traced if r.get("trace")])
        absent = {name for r in traced for name in r.get("absent", [])}
        wall_solve = sum(statistics.median(v)
                         for v in job_times(untraced, "wall_solve_s").values())
        layers = per_layer(merged, ratio(traced_solve, wall_solve))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    jobs_run = untraced + traced
    failed = sum(1 for r in jobs_run if r["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "code": code(),
        "load_1min": {"start": load_start, "end": os.getloadavg()[0]},
        "wall_s": time.monotonic() - start,
        "job_s": {key: summary(v) for key, v in job_times(untraced).items()},
        "job_wall_s": {key: summary(v)
                       for key, v in job_times(untraced, "wall_solve_s").items()},
        "setup_s": summary([r["setup_s"] for r in jobs_run if "setup_s" in r]),
        "fail_ratio": failed / len(jobs_run),
        "end_to_end": e2e, "metrics": metrics, "absent": sorted(absent),
        "jobs": [{k: v for k, v in r.items() if k not in ("stdout", "trace")} for r in jobs_run],
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if absent:
        print(f"absent from this genuscenter: {sorted(absent)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs_run), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
