"""Run one genuscenter CLI job in this (fresh) interpreter and report it.

Usage: python3 bench/child.py '{"argv": [...], "cat": "fibonacci", "trace": 0}'

Set-up is the import of genuscenter and the build of the job's catalog;
it ends at ``ready`` (time.monotonic, comparable with the parent's clock).
The job is one call of ``genuscenter.cli.main``; its standard output is
captured and returned.  The last line printed is one JSON object.

An untraced job also measures the speed of the machine while it runs: a
fixed probe computation (``probe_s``) runs when the job starts, every
``PROBE_EVERY_S`` seconds from a timer signal, and when it ends.  Each
stretch of job time is divided by the probe time that ends it, and the
sum is reported as ``probe_units``: the job's length in probe lengths,
which a shared host's changing speed moves far less than wall time.
``solve_s`` is the job's wall time without the probes.
"""

import contextlib
import gc
import io
import json
import signal
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.05
PROBE_N = 32


def probe_s() -> float:
    """Wall seconds of a fixed exact computation that uses no genuscenter code.

    The sum of all products of n small rationals: interpreter-bound work on
    small ``Fraction`` values, the kind the program's exact arithmetic
    does.  The collector is off meanwhile, so that the probe never pays
    for a collection of the job's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    terms = [Fraction(1, k + 2) for k in range(PROBE_N)]
    total = Fraction(0)
    for x in terms:
        for y in terms:
            total += x * y
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class SpeedMeter:
    """Cuts the job into stretches, each ended by a probe (see module doc)."""

    def __init__(self):
        self.job_s = 0.0
        self.units = 0.0
        self.probes = 0
        self.mark = 0.0
        self.handler = None

    def start(self) -> None:
        probe_s()  # warm the probe's code and data
        self.sample()
        self.handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self.sample()

    def sample(self, *_) -> None:
        stretch = time.perf_counter() - self.mark if self.probes else 0.0
        probe = probe_s()
        self.job_s += stretch
        self.units += stretch / probe
        self.probes += 1
        self.mark = time.perf_counter()


def main() -> None:
    job = json.loads(sys.argv[1])
    from genuscenter import catalog, cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    spec = catalog.builtin(job["cat"])
    ready = time.monotonic()

    out = io.StringIO()
    meter = None if tracer else SpeedMeter()
    if meter:
        meter.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(job["argv"])
    solve_s = time.perf_counter() - start
    report = {"ready": ready, "solve_s": solve_s, "exit": code, "stdout": out.getvalue()}
    if meter:
        meter.stop()
        report.update(solve_s=meter.job_s, probe_units=meter.units, probes=meter.probes)
    if tracer is not None:
        tracer.values["spec_cache.entries"] = len(getattr(spec, "_cache", ()))
        report["trace"] = dict(tracer.values)
        report["absent"] = sorted(tracer.absent)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
