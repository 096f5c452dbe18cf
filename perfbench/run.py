#!/usr/bin/env python3
"""tempnet benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload snap-large --seed 1 --seconds 40 --trace 0

The program under test is the ``tempnet`` package in ``src/`` of the same
checkout.  The run generates the workload's traces from ``--seed`` (the
set-up), then repeats passes over the workload's job list in this process
until ``--seconds`` is used up (at least one pass), then checks every
output.  Times are host-normalised (see ``calibrate``), and each job's time
is its median over the passes.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that have every public ``tempnet`` function
wrapped (see spans.py), and reports the per-layer metrics; the spans of the
reported pass are written to ``perfbench/.work/<workload>/``.

On the default seed every job's output must also match the SHA-256 digest
recorded in digests.json from the seed commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SETUP_REPS = 4  # set-ups before the first pass; one more before each pass
CALIB_EVERY = 0.01  # s of jobs between two calibrations inside a pass
# The calibration loop's time on the reference host (a 2.1 GHz Xeon running
# Python 3.11.7) at its fastest: normalised times are in its seconds.
CALIB_REF = 0.0007
# CPU seconds a fresh interpreter takes to start there (see SetupTimer).
START_REF = 0.040

# Query-group times and job-latency percentiles come from the trace run's
# untraced passes: some groups are absent from some workloads, so they
# cannot be end-to-end metrics, which must be non-zero on every workload.
GROUP_METRICS = ("closure", "windows", "params", "foremost", "fastest", "search",
                 "classify", "sim", "convert")


def calibrate() -> float:
    """Time a fixed pure-Python loop, to read the host's current speed.

    On a shared host the speed of this process changes by up to 2x within
    seconds, as other tenants come and go, and a whole run can fall in a
    slow phase.  The loop runs between jobs; each job's time is divided by
    the mean of the loop times just before and just after it, and multiplied
    by CALIB_REF.  The ratio holds within a few percent across phases where
    raw times differ by 2x.  The loop uses no ``tempnet`` code, so a change
    to the program moves normalised times as much as raw ones.
    """
    t0 = time.perf_counter()
    table, total = {}, 0
    for i in range(3000):
        k = (i * 7919) % 211
        table[k] = table.get(k, 0) + i
        total += len(str(i))
    return time.perf_counter() - t0


def normalise(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * CALIB_REF / (before + after)


@dataclass
class Pass:
    times: list[float]  # raw
    norm: list[float]  # host-normalised
    calibrations: list[float]
    bounds: list[tuple[float, float]]  # (start, end) of each job
    failures: dict[str, str]
    digests: list[str]
    spans: list
    # outputs for the cross-checks, kept for the first pass only
    texts: list[str] | None = None
    results: list | None = None

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(wl, tracer_cls=None, keep=False) -> Pass:
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install()
    times, bounds, results = [], [], []
    cal, cal_at = [calibrate()], []
    clock = time.perf_counter
    last = clock()
    try:
        for job in wl.jobs:
            if clock() - last > CALIB_EVERY:
                cal.append(calibrate())
                last = clock()
            cal_at.append(len(cal) - 1)
            t0 = clock()
            try:
                result = job.call()
            except Exception as exc:  # a job that raises is a failed job
                result = exc
            t1 = clock()
            times.append(t1 - t0)
            bounds.append((t0, t1))
            results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cal.append(calibrate())
    norm = [normalise(t, cal[i], cal[i + 1]) for t, i in zip(times, cal_at)]
    failures, texts = {}, []
    for job, result in zip(wl.jobs, results):
        if isinstance(result, Exception):
            failures[job.name] = "".join(traceback.format_exception(result)).strip()
            texts.append("")
            continue
        if isinstance(result, workloads.CliResult) and result.problem():
            failures[job.name] = result.problem()
        texts.append(job.render(result))
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    p = Pass(times, norm, cal, bounds, failures, digests, tracer.spans if tracer else [])
    if keep:
        p.texts, p.results = texts, results
    return p


def run_passes(wl, seconds: float, tracers=(None,), between=None) -> list[Pass]:
    """Passes over the job list until ``seconds`` would be overrun.

    Pass k runs under ``tracers[k % len(tracers)]`` (None: untraced), and
    every tracer gets at least one pass, so traced and untraced passes
    alternate and see the same machine.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if between is not None:
            between()
        t0 = time.perf_counter()
        tracer_cls = tracers[len(passes) % len(tracers)]
        passes.append(run_pass(wl, tracer_cls, keep=not passes))
        overrun = time.perf_counter() - start + (time.perf_counter() - t0) > seconds
        if overrun and len(passes) >= len(tracers):
            return passes


class SetupTimer:
    """Times the set-up: trace generation plus a fresh interpreter's import.

    Samples are spread over the run (one before each pass), and the run
    reports their median.  Generation runs in this process and is
    normalised by ``calibrate``.  ``import tempnet.cli`` is timed in CPU
    seconds inside the fresh interpreter and normalised by that
    interpreter's own start-up CPU time, times START_REF.  Start-up and
    import are the same kind of work (reading and running module code), on
    the same CPU at the same moment: their ratio held within 3% over
    phases in which the import's time moved 15%, while dividing by the
    calibration loop, which slows more than imports on a busy host, spread
    it 25%.
    """

    def __init__(self, builder, seed, work, scale):
        self._build = lambda: builder(seed, work, scale)
        self._import = [sys.executable, "-c", (
            "import time; started = time.process_time(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import tempnet.cli; "
            "print(started, time.process_time() - started)")]
        self.samples: list[float] = []

    def sample(self):
        before = calibrate()
        t0 = time.perf_counter()
        wl = self._build()
        generate = normalise(time.perf_counter() - t0, before, calibrate())
        out = subprocess.run(self._import, check=True, timeout=120, cwd=ROOT,
                             capture_output=True, text=True).stdout
        started, imported = map(float, out.split())
        self.samples.append(generate + imported * START_REF / started)
        return wl


def job_median(passes, raw=False) -> list[float]:
    """Each job's median time over the passes, host-normalised unless ``raw``."""
    return [statistics.median(times)
            for times in zip(*(p.times if raw else p.norm for p in passes))]


def percentile_ms(times, q) -> float:
    return statistics.quantiles([t * 1000 for t in times], n=100, method="inclusive")[q - 1]


def group_s(wl, times, group: str) -> float:
    return sum(t for t, job in zip(times, wl.jobs) if job.group == group)


def find_failures(wl, passes, scale, checks, digests: bool) -> dict[str, str]:
    first = passes[0]
    failed: dict[str, str] = {}
    for k, p in enumerate(passes):
        for i, job in enumerate(wl.jobs):
            key = job.name if k == 0 else f"{job.name}#pass{k}"
            problem = p.failures.get(job.name)
            if problem is None and p.digests[i] != first.digests[i]:
                problem = "output differs from the first pass"
            if problem:
                failed[key] = problem
    if digests:
        recorded = json.loads(DIGESTS.read_text()).get(scale, {}).get(wl.name)
        if recorded is None:
            failed["digests"] = f"no digests recorded for {scale}/{wl.name}"
        else:
            for job, digest in zip(wl.jobs, first.digests):
                if recorded.get(job.name) != digest:
                    failed.setdefault(job.name, "output digest differs from the seed commit")
    if not any(job.name in failed for job in wl.jobs):
        out = {job.name: text for job, text in zip(wl.jobs, first.texts)}
        res = {job.name: r for job, r in zip(wl.jobs, first.results)}
        for name, problem in checks.CHECKS[wl.name](wl, out, res).items():
            failed.setdefault(name, problem)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "tempnet" / "__init__.py").is_file():
        print(f"perfbench: no tempnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tempnet.cli  # noqa: F401  (import before timing set-up)
    import checks

    base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup = SetupTimer(workloads.BUILDERS[args.workload], args.seed, work, args.scale)
    wl = setup.sample()

    metrics: dict[str, tuple[float, str]] = {}
    reasons: dict[str, str] = {}
    problems: list[str] = []
    if args.trace == 0:
        for _ in range(SETUP_REPS - 1):
            setup.sample()
        passes = run_passes(wl, args.seconds, between=setup.sample)
        # before the checks, which compute the answers a second time
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (sum(job_median(passes)), "s"),
            "setup_s": (statistics.median(setup.samples), "s"),
            "peak_rss_mib": (rss, "MiB"),
            "run_rss_mib": (rss - base_rss, "MiB"),
        }
    else:
        passes = run_passes(wl, args.seconds, tracers=(None, spans.Tracer))
        plain, traced = passes[0::2], passes[1::2]
        times = job_median(plain)
        chosen = min(traced, key=lambda p: p.wall)
        values, reasons, problems = spans.layer_metrics(chosen.spans, chosen.bounds)
        values["trace.overhead_ratio"] = sum(job_median(traced)) / sum(times)
        values["wall_raw_s"] = sum(job_median(plain, raw=True))
        values["host.slowdown_ratio"] = statistics.median(
            c for p in passes for c in p.calibrations) / CALIB_REF
        values["job_p50_ms"] = percentile_ms(times, 50)
        values["job_p95_ms"] = percentile_ms(times, 95)
        for group in GROUP_METRICS:
            values[f"{group}_s"] = group_s(wl, times, group)
            if not any(job.group == group for job in wl.jobs):
                reasons[f"{group}_s"] = f"the workload has no {group} job"
        metrics = {name: (value, spans.unit(name)) for name, value in values.items()}
        spans.write_spans(chosen.spans, work / "spans.jsonl")

    failed = find_failures(wl, passes, args.scale, checks, args.seed == DEFAULT_SEED)
    for problem in problems:
        failed[f"trace: {problem}"] = problem

    attempted = len(wl.jobs) * len(passes)
    log = sys.stderr
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}: "
          f"{len(passes)} passes x {len(wl.jobs)} jobs, {len(failed)} failed "
          f"(failed_ratio {len(failed) / attempted:.4g})", file=log)
    for name, (value, unit) in metrics.items():
        note = f"  n/a: {reasons[name]}" if name in reasons else ""
        print(f"{name:45s} {value:14.6g} {unit}{note}", file=log)
    for name, problem in list(failed.items())[:20]:
        print(f"FAILED {name}: {problem}", file=log)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
