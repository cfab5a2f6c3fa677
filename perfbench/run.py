"""The cohomix benchmark: one workload, timed and checked, or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark imports cohomix from the
checkout's src/ and the test oracles from tests/oracles.py; without them it
exits with code 2 and prints no result.

One client runs one job at a time (a closed loop).  A pass runs the
workload's whole job list once, and passes repeat until --seconds have
elapsed.  Jobs are timed in CPU seconds, their children's included.  With
--trace 0 a fixed reference loop runs before and after every job, and the
end-to-end times are medians over the passes of each job's time in units of
that loop; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are medians over the traced ones.  Every answer is checked
against its oracle and against the answer the same job gave in the first
pass.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import monotonic as clock
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

JOB_LIMIT_S = 30.0
SETUP_SPAWNS = 11

END_TO_END = (
    ("pass_ref", "ref"),
    ("job_p50_ref", "ref"),
    ("job_max_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Extra per-layer counters beyond calls and self_s:
# (metric suffix, unit, span name, how the value comes from its totals)
EXTRA_LAYER = (
    ("max_bits", "bit", "algebra.schur_evaluate", lambda t: t["a_max"]),
    ("kept", "count", "algebra.RowSpace.add", lambda t: t["a_sum"]),
    ("kept_ratio", "ratio", "algebra.RowSpace.add",
     lambda t: t["a_sum"] / t["calls"] if t["calls"] else 0.0),
    ("entries", "count", "algebra.RowSpace.add", lambda t: t["b_sum"]),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for mod, qual in tracing.TRACED:
        name = "%s.%s" % (mod, qual)
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for suffix, unit, span, _value in EXTRA_LAYER:
        units["%s.%s" % (span, suffix)] = unit
    units["cli.spawn_s"] = "s"
    units["trace.untraced_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def cpu_clock():
    """CPU seconds used so far by this process and its waited-for children.

    The kernel leaves out the time the hypervisor gave this machine's CPUs
    to others (steal time), which wall time counts in full.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference():
    """The reference loop: dict updates on tuple keys and a small Fraction
    matrix product, in fixed amounts and with no cohomix code; returns the
    CPU seconds it took, about 1.5 ms.

    On a shared machine the same pass takes from 1x to 2x its fastest CPU
    time, in phases from under a second to minutes long.  Timed on the same
    CPU just before and just after a job, this loop slows down with it, so
    a job's CPU time divided by the loop's stays put while a change to
    cohomix moves it in full.
    """
    t0 = process_time()
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    m = [[Fraction(i + 1, j + 2) for j in range(8)] for i in range(8)]
    total = Fraction(0)
    for i in range(8):
        for j in range(8):
            total += m[i][j] * m[j][i]
    return process_time() - t0


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


class Runner:
    """Runs passes over one job list; keeps each job's first answer and
    every failure."""

    def __init__(self, jobs, job_limit=JOB_LIMIT_S):
        self.jobs = jobs
        self.job_limit = job_limit
        self.first = {}
        self.attempted = 0
        self.failures = []
        self.next_job_id = 0

    def run_job(self, job, tracer):
        """Run, time and check one job; returns its CPU seconds, its own
        and its children's.  The per-job limit is on wall time."""
        err = raw = None
        if tracer is not None:
            tracer.job_id = self.next_job_id
            span = tracer.enter(tracing.JOB_ID)
        self.next_job_id += 1
        t0 = clock()
        c0 = cpu_clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.job_limit)
            try:
                raw = job.call(tracer)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            err = "over the per-job limit of %g s" % self.job_limit
        except Exception as exc:  # a failing job is counted, the run goes on
            err = "raised %r" % (exc,)
        cpu = cpu_clock() - c0
        elapsed = clock() - t0
        if tracer is not None:
            tracer.leave(span)
        if err is None and elapsed > self.job_limit:
            err = "took %.3f s, over the per-job limit of %g s" % (elapsed, self.job_limit)
        if err is None:
            plain = job.digest(raw)
            err = job.check(plain)
            if err is None:
                first = self.first.setdefault(job.name, plain)
                if plain != first:
                    err = "answer differs from the first pass"
        self.attempted += 1
        if err is not None:
            self.failures.append("%s: %s" % (job.name, err))
        return cpu

    def run_pass(self, tracer=None, calibrate=False):
        """Run every job once; returns {job name: CPU seconds}.  With
        `calibrate` the reference loop runs between jobs, and each job maps
        to (CPU seconds, mean of the loop's times just before and after it)."""
        times = {}
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        if tracer is not None:
            tracer.install()
        try:
            before = reference() if calibrate else None
            for job in self.jobs:
                seconds = self.run_job(job, tracer)
                if calibrate:
                    after = reference()
                    times[job.name] = (seconds, (before + after) / 2.0)
                    before = after
                else:
                    times[job.name] = seconds
        finally:
            if tracer is not None:
                tracer.uninstall()
            signal.signal(signal.SIGALRM, previous)
        return times


class CpuRotation:
    """Pins this process (and the children it spawns) to one CPU per pass,
    taking the CPUs it may use in turn, so that no pass migrates midway and
    the passes sample every CPU alike: on a shared machine other tenants
    slow one CPU at a time.  Where pinning is not allowed it does nothing."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.turn = 0

    def next(self):
        if len(self.cpus) < 2:
            return
        try:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        except OSError:
            self.cpus = []
        self.turn += 1

    def restore(self):
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))


def setup_sample(ctx):
    """CPU seconds a fresh interpreter spends until `import cohomix` returns."""
    code = "import cohomix, time, sys; sys.stdout.write(repr(time.process_time()))"
    proc = subprocess.run(
        [ctx.python, "-c", code], env=ctx.env, capture_output=True, timeout=60, check=True
    )
    return float(proc.stdout)


def job_ratios(passes):
    """Each job's median over the passes of its CPU time in reference loops."""
    return {
        name: statistics.median(t[name][0] / t[name][1] for t in passes)
        for name in passes[0]
    }


def end_to_end(passes, setup_s, rss_kb):
    ratios = list(job_ratios(passes).values())
    return {
        "pass_ref": sum(ratios),
        "job_p50_ref": statistics.median(ratios),
        "job_max_ref": max(ratios),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_values(tracer, spans):
    """Per-layer values of one traced pass, given the range of its spans;
    also returns bookkeeping errors."""
    totals, errors = tracing.layer_totals(tracer, spans)
    empty = {"calls": 0, "self_s": 0.0, "a_sum": 0, "a_max": 0, "b_sum": 0}
    values = {}
    for mod, qual in tracing.TRACED:
        name = "%s.%s" % (mod, qual)
        t = totals.get(name, empty)
        values[name + ".calls"] = t["calls"]
        values[name + ".self_s"] = t["self_s"]
    for suffix, _unit, span, value in EXTRA_LAYER:
        values["%s.%s" % (span, suffix)] = value(totals.get(span, empty))
    spawn = 0.0
    main = tracer.name_id("cli.main")
    for i in spans:
        parent = tracer.parent[i]
        if tracer.name[i] == main and parent >= 0 and tracer.name[parent] == tracing.JOB_ID:
            spawn += tracer.start[i] - tracer.start[parent]
    values["cli.spawn_s"] = spawn
    values["trace.untraced_s"] = totals.get(tracing.JOB, empty)["self_s"]
    return values, errors


def make_context(root):
    """Import cohomix and the test oracles from the checkout at `root`."""
    src = root / "src"
    if not (src / "cohomix" / "__init__.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import cohomix

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return types.SimpleNamespace(
        cx=cohomix,
        tests=oracle.load_test_oracles(root),
        python=sys.executable,
        env=env,
        here=HERE,
        out=root / ".bench_build" / "perfbench",
        job_limit=JOB_LIMIT_S,
    )


def run(workload, seed, seconds, trace, out=sys.stdout):
    """Run one benchmark invocation; returns the result object (or None when
    the checkout lacks cohomix or its test oracles)."""
    ctx = make_context(ROOT)
    if ctx is None:
        return None
    runner = Runner(workloads.WORKLOADS[workload](seed, ctx))
    cpus = CpuRotation()
    try:
        if trace:
            ctx.out.mkdir(parents=True, exist_ok=True)
            metrics, units = traced_run(runner, cpus, seconds, ctx, workload, seed, out)
        else:
            # Set-up samples are spread evenly over the run.
            setups, passes = [], []
            start = next_setup = clock()
            while not passes or clock() - start < seconds:
                cpus.next()
                if clock() >= next_setup and len(setups) < SETUP_SPAWNS:
                    setups.append(setup_sample(ctx))
                    next_setup += seconds / SETUP_SPAWNS
                passes.append(runner.run_pass(calibrate=True))
            while len(setups) < SETUP_SPAWNS:
                setups.append(setup_sample(ctx))
            who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
            metrics = end_to_end(passes, statistics.median(setups), resource.getrusage(who).ru_maxrss)
            units = dict(END_TO_END)
            for name, ratio in job_ratios(passes).items():
                out.write("job %-48s %10.3f ref  %.6f s CPU best of %d\n" % (
                    name, ratio, min(t[name][0] for t in passes), len(passes)))
            out.write("reference loop %.6f s CPU median\n" % statistics.median(
                t[1] for p in passes for t in p.values()))
    finally:
        cpus.restore()
    for failure in runner.failures:
        out.write("FAILED %s\n" % failure)
    failed = len(runner.failures)
    out.write("metric %-44s %.6f ratio\n" % ("failed_frac", failed / runner.attempted))
    for name, value in metrics.items():
        out.write("metric %-44s %s %s\n" % (name, value, units[name]))
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def traced_run(runner, cpus, seconds, ctx, workload, seed, out):
    """An untraced warm-up pass, then traced and untraced passes in turn."""
    tracer = tracing.Tracer()
    runner.run_pass()
    plain, traced, layers = [], [], []
    start = clock()
    while not traced or clock() - start < seconds:
        cpus.next()
        first = len(tracer)
        traced.append(sum(runner.run_pass(tracer).values()))
        values, errors = layer_values(tracer, range(first, len(tracer)))
        layers.append(values)
        runner.failures.extend("trace: " + e for e in errors)
        plain.append(sum(runner.run_pass().values()))
    tracer.write(ctx.out / ("spans-%s-%d.tsv" % (workload, seed)))
    for name in tracer.absent:
        out.write("absent %s\n" % name)
    units = per_layer_units()
    metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stderr.write("perfbench: no cohomix package under %s/src or no tests/oracles.py\n" % ROOT)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
