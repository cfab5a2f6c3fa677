"""The benchmark's own checks.

    python3 perfbench/check.py

Run from the root of a checkout; takes about half a minute.  Each check
prints PASS or FAIL; the exit code is the number of failures.

1. A planted wrong oracle answer counts as a failed job.
2. A job past the per-job limit counts as a failed job, in process and as
   a CLI child.
3. A traced name deleted at runtime is reported absent, the traced pass
   still works, and tracing changes no answer.
4. Every emitted metric name matches [A-Za-z0-9_.-]+, carries a unit, and
   the names and units are exactly those in BENCHMARK.json.
"""

import importlib
import io
import json
import re
import sys

import run
import tracing
import workloads
from workloads import expect

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def planted_wrong_answer(ctx):
    jobs = workloads.obstructions(1, ctx)
    jobs[0].check = expect("an answer no job gives")
    runner = run.Runner(jobs)
    runner.run_pass()
    assert runner.attempted == len(jobs), runner.attempted
    assert len(runner.failures) == 1, runner.failures
    assert runner.failures[0].startswith(jobs[0].name), runner.failures


def job_past_limit(ctx):
    slow = [j for j in workloads.obstructions(1, ctx) if j.name.startswith("jordan")]
    runner = run.Runner(slow, job_limit=0.01)
    runner.run_pass()
    assert len(runner.failures) == len(slow), runner.failures
    assert all("per-job limit" in f for f in runner.failures), runner.failures
    ctx.job_limit = 0.01
    try:
        child = [j for j in workloads.cli(1, ctx) if j.name == "hilb betti"]
        runner = run.Runner(child, job_limit=30)
        runner.run_pass()
    finally:
        ctx.job_limit = run.JOB_LIMIT_S
    assert len(runner.failures) == 1 and "Timeout" in runner.failures[0], runner.failures


def deleted_name_is_absent(ctx):
    cx = ctx.cx
    importlib.import_module("cohomix.cli")
    gone = cx.gotzmann.jordan_regularity_check
    mul = cx.algebra.RationalMatrix.mul
    holders = [
        (ns, attr)
        for ns in (cx, cx.gotzmann, cx.cli)
        for attr, value in vars(ns).items()
        if value is gone
    ]
    for ns, attr in holders:
        delattr(ns, attr)
    del cx.algebra.RationalMatrix.mul
    try:
        runner = run.Runner(workloads.schur_rank(1, ctx))
        runner.run_pass()
        tracer = tracing.Tracer()
        runner.run_pass(tracer)
        values, errors = run.layer_values(tracer, range(len(tracer)))
    finally:
        for ns, attr in holders:
            setattr(ns, attr, gone)
        cx.algebra.RationalMatrix.mul = mul
    assert sorted(tracer.absent) == ["algebra.RationalMatrix.mul", "gotzmann.jordan_regularity_check"], tracer.absent
    assert not runner.failures, runner.failures
    assert not errors, errors
    assert values["gotzmann.jordan_regularity_check.calls"] == 0
    assert values["algebra.schur_evaluate.calls"] > 0
    # the wrappers are gone again after the pass
    assert cx.algebra.schur_evaluate is cx.filtration.schur_evaluate
    assert not hasattr(cx.algebra.schur_evaluate, "__wrapped__")


def metric_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        result = run.run("obstructions", 1, 0, trace, out=io.StringIO())
        assert result["correct"], result
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, (key, sorted(set(got) ^ set(wanted)))
        for name, unit in got.items():
            assert NAME.fullmatch(name), name
            assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)


def main():
    ctx = run.make_context(run.ROOT)
    if ctx is None:
        sys.stderr.write("check: no cohomix package or tests/oracles.py under %s\n" % run.ROOT)
        return 2
    checks = [
        ("planted wrong oracle answer fails its job", lambda: planted_wrong_answer(ctx)),
        ("job past its limit fails", lambda: job_past_limit(ctx)),
        ("deleted traced name is reported absent", lambda: deleted_name_is_absent(ctx)),
        ("metric names and units match BENCHMARK.json", metric_names),
    ]
    failures = 0
    for label, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print("FAIL %s: %s" % (label, exc))
        else:
            print("PASS %s" % label)
    return failures


if __name__ == "__main__":
    sys.exit(main())
