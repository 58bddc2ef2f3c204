"""Time-to-verdict benchmark for cmverify.

Run from the repository root:

    python3 bench/run.py --workload bundled|heisenberg|polymetric \
        --seed N --seconds S --trace 0|1

One process per workload calls the CLI entry point
`cmverify.cli.run([...command, spec, "--format", "json"])` in a closed
loop, one invocation at a time and with no extra threads.  A pass runs
every invocation of the workload once, in an order permuted by the seed;
passes repeat until `--seconds` have gone by (at least one pass).  The
sampler seed of the program stays at its default.

Every invocation runs under a budget (`corpus.BUDGET_S` seconds at the
reference host speed below, enforced from a signal handler) and is checked against its golden and the facts file
(`oracle.py`).  An invocation fails if it raises, goes over budget,
returns other bytes or another exit code than its golden, or breaks a
fact; a failure is recorded and the run goes on.

`--trace 0` reports the end-to-end metrics:
    wall_s       median seconds of one pass, scaled to the reference host
                 speed (below); an invocation over budget counts at the
                 budget
    setup_s      median over fresh interpreters of the time from starting
                 the process to `cmverify.cli` imported and ready, scaled
                 to the reference host speed
    peak_rss_mb  peak resident memory of this process (ru_maxrss)
    ok_ratio     1 - fail_ratio: invocations that did not fail over those
                 attempted (the complement, so the metric is never 0)
The host is shared and its speed swings by up to 2x, so the two timings
are scaled to a reference host speed that `hostspeed.Calibrator` samples
while they are measured: a pass's seconds are multiplied by
`hostspeed.scale` of the samples taken during that pass.  Raw seconds are
printed beside the scaled ones and kept in `.bench_out/`.

`--trace 1` runs untraced passes for half the time, then installs the
wrappers of `tracing.py` and runs traced passes for the other half, and
reports the per-layer metrics per
pass, with the tracing overhead as traced minus untraced wall_s.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (named and given units as in BENCHMARK.json).
`failed` counts invocations that missed their oracle; an invocation whose
expected outcome is "over budget" (`corpus.UNDECIDED`) and that went over
budget shows in `ok_ratio` only.  Details of the run, and the spans of a
traced run, go to `.bench_out/` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
from corpus import BUDGET_S, UNDECIDED, WORKLOADS, argv as cli_argv, key
from oracle import Oracle
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
SETUP_REFERENCE_CALLS = 20
PROBE = ("import cmverify.cli, sys; sys.stdout.write('ready\\n'); "
         "sys.stdout.flush()")


class CheckoutError(Exception):
    """The directory holds no cmverify sources to benchmark."""


@dataclass
class Outcome:
    invocation: str
    seconds: float
    rc: int | None = None
    over_budget: bool = False
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.over_budget or self.error is not None \
            or bool(self.problems)

    @property
    def expected(self) -> bool:
        """Failed only in the way the oracle expects."""
        return self.over_budget and self.error is None \
            and not self.problems


def import_cli():
    if not (SRC / "cmverify" / "cli.py").is_file():
        raise CheckoutError(f"no cmverify sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cmverify import cli
    return cli


def invoke(cli, args: list, budget: float, calibrator=None):
    """Run `cli.run(args)` once under `budget` seconds: seconds at the
    reference host speed, counted by the calibrator, if one is given, and
    real seconds (SIGALRM) if not.

    Returns (rc, stdout, stderr, real seconds, over_budget, error)."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    over = False
    armed = True

    def on_alarm(signum, frame):
        if armed:
            raise hostspeed.OverBudget

    previous = signal.signal(signal.SIGALRM, on_alarm)
    saved = sys.stdout, sys.stderr
    t0 = perf_counter()
    try:
        if calibrator:
            calibrator.arm(budget)
        else:
            signal.setitimer(signal.ITIMER_REAL, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(args)
        armed = False
        if calibrator:
            calibrator.disarm()
    except hostspeed.OverBudget:
        over = True
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # the program's failure, recorded; run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        armed = False
        if calibrator:
            calibrator.disarm()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdout, sys.stderr = saved
    seconds = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds, over, error


def run_pass(cli, invocations, rng, oracle, tracer=None, calibrator=None):
    """One pass over the invocations in a seed-permuted order.

    Returns (wall seconds, raw wall seconds, outcomes in the order run).
    An invocation over budget counts at the budget in wall seconds and at
    the time it took in raw ones.  With a calibrator, the budget and wall
    seconds are seconds at the reference host speed and the calibrator's
    own time is left out of every invocation's; without one, both are
    real seconds."""
    order = list(invocations)
    rng.shuffle(order)
    outcomes = []
    first_sample = len(calibrator.samples) if calibrator else 0
    for cmd, spec in order:
        mark = tracer.checkpoint() if tracer else None
        paused = calibrator.paused if calibrator else 0.0
        rc, out, err, seconds, over, error = invoke(
            cli, cli_argv(cmd, spec), BUDGET_S, calibrator)
        if calibrator:
            seconds -= calibrator.paused - paused
        if tracer:
            tracer.end_invocation(mark, finished=not over)
        o = Outcome(key(cmd, spec), seconds, rc, over, error)
        if over and (cmd, spec) not in UNDECIDED:
            o.problems.append(f"over budget ({BUDGET_S:g} s)")
        elif not over and error is None:
            o.problems = oracle.problems(cmd, spec, rc, out, err)
        outcomes.append(o)
    factor = 1.0
    if calibrator:
        calibrator.sample()  # so that even a short pass has a sample
        factor = hostspeed.scale(calibrator.samples[first_sample:])
    decided = sum(o.seconds for o in outcomes if not o.over_budget)
    over = sum(o.over_budget for o in outcomes)
    raw = sum(o.seconds for o in outcomes)
    return decided * factor + over * BUDGET_S, raw, outcomes


def measure(cli, invocations, rng, oracle, seconds, tracer=None,
            calibrator=None):
    """Whole passes until `seconds` have gone by; at least one."""
    passes = []
    t_end = perf_counter() + seconds
    while not passes or perf_counter() < t_end:
        passes.append(run_pass(cli, invocations, rng, oracle, tracer,
                               calibrator))
    return passes


def setup_times(n: int):
    """Seconds from starting a fresh interpreter until `cmverify.cli` is
    imported, for n interpreters after one unmeasured warm-up (which also
    leaves the bytecode cache written).

    Returns (times, reference samples): before each interpreter, this
    process times `SETUP_REFERENCE_CALLS` calls of the host-speed
    reference kernel."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, samples = [], []
    for _ in range(n + 1):
        for _ in range(SETUP_REFERENCE_CALLS):
            t0 = perf_counter()
            hostspeed.reference()
            samples.append(perf_counter() - t0)
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=60)
        if line != b"ready\n" or proc.returncode != 0:
            raise CheckoutError("cmverify.cli does not import in a fresh "
                                f"interpreter (exit {proc.returncode})")
        times.append(elapsed)
    return times[1:], samples[SETUP_REFERENCE_CALLS:]


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return round(100 * (n - 10) / n, 1), sorted(values)[n - 11]


def summarize(passes):
    outcomes = [o for _, _, runs in passes for o in runs]
    walls = [w for w, _, _ in passes]
    raw_walls = [r for _, r, _ in passes]
    per_inv = {}
    for o in outcomes:
        per_inv.setdefault(o.invocation, []).append(o.seconds)
    return {
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_wall_s_samples": raw_walls,
        "attempted": len(outcomes),
        "fail_ratio": sum(o.failed for o in outcomes) / len(outcomes),
        "failed": sum(o.failed and not o.expected for o in outcomes),
        "correct": not any(o.error or o.problems for o in outcomes),
        "invocation_median_s": {k: statistics.median(v)
                                for k, v in sorted(per_inv.items())},
        "failures": sorted({f"{o.invocation}: "
                            f"{o.error or '; '.join(o.problems) or 'over budget'}"
                            for o in outcomes if o.failed}),
    }


def context(args):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "budget_s": BUDGET_S}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup, setup_samples = ([], []) if args.trace \
            else setup_times(SETUP_PROBES)
    except (CheckoutError, OSError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    oracle = Oracle()
    rng = random.Random(args.seed)
    invocations = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # A traced run splits its time between untraced and traced passes, so
    # it takes no longer than an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    calibrator = None if args.trace else hostspeed.Calibrator()
    if calibrator:
        calibrator.install()
    try:
        passes = measure(cli, invocations, rng, oracle, seconds,
                         calibrator=calibrator)
    finally:
        if calibrator:
            calibrator.uninstall()
    untraced = summarize(passes)
    detail = {"context": context(args), "untraced": untraced}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_passes = measure(cli, invocations, rng, oracle, seconds,
                                    tracer)
        finally:
            tracer.uninstall()
        traced = summarize(traced_passes)
        tracer.dump(stem.with_suffix(".spans"))
        values = tracer.metrics(traced["passes"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.untraced_wall_s"] = untraced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        detail["traced"] = traced
        summaries = (untraced, traced)
    else:
        values = {
            "wall_s": untraced["wall_s"],
            "setup_s": statistics.median(setup)
            * hostspeed.scale(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - untraced["fail_ratio"],
        }
        detail["setup_s_samples"] = setup
        detail["setup_reference_s"] = statistics.mean(setup_samples)
        detail["pass_reference_s"] = statistics.mean(calibrator.samples)
        summaries = (untraced,)
    detail["values"] = values
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for s in summaries:
        tail_s = ("p%g %.6g s" % s["wall_s_tail"] if s["wall_s_tail"]
                  else "none (fewer than 11 passes)")
        print(f"passes {s['passes']}: wall_s median {s['wall_s']:.6g} s "
              f"(raw {s['raw_wall_s']:.6g} s), tail {tail_s}; "
              f"fail_ratio {s['fail_ratio']:.6g} "
              f"({s['attempted']} invocations)")
        for line in s["failures"]:
            print(f"  failure: {line}")
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
