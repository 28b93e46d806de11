"""hhokit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload search-ladder --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the engine is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, its task times in
seconds scaled to a fixed machine speed (``pace.py``); with ``--trace 1`` it
runs every task untraced and traced in turn and prints the per-layer
metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import json

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("search-ladder", "verify-covering", "catalog-cli")
# An untraced run has at least this many passes, about --seconds 15 of them
# on verify-covering and catalog-cli; task_p50_s and task_tail_s are taken
# over the task times of exactly this many passes, the first ones.
SAMPLE_PASSES = {"search-ladder": 4, "verify-covering": 4, "catalog-cli": 6}
MIN_TRACED_PASSES = 2  # a traced run has at least two paired passes
# setup_s is the median over fresh processes started one after another until
# SETUP_SECONDS have passed, and at least SETUP_MIN_SAMPLES of them.
SETUP_MIN_SAMPLES = 5
SETUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cheap tasks per pass (the benchmark's own tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready DIGEST' and exit (setup_s samples)")
    return ap.parse_args(argv)


def setup(args):
    """Import the engine from src/ and build the workload's tasks."""
    if not os.path.isfile(os.path.join(SRC, "hhokit", "__init__.py")):
        sys.exit(f"perfbench: no engine sources at {os.path.relpath(SRC)}/hhokit")
    sys.path.insert(0, SRC)
    import workloads
    os.makedirs(OUT, exist_ok=True)
    return workloads.SETUPS[args.workload](
        args.seed, workloads.load_pinned(), smoke=args.smoke, out_dir=OUT)


def inputs_digest(tasks):
    text = "\n".join(f"{t.ident}\t{t.meta['input']}" for t in tasks)
    return hashlib.sha256(text.encode()).hexdigest()


def setup_samples(args):
    """Time fresh processes from start until their inputs are ready.  These
    are raw seconds: process start is mostly loading and unmarshalling
    code, which the speed kernel of ``pace`` does not track."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times, digests = [], set()
    t_start = time.perf_counter()
    while len(times) < SETUP_MIN_SAMPLES or time.perf_counter() - t_start < SETUP_SECONDS:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0 or not line.startswith("ready "):
            sys.exit(f"perfbench: setup process failed with exit code {code}")
        times.append(elapsed)
        digests.add(line.split()[1])
    return times, digests


def run_task(task):
    """Run one task.  Returns (start, end, answer, error or None), the
    times in ``time.perf_counter`` seconds.  A full garbage collection
    first, untimed, so that no task pays for the garbage of the one before
    and the collector runs at the same points of a task every time."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        answer = task.run()
        error = None
    except Exception as exc:  # a crash is a failed task, not a failed run
        answer, error = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if error is None:
        error = task.check(answer)
    return t0, t1, answer, error


def run_pass(tasks):
    """Run every task once.  Returns (per-task (start, end), answers, failures)."""
    spans, answers, failures = [], [], []
    for task in tasks:
        t0, t1, answer, error = run_task(task)
        spans.append((t0, t1))
        answers.append(answer)
        if error is not None:
            failures.append((task.ident, error))
    return spans, answers, failures


def run_paired_pass(tasks, tracer, number):
    """Run every task twice in a row, once untraced and once traced; which
    goes first alternates from task to task and from pass to pass, so drift
    of the machine's speed cancels in the pair.  Returns (untraced seconds,
    traced seconds, untraced answers, failures)."""
    plain, traced, answers, failures = [], [], [], []
    for i, task in enumerate(tasks):
        runs = {}
        for with_trace in ((True, False) if (number + i) % 2 else (False, True)):
            if with_trace:
                tracer.set_task(f"{number}:{task.ident}")
                tracer.install()
            try:
                runs[with_trace] = run_task(task)
            finally:
                tracer.uninstall()
        plain.append(runs[False][1] - runs[False][0])
        traced.append(runs[True][1] - runs[True][0])
        answers.append(runs[False][2])
        for label, (_, _, _, error) in (("", runs[False]), (" (traced)", runs[True])):
            if error is not None:
                failures.append((task.ident + label, error))
        if runs[True][3] is None and runs[True][2] != runs[False][2]:
            failures.append((task.ident, "traced answer differs from the untraced one"))
    return plain, traced, answers, failures


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile that has at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def task_samples(passes, count):
    """The per-task times that ``task_p50_s`` and ``task_tail_s`` are taken
    over: those of the first ``count`` passes, so the percentiles do not
    move with the number of passes a run had time for."""
    return [t for times in passes[:count] for t in times]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        tasks = setup(args)
        print("ready", inputs_digest(tasks), flush=True)
        return 0

    setup_times, digests = ([], set()) if args.trace else setup_samples(args)
    tasks = setup(args)
    digests.add(inputs_digest(tasks))
    if len(digests) != 1:
        print("perfbench: the same seed gave different inputs", file=sys.stderr)

    import workloads
    passes, traced_passes, layer_runs, failures = [], [], [], []
    first_answers = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    else:
        speed = pace.Speedometer()
        speed.start()
    min_passes = MIN_TRACED_PASSES if args.trace else SAMPLE_PASSES[args.workload]
    t_start = time.perf_counter()
    try:
        while True:
            if args.trace:
                mark = tracer.mark()
                times, traced, answers, failed = run_paired_pass(tasks, tracer, len(passes))
                layer_runs.append(tracing.layer_metrics(tracer.spans, tracer.counters, mark))
                traced_passes.append(traced)
            else:
                times, answers, failed = run_pass(tasks)
            passes.append(times)
            failures.extend(failed)
            first_answers = first_answers or answers
            if len(passes) >= min_passes and time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        if not args.trace:
            speed.stop()
    if not args.trace:  # task (start, end) pairs to seconds, raw and scaled
        raw_walls = [sum(t1 - t0 for t0, t1 in spans) for spans in passes]
        passes = [[speed.scale(t0, t1) for t0, t1 in spans] for spans in passes]

    attempted = len(tasks) * (len(passes) + len(traced_passes))
    correct = not failures and len(digests) == 1
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"{'paired ' if args.trace else ''}passes of {len(tasks)} tasks, "
          f"{attempted} attempted, {len(failures)} failed "
          f"(fail_rate {len(failures) / attempted:.4g})")
    medians = [statistics.median(own) for own in zip(*passes)]
    for line in workloads.describe(args.workload, tasks, first_answers, medians):
        print(line)
    for ident, error in failures[:20]:
        print(f"FAILED {ident}: {error}", file=sys.stderr)

    walls = [sum(times) for times in passes]
    if args.trace:
        traced_walls = [sum(times) for times in traced_passes]
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name, _ in tracing.LAYER_METRICS if name != "trace.overhead"}
        metrics["trace.overhead"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls))
        units = dict(tracing.LAYER_METRICS)
        traced_wall = statistics.median(traced_walls)
        print(f"traced wall {traced_wall:.4f} s, untraced {statistics.median(walls):.4f} s, "
              f"over {len(passes)} paired passes; {len(tracer.spans)} spans; "
              f"peak RSS {peak_rss_mb():.1f} MB")
        for layer in tracing.LAYERS:
            self_s = statistics.median(run[f"{layer}.self_s"] for run in layer_runs)
            print(f"  {layer} self time: {self_s:.4f} s, {self_s / traced_wall:.1%} "
                  f"of the traced wall")
        if tracer.missing:
            print(f"engine targets not found (metrics read 0): {', '.join(tracer.missing)}")
        tracer.spans.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        samples = task_samples(passes, min_passes)
        value, pct, beyond = tail(samples)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "task_p50_s": statistics.median(samples),
            "task_tail_s": value,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                 "peak_rss_mb": "MB"}
        print(f"  task_p50_s and task_tail_s over the {len(samples)} task times of the "
              f"first {min_passes} passes; task_tail_s is "
              f"p{pct:.1f}, {beyond} samples beyond it")
        print(f"  setup_s samples: {', '.join(repr(t) for t in setup_times)}")
        print(f"  wall_s samples: {', '.join(f'{t:.4f}' for t in walls)}")
        print(f"  raw seconds: wall {statistics.median(raw_walls):.4f} over "
              f"{', '.join(f'{t:.4f}' for t in raw_walls)}; "
              f"{len(speed.samples)} speed samples, median "
              f"{statistics.median(e - s for s, e in speed.samples) * 1e3:.3f} ms "
              f"(reference {pace.REF_KERNEL_S * 1e3:g} ms)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
