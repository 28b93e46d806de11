"""The benchmark's own tests: smoke runs, seed determinism, span arithmetic.

    python -m pytest perfbench/tests
"""

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import pytest

import generators
import pace
import run
import tracer
import workloads
from hhokit import linsolve, solver
from hhokit.grammar import parse_scalar

_original_solve = linsolve.linear_solve

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result, human = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        setup = [line for line in human if "setup_s samples:" in line][0]
        times = [float(t) for t in setup.split(":", 1)[1].split(",")]
        assert len(times) >= run.SETUP_MIN_SAMPLES
        assert result["metrics"]["setup_s"]["value"] == statistics.median(times)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in _spec()["per_layer"]] == [n for n, _ in tracer.LAYER_METRICS]


def _digest(workload, seed):
    pinned = workloads.load_pinned()
    tasks = workloads.SETUPS[workload](seed, pinned, smoke=True, out_dir=BENCH)
    return run.inputs_digest(tasks)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _digest(workload, 11) == _digest(workload, 11)


def test_other_seed_other_instances():
    a = generators.verify_instances(random.Random(1), per_cell=1, n1_tails=1)
    b = generators.verify_instances(random.Random(2), per_cell=1, n1_tails=1)
    assert repr(a) == repr(generators.verify_instances(random.Random(1), per_cell=1,
                                                       n1_tails=1))
    assert repr(a) != repr(b)


def test_seed_changes_coefficients_not_monomials():
    a = generators.rand_poly(random.Random(1), 3, 3, 5, "shape")
    b = generators.rand_poly(random.Random(2), 3, 3, 5, "shape")
    assert set(a.terms) == set(b.terms) and a != b
    assert all(c != 0 for c in a.terms.values())


def test_labellings_of_one_class_give_one_system():
    def system(perm):
        return [[parse_scalar(x) for x in row] for row in workloads.relabel_cyclic(perm)]
    assert system((1, 2, 3)) == system((1, 3, 2))
    assert system((2, 1, 3)) == system((2, 3, 1))
    assert system((3, 1, 2)) == system((3, 2, 1))
    assert system((1, 2, 3)) != system((2, 1, 3))


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tail_percentile_does_not_depend_on_the_pass_count():
    # later passes are faster, as on a machine that speeds up mid-run
    passes = [[float(100 - 10 * p + i) for i in range(7)] for p in range(9)]
    fixed = run.task_samples(passes[:4], 4)
    assert len(fixed) == 7 * 4
    for count in range(4, len(passes) + 1):
        assert run.task_samples(passes[:count], 4) == fixed
        assert run.tail(run.task_samples(passes[:count], 4)) == run.tail(fixed)
    assert set(run.SAMPLE_PASSES) == set(run.WORKLOADS)


def _kernel_runs(kernel_s, count=50):
    """Kernel samples every 0.1 s, the i-th taking kernel_s(i) seconds."""
    return [(0.1 * i, 0.1 * i + kernel_s(i)) for i in range(count)]


def test_scaled_time_at_a_steady_speed():
    runs = _kernel_runs(lambda i: 0.004)
    # ten of the 4 ms kernel runs fall inside the first interval
    assert pace.scaled(runs, 1.02, 2.02) == pytest.approx(
        (1.0 - 10 * 0.004) * pace.REF_KERNEL_S / 0.004)
    assert pace.scaled(runs, 1.05, 1.06) == pytest.approx(0.01 * pace.REF_KERNEL_S / 0.004)
    assert pace.scaled(runs, 1.05, 1.05) == 0.0


def test_scaled_time_follows_a_change_of_speed():
    # the machine halves its speed at t = 2.5 s; no kernel runs inside the
    # interval are taken out when they are this short
    runs = _kernel_runs(lambda i: 1e-9 if i < 25 else 2e-9)
    fast = pace.scaled(runs, 1.0, 2.0)
    slow = pace.scaled(runs, 3.0, 4.0)
    assert fast == pytest.approx(2 * slow, rel=1e-6)
    both = pace.scaled(runs, 2.0, 3.0)
    assert slow < both < fast


def test_speedometer_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = pace.Speedometer(period=0.01)
    speed.start()
    try:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            sum(range(1000))
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 3
    assert all(a < b for a, b in speed.samples)
    assert speed.scale(speed.samples[0][0], speed.samples[-1][1]) > 0
    short = pace.Speedometer()
    short.start()
    short.stop()
    assert len(short.samples) == pace.NEAREST


class _FakeTracer:
    def __init__(self):
        self.on = False

    def set_task(self, label):
        pass

    def install(self):
        self.on = True

    def uninstall(self):
        self.on = False


def test_paired_pass_alternates_which_run_goes_first():
    fake, order = _FakeTracer(), []

    def make(i):
        def task_run():
            order.append((i, fake.on))
            return i
        return workloads.Task(f"t{i}", task_run, lambda ans: None, {})

    tasks = [make(i) for i in range(3)]
    plain, traced, answers, failures = run.run_paired_pass(tasks, fake, 0)
    assert answers == [0, 1, 2] and not failures
    assert len(plain) == len(traced) == 3
    assert order == [(0, False), (0, True), (1, True), (1, False), (2, False), (2, True)]
    order.clear()
    run.run_paired_pass(tasks, fake, 1)
    assert order[:2] == [(0, True), (0, False)]


# Hand-built tree (times in seconds):
#   0 covering.bivector_residual [0, 10]
#   1   rational.ratfunc_mul      [1, 4]
#   2     rational.poly_gcd       [2, 3]
#   3   jets.total_x              [3, 6]   overlaps span 1 on [3, 4]
#   4 linsolve.linear_solve       [10, 12]
def _tree():
    spans = tracer.Spans()
    for row in (("covering.bivector_residual", -1, 0.0, 10.0),
                ("rational.ratfunc_mul", 0, 1.0, 4.0),
                ("rational.poly_gcd", 1, 2.0, 3.0),
                ("jets.total_x", 0, 3.0, 6.0),
                ("linsolve.linear_solve", -1, 10.0, 12.0)):
        name, parent, start, end = row
        spans.add(name, parent, 0, start, end)
    return spans


def test_self_time_subtracts_the_union_of_children():
    assert tracer.self_times(_tree()) == [5.0, 2.0, 1.0, 3.0, 2.0]
    # from a later mark, spans before it are neither counted nor parents
    assert tracer.self_times(_tree(), first=3) == [3.0, 2.0]


def test_covered_time_counts_nested_spans_once():
    spans = _tree()
    assert tracer.covered_time(spans, {"rational.ratfunc_mul", "rational.poly_gcd"}) == 3.0
    assert tracer.covered_time(spans, {"covering.bivector_residual", "jets.total_x"}) == 10.0


def test_layer_metrics_on_the_hand_built_tree():
    m = tracer.layer_metrics(_tree(), {"rational.den1_mul": 1.0})
    assert m["covering.self_s"] == 5.0
    assert m["rational.self_s"] == 3.0
    assert m["jets.self_s"] == 3.0
    assert m["linsolve.self_s"] == 2.0
    assert m["rational.gcd_calls"] == 1 and m["rational.gcd_s"] == 1.0
    assert m["rational.den1_mul_share"] == 1.0
    assert m["covering.residual_s"] == 10.0
    assert m["linsolve.solve_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == 13.0


def test_tracer_wraps_where_callers_look_up_and_restores():
    original = linsolve.linear_solve
    t = tracer.Tracer()
    t.install()
    try:
        assert solver.linear_solve is linsolve.linear_solve
        assert linsolve.linear_solve is not original
        assert not t.missing
    finally:
        t.uninstall()
    assert solver.linear_solve is original and linsolve.linear_solve is original


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_answers_equal_untraced(workload):
    tasks = workloads.SETUPS[workload](5, workloads.load_pinned(), smoke=True,
                                       out_dir=os.path.join(BENCH, "out"))
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    _, plain, failed = run.run_pass(tasks)
    assert not failed
    t = tracer.Tracer()
    _, _, paired, failed = run.run_paired_pass(tasks, t, 0)
    assert not failed and paired == plain and len(t.spans)
    assert solver.linear_solve is linsolve.linear_solve is _original_solve
