"""tools/bench_pairs.py on synthetic run lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run_line(wall, rss, attempted=10, failed=0, correct=True, extra=()):
    metrics = {"setup_s": {"value": 0.2, "unit": "s"},
               "wall_s": {"value": wall, "unit": "s"},
               "task_p50_s": {"value": 0.1, "unit": "s"},
               "task_tail_s": {"value": 0.3, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    metrics.update({name: {"value": 1.0, "unit": "s"} for name in extra})
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def write_runs(directory, workload, rows):
    """rows: (seed, parent_line, change_line); a human-readable line comes first."""
    for seed, parent, change in rows:
        for side, line in (("parent", parent), ("change", change)):
            (directory / f"{workload}.{side}.{seed}.json").write_text(
                f"workload {workload}, seed {seed}: 4 passes\n{line}\n")


HEADER = ["--change", "a change", "--parent-commit", "abc1234",
          "--machine", "test machine", "--pairing", "alternated"]


def test_medians_quartiles_and_lower_pairs(tmp_path):
    write_runs(tmp_path, "search-ladder", [
        (3, run_line(4.0, 30.0), run_line(2.0, 29.0, attempted=20)),
        (1, run_line(5.0, 30.0), run_line(3.0, 31.0, attempted=20)),
        (2, run_line(6.0, 30.0, failed=1), run_line(7.0, 30.0, attempted=20)),
        (4, run_line(3.0, 30.0), run_line(2.5, 30.0, attempted=20)),
    ])
    write_runs(tmp_path, "catalog-cli", [(9, run_line(1.0, 20.0), run_line(1.0, 20.0))])
    (tmp_path / "notes.txt").write_text("not a run file")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--out", str(out), *HEADER,
                             "--claim", "search-ladder:wall_s:0.8"]) == 0
    data = json.loads(out.read_text())
    assert data["claim"] == {"workload": "search-ladder", "metric": "wall_s", "target_ratio": 0.8,
                             "met": False}
    assert data["parent_commit"] == "abc1234"
    assert "--seconds 15 --trace 0" in data["command"]
    assert list(data["workloads"]) == ["catalog-cli", "search-ladder"]
    ladder = data["workloads"]["search-ladder"]
    assert ladder["seeds"] == [1, 2, 3, 4] and ladder["pairs"] == 4
    assert ladder["failed"] == {"parent": 1, "change": 0}
    assert ladder["attempted"] == {"parent": 40, "change": 80}
    wall = ladder["metrics"]["wall_s"]
    # parent 5, 6, 4, 3 and change 3, 7, 2, 2.5 by seed
    assert (wall["parent_median"], wall["change_median"]) == (4.5, 2.75)
    assert wall["ratio"] == round(2.75 / 4.5, 3)
    assert wall["parent_quartiles"] == [3.75, 5.25]
    assert wall["change_quartiles"] == [2.375, 4.0]
    assert wall["change_lower_pairs"] == 3
    assert wall["unit"] == "s"
    rss = ladder["metrics"]["peak_rss_mb"]
    assert rss["change_lower_pairs"] == 1 and rss["ratio"] == 1.0
    single = data["workloads"]["catalog-cli"]["metrics"]["wall_s"]
    assert single["parent_quartiles"] == [1.0, 1.0] and single["change_lower_pairs"] == 0
    # lists stay on one line
    assert '"seeds": [1, 2, 3, 4],' in out.read_text()


@pytest.mark.parametrize("case", ["unpaired", "incorrect", "traced", "empty"])
def test_incomplete_or_incorrect_runs_are_refused(tmp_path, capsys, case):
    if case == "unpaired":
        write_runs(tmp_path, "verify-covering", [(1, run_line(1.0, 1.0), run_line(1.0, 1.0))])
        (tmp_path / "verify-covering.parent.2.json").write_text(run_line(1.0, 1.0))
        expected = "verify-covering seed 2: no change run"
    elif case == "incorrect":
        write_runs(tmp_path, "verify-covering",
                   [(1, run_line(1.0, 1.0), run_line(1.0, 1.0, correct=False))])
        expected = "verify-covering.change.1.json: the run is not correct"
    elif case == "traced":
        write_runs(tmp_path, "verify-covering",
                   [(1, run_line(1.0, 1.0), run_line(1.0, 1.0, extra=["covering.residual_s"]))])
        expected = "verify-covering.change.1.json: not the end-to-end metrics of an untraced run"
    else:
        expected = "no run files in"
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--out", str(out), *HEADER]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_verdict_against_the_benchmark_bounds(tmp_path):
    # BENCHMARK.json bounds wall_s by 0.25 and peak_rss_mb by 0.1, lower better
    write_runs(tmp_path, "search-ladder", [  # change median 1.5 vs 1.0: worse
        (s, run_line(1.0, 30.0), run_line(1.5, 30.0)) for s in range(4)])
    write_runs(tmp_path, "verify-covering", [  # parent quartiles 1.0..2.0, spread above 0.375
        (s, run_line(p, 30.0), run_line(c, 30.0))
        for s, p, c in ((0, 1.0, 1.2), (1, 2.0, 1.8), (2, 1.0, 1.4), (3, 2.0, 1.6))])
    # wall_s 10% slower with no spread; peak_rss_mb spread wide, but every change run lower
    write_runs(tmp_path, "catalog-cli", [
        (s, run_line(1.0, 30.0 + 10 * (s % 2)), run_line(1.1, 20.0 + s)) for s in range(4)])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--out", str(out), *HEADER]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    verdicts = {w: {m: entry["verdict"] for m, entry in workloads[w]["metrics"].items()}
                for w in workloads}
    assert verdicts["search-ladder"]["wall_s"] == "worse"
    assert verdicts["verify-covering"]["wall_s"] == "unresolved"
    assert verdicts["catalog-cli"]["wall_s"] == "within bound"
    assert verdicts["catalog-cli"]["peak_rss_mb"] == "within bound"
    assert verdicts["verify-covering"]["peak_rss_mb"] == "within bound"
    assert verdicts["search-ladder"]["setup_s"] == "within bound"


@pytest.mark.parametrize("case, met", [("nine-of-ten", True), ("tie-and-loss", False),
                                       ("within-spread", False)])
def test_claim_is_judged_by_pairs_and_parent_spread(tmp_path, case, met):
    # parent wall_s 1.00..1.09: median 1.045, quartiles 1.0225 and 1.0675 (spread 0.045)
    parent = [1.0 + 0.01 * s for s in range(10)]
    if case == "nine-of-ten":  # 0.1 lower in nine pairs, a tie in the tenth
        change = [p - 0.1 for p in parent[:9]] + [parent[9]]
    elif case == "tie-and-loss":  # a tie counts for neither side: 8 of 10 won
        change = [p - 0.1 for p in parent[:8]] + [parent[8], parent[9] + 0.1]
    else:  # lower in every pair, but by 0.02, inside the parent's spread
        change = [p - 0.02 for p in parent]
    write_runs(tmp_path, "verify-covering", [
        (s, run_line(p, 30.0), run_line(c, 30.0)) for s, (p, c) in enumerate(zip(parent, change))])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--out", str(out), *HEADER,
                             "--claim", "verify-covering:wall_s:0.9"]) == 0
    assert json.loads(out.read_text())["claim"]["met"] is met


def test_claim_without_runs_is_refused(tmp_path, capsys):
    write_runs(tmp_path, "verify-covering", [(1, run_line(1.0, 30.0), run_line(0.9, 30.0))])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--out", str(out), *HEADER,
                             "--claim", "search-ladder:wall_s:0.9"]) == 2
    assert "no search-ladder runs" in capsys.readouterr().err
    assert not out.exists()
