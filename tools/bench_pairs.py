"""Write a before/after ``BENCH_<k>.json`` from paired benchmark runs.

    python3 tools/bench_pairs.py RUNS --out BENCH_8.json --change "what changed" \
        --parent-commit 53914cb --machine "..." --pairing "..." \
        --claim search-ladder:wall_s:0.80

``RUNS`` is a directory of files named ``<workload>.<side>.<seed>.json``,
``side`` being ``parent`` or ``change``.  Each holds the standard output of
one ``perfbench/run.py --seconds 15 --trace 0`` run (or just its last line,
the JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``).
Every seed of a workload needs both sides, every run must be correct, and
every run must carry exactly the five end-to-end metrics of an untraced run.

Per workload and metric the file gives both medians, their ratio (change
over parent), both sides' first and third quartiles (inclusive method), the
number of pairs in which the change was lower, and a no-regression verdict
against the metric's ``better`` direction and ``bound`` in the repository's
``BENCHMARK.json``: ``worse`` when the change's median is worse than the
parent's by more than bound x the parent median; otherwise ``unresolved``
when the parent's quartile spread is wider than that and not every change run
beats every parent run; otherwise ``within bound``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

SIDES = ("parent", "change")
METRICS = {"setup_s", "wall_s", "task_p50_s", "task_tail_s", "peak_rss_mb"}
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
_NAME = re.compile(r"^(?P<workload>[\w-]+)\.(?P<side>parent|change)\.(?P<seed>\d+)\.json$")


class PairError(ValueError):
    """The runs do not make complete, correct pairs."""


def final_line(text: str) -> dict:
    """The JSON object on the last non-blank line of a run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise PairError("empty run output")
    return json.loads(lines[-1])


def load_runs(directory: str) -> dict:
    """{workload: {seed: {side: result}}} from the run files of a directory."""
    runs: dict = {}
    for name in sorted(os.listdir(directory)):
        match = _NAME.match(name)
        if not match:
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            result = final_line(fh.read())
        if not result.get("correct"):
            raise PairError(f"{name}: the run is not correct")
        if set(result.get("metrics", ())) != METRICS:
            raise PairError(f"{name}: not the end-to-end metrics of an untraced run")
        seeds = runs.setdefault(match["workload"], {})
        seeds.setdefault(int(match["seed"]), {})[match["side"]] = result
    if not runs:
        raise PairError(f"no run files in {directory}")
    for workload, seeds in runs.items():
        for seed, sides in seeds.items():
            missing = [side for side in SIDES if side not in sides]
            if missing:
                raise PairError(f"{workload} seed {seed}: no {missing[0]} run")
    return runs


def _quartiles(values):
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression verdict of one metric's runs (see the module docstring)."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0 is worse
    allowed = bound * abs(statistics.median(parent))
    if sign * (statistics.median(change) - statistics.median(parent)) > allowed:
        return "worse"
    q1, q3 = _quartiles(parent)
    if q3 - q1 > allowed and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "within bound"


def summarize(seeds: dict, specs: dict) -> dict:
    """The BENCH entry of one workload from {seed: {side: result}}; ``specs``
    maps each end-to-end metric to its BENCHMARK.json entry."""
    order = sorted(seeds)
    first = seeds[order[0]]["parent"]["metrics"]
    metrics = {}
    for metric, spec in first.items():
        values = {side: [seeds[s][side]["metrics"][metric]["value"] for s in order]
                  for side in SIDES}
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        metrics[metric] = {
            "unit": spec["unit"],
            "parent_median": round(parent_median, 4),
            "change_median": round(change_median, 4),
            "ratio": round(change_median / parent_median, 3),
            "parent_quartiles": [round(q, 4) for q in _quartiles(values["parent"])],
            "change_quartiles": [round(q, 4) for q in _quartiles(values["change"])],
            "change_lower_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "verdict": verdict(values["parent"], values["change"],
                               specs[metric]["better"], specs[metric]["bound"]),
        }
    return {
        "seeds": order,
        "pairs": len(order),
        "failed": {side: sum(seeds[s][side]["failed"] for s in order) for side in SIDES},
        "attempted": {side: sum(seeds[s][side]["attempted"] for s in order) for side in SIDES},
        "metrics": metrics,
    }


def build(runs: dict, header: dict, specs: dict) -> dict:
    out = dict(header)
    out["workloads"] = {w: summarize(runs[w], specs) for w in sorted(runs)}
    return out


def dumps(obj, indent: int = 0) -> str:
    """JSON with one key per line and every list on one line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def parse_claim(text: str) -> dict:
    workload, metric, ratio = text.split(":")
    return {"workload": workload, "metric": metric, "target_ratio": float(ratio)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", help="directory of <workload>.<side>.<seed>.json run files")
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_8.json")
    ap.add_argument("--change", required=True, help="one line naming the change")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--machine", required=True, help="machine and Python version")
    ap.add_argument("--pairing", required=True, help="how the runs of a pair were ordered")
    ap.add_argument("--claim", type=parse_claim, default=None,
                    help="WORKLOAD:METRIC:TARGET_RATIO of a claimed gain")
    args = ap.parse_args(argv)
    try:
        runs = load_runs(args.runs)
        with open(BENCHMARK, encoding="utf-8") as fh:
            specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    except (PairError, OSError, json.JSONDecodeError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    header = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "command": ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                    "--seconds 15 --trace 0"),
        "machine": args.machine,
        "pairing": args.pairing,
    }
    if args.claim:
        header["claim"] = args.claim
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps(build(runs, header, specs)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
