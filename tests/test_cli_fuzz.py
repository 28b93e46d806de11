"""Seeded mutation fuzz: malformed problem files never escape as tracebacks.

Each case takes a catalog problem, breaks it in one place (a dropped key, a
value of the wrong type, an index outside 1..n, a list or object of the
wrong length) and runs one CLI command on it.  Whatever the mutation, the
exit code must be 0, 1 or 2, and an exception must never leave ``main``.
"""

import copy
import json
import random

from hhokit.catalog import examples_catalog
from hhokit.cli import main

MUTATIONS = 200
COMMANDS = ("check-op", "check-compat", "classify", "reduce")
# Classifying these two takes about 0.4 s each, the rest a few milliseconds;
# their problems are still mutated and run through the other commands.
SLOW = {("n4-second-order", "classify"), ("oriented-assoc", "classify")}
JUNK = (None, 0, -1, 2.5, True, "x", "", [], {}, [1], {"a": 1}, ["u1"])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def mutate(rng, problem):
    doc = copy.deepcopy(problem)
    n = doc["n"]
    target = rng.choice([p for p in _paths(doc) if p])
    parent = doc
    for k in target[:-1]:
        parent = parent[k]
    key = target[-1]
    node = parent[key]
    kind = rng.choice(("drop", "type", "index", "length"))
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = rng.choice([j for j in JUNK if type(j) is not type(node)])
    elif kind == "index":
        bad = rng.choice((0, -1, n + 1, n + 2))
        if isinstance(node, str):
            parent[key] = rng.choice((f"u{bad}", f"u{bad}_x", f"p{bad}", f"r{bad}", "u1 +"))
        elif isinstance(node, dict) and node:
            old = rng.choice(list(node))
            parts = old.split(",")
            parts[rng.randrange(len(parts))] = str(bad)
            node[",".join(parts)] = node.pop(old)
        else:
            parent[key] = bad
    elif isinstance(node, list) and node:
        if rng.random() < 0.5:
            node.pop(rng.randrange(len(node)))
        else:
            node.append(copy.deepcopy(rng.choice(node)))
    elif isinstance(node, dict) and node:
        node.pop(rng.choice(list(node)))
    else:
        parent[key] = [node, node]
    return doc


def test_mutated_problems_exit_cleanly(tmp_path, capsys):
    rng = random.Random(2024)
    entries = examples_catalog()
    path = tmp_path / "mutated.json"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(MUTATIONS):
        entry = rng.choice(entries)
        command = rng.choice([c for c in COMMANDS if (entry.name, c) not in SLOW])
        doc = mutate(rng, entry.problem)
        path.write_text(json.dumps(doc))
        try:
            code = main([command, "--file", str(path)])
        except Exception as exc:  # the failure to report, with its input
            raise AssertionError(f"{command} raised {exc!r} on {json.dumps(doc)}") from exc
        err = capsys.readouterr().err
        assert code in codes, (command, doc, code)
        assert "Traceback" not in err, (command, doc)
        codes[code] += 1
    # the mutations reach every verdict, not only input errors
    assert all(codes.values()), codes
