"""Seeded mutations of valid model and rho0 files, run through the CLI.

Each case changes one node of a valid d=2 file: a key or list entry is
dropped, a list gains an entry, or a value becomes a string, null, a
bool, an empty object or list, 1e400 or a 400-digit integer.  Every
run must end in a documented exit code with no exception escaping.
A change that breaks the shape, type or finiteness of a matrix the
command reads, and a 400-digit integer in a top-level scalar field,
must exit 2.
"""

import copy
import json

import numpy as np

from gaussbath.cli import main

CASES = 300
SEED = 5

F = [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [-0.5, 0.0]]]
MODEL = {
    "dim": 2,
    "gamma": 1.0,
    "sigma": 0.3,
    "n": 0.5,
    "m_re": 0.2,
    "m_im": -0.1,
    "alpha_re": 0.1,
    "C": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    "F": F,
    "E": {
        "c00": F,
        "c01": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        "c10": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
        "c11": [[[0.2, 0], [0, 0]], [[0, 0], [-0.1, 0]]],
    },
}
RHO0 = {"rho": [[[0.6, 0.0], [0.1, 0.1]], [[0.1, -0.1], [0.4, 0.0]]]}

OVERFLOW = "__1e400__"
REPLACEMENTS = {
    "string": "x",
    "null": None,
    "bool": True,
    "object": {},
    "list": [],
    "overflow": OVERFLOW,
    "huge": 10**400,
}
COMMANDS = ("steady", "generator", "convert", "evolve")
# The matrices, and the E block itself, that each command decodes.
READS = {
    "steady": [("C",), ("F",)],
    "generator": [("C",), ("F",)],
    "convert": [("C",), ("F",), ("E",)],
    "evolve": [("C",), ("F",), ("rho",)],
}


def nodes(tree, path=()):
    yield path, tree
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree)
    else:
        children = ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(tree, path, op):
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "append":
        node = parent[path[-1]]
        node.append(copy.deepcopy(node[-1]) if node else 0.0)
    else:
        parent[path[-1]] = REPLACEMENTS[op]
    return json.dumps(tree).replace(f'"{OVERFLOW}"', "1e400")


def breaks_read_matrix(command, path):
    """Whether a mutation at `path` breaks a matrix that `command` decodes."""
    return any(path[:len(m)] == m for m in READS[command])


def overflows_scalar(target, path, op, node):
    """Whether the mutation puts a 400-digit integer in a top-level scalar field."""
    scalar = target == "model" and len(path) == 1 and not isinstance(node, (list, dict))
    return scalar and op == "huge"


def run(command, model, rho0, out):
    argv = [command, "--model", model, "--out", out]
    if command == "evolve":
        argv += ["--rho0", rho0, "--t-final", "0.5", "--points", "3"]
    return main(argv)


def test_base_files_run(tmp_path):
    model, rho0 = tmp_path / "model.json", tmp_path / "rho0.json"
    model.write_text(json.dumps(MODEL))
    rho0.write_text(json.dumps(RHO0))
    for command in COMMANDS:
        assert run(command, str(model), str(rho0), str(tmp_path / "out")) == 0


def test_mutated_files_end_in_documented_exit_codes(tmp_path):
    rng = np.random.default_rng(SEED)
    model, rho0 = tmp_path / "model.json", tmp_path / "rho0.json"
    out = str(tmp_path / "out")
    targets = {
        "model": [(p, n) for p, n in nodes(MODEL) if p],
        "rho0": [(p, n) for p, n in nodes(RHO0) if p],
    }
    broken = 0
    for case in range(CASES):
        target = "rho0" if rng.uniform() < 0.25 else "model"
        path, node = targets[target][rng.integers(len(targets[target]))]
        ops = ["drop", *REPLACEMENTS] + (["append"] if isinstance(node, list) else [])
        op = ops[rng.integers(len(ops))]
        model.write_text(mutate(MODEL, path, op) if target == "model" else json.dumps(MODEL))
        rho0.write_text(mutate(RHO0, path, op) if target == "rho0" else json.dumps(RHO0))
        commands = COMMANDS if target == "model" else ("evolve",)
        for command in commands:
            where = f"case {case}: {op} at {target}{list(path)} through {command}"
            try:
                code = run(command, str(model), str(rho0), out)
            except Exception as exc:
                raise AssertionError(f"{where} raised {type(exc).__name__}: {exc}") from exc
            assert code in (0, 2, 3, 4), where
            if breaks_read_matrix(command, path) or overflows_scalar(target, path, op, node):
                broken += 1
                assert code == 2, where
    assert broken > 100
