"""Every public name is reached by a verb or an acceptance criterion.

A name in geodisc.__all__ counts as reached when cli.py or
tests/test_acceptance.py refers to it, directly or through the source of a
top-level definition in src/geodisc that they reach.  References are read
from the syntax tree (names and attribute names), so a use inside a reached
function body reaches its callees too.
"""

import ast
from pathlib import Path

import geodisc

SRC = Path(geodisc.__file__).resolve().parent
ROOTS = (SRC / "cli.py", Path(__file__).resolve().parent / "test_acceptance.py")

# each unreached name with the item of ROADMAP.md that decides it
ALLOWED = {
    # bench/spans.py wraps the five family builders by name
    "power_pair_map": "bench/spans.py",
    "power_pair_geodesic": "bench/spans.py",
    "squared_sum_triple_map": "bench/spans.py",
    "semilinear_triple_map": "bench/spans.py",
    "ball_power_pair_map": "bench/spans.py",
}


def references(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def top_level_definitions() -> dict:
    defs = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = node
    return defs


def reached_names() -> set:
    defs = top_level_definitions()
    todo = set().union(*(references(ast.parse(path.read_text())) for path in ROOTS))
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in defs:
                todo |= references(defs[name])
    return seen


def test_every_public_name_is_reached_or_allowed():
    unreached = set(geodisc.__all__) - reached_names()
    assert sorted(unreached - set(ALLOWED)) == []
    # an allowed name that is now reached, or gone, leaves the list
    assert sorted(set(ALLOWED) - unreached) == []
