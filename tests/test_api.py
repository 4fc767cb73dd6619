"""No dead helpers: every public function and class of the package is reached.

A public module-level function or class of `src/lumpwalk/*.py` is live when

- a decorator of its own module registers it at import (the command bodies
  of `cli`);
- it is on the allow-list below of paper-facing library entry points;
- `bench/tracing.py` names it as a boundary the benchmark wraps (a layer's
  "*" names none in particular);
- or a package module other than `__init__`, whose re-exports reach every
  name, refers to it by name: in a module-level statement other than an
  import, or in the body of a live function or class.

The test fails on the names that nothing live reaches.  Tests,
`tests/reference.py` and the rest of `bench/` do not count.
"""

import ast
from pathlib import Path

from tests.test_bench_tracing import load_tracing

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "lumpwalk"

# Paper-facing library entry points that no command calls: the generic
# Markov-chain oracle, the card-shuffle families and the Monte-Carlo
# corroboration, used from Python and throughout the tests.
LIBRARY = {
    "markov": {"stationary_distribution", "lumped_transition_matrix",
               "lumped_matrix_from_start", "compute_Vmax_generic", "time_reversal_matrix"},
    "shuffles": {"symmetric_group", "top_stabilizer", "random_to_top", "top_to_random",
                 "bottom_card_cycle"},
    "simulate": {"simulate_ensemble"},
}


def referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def package_definitions():
    """(module, name) -> names its body refers to, for every top-level function
    and class; the names that other module-level statements refer to; and the
    definitions that a decorator of their own module registers."""
    bodies, statements, registered = {}, set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        local = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[(path.stem, node.name)] = referenced_names(node)
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if isinstance(target, ast.Name) and target.id in local:
                        registered.add((path.stem, node.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements |= referenced_names(node)
    return bodies, statements, registered


def traced_names() -> set[str]:
    tracing = load_tracing()
    names = set()
    for layers in (tracing.BOUNDARIES, tracing.COUNTED_ONLY):
        for specs in layers.values():
            names.update(spec.split(".")[0] for spec in specs if spec != "*")
    return names


def unreached_names() -> list[str]:
    bodies, statements, registered = package_definitions()
    frontier = set(statements) | traced_names()
    for names in LIBRARY.values():
        frontier |= names
    live: set[tuple[str, str]] = set(registered)
    for key in registered:
        frontier |= bodies[key]
    seen: set[str] = set()
    while frontier:
        name = frontier.pop()
        seen.add(name)
        for key, refs in bodies.items():
            if key[1] == name and key not in live:
                live.add(key)
                frontier |= refs - seen
    return sorted(f"{module}.{name}" for module, name in bodies
                  if not name.startswith("_") and (module, name) not in live)


def test_every_public_name_is_reached():
    unreached = unreached_names()
    assert not unreached, "reached by nothing live: " + ", ".join(unreached)


def test_allow_list_names_exist():
    bodies, _, _ = package_definitions()
    for module, names in LIBRARY.items():
        for name in names:
            assert (module, name) in bodies, f"{module}.{name}"
