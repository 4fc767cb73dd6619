"""No dead helpers: every function, class and class member of the package is reached.

A module-level function or class of `src/lumpwalk/*.py` is live when

- a decorator of its own module registers it at import (the command bodies
  of `cli`);
- it is on the allow-list below of paper-facing library entry points;
- `bench/tracing.py` names it as a boundary the benchmark wraps (a layer's
  "*" names none in particular);
- or a package module other than `__init__`, whose re-exports reach every
  name, refers to it by name: in a module-level statement other than an
  import, or in the body of a live function, class or member.

A member of a live class, that is a method, a property or an attribute its
`__init__` assigns on `self`, is live when live package code or a file
`bench/*.py` refers to an attribute of that name, `bench/tracing.py`
names it as a boundary, or it is on the allow-list of library members.  The body of a class, with its dunder methods and
field declarations, is live with the class; the body of any other method
only with the member.  Dunders and dataclass fields are not members here.

The tests fail on the names that nothing live reaches, public and private
(a leading underscore) alike, so a private helper cannot outlive its last
caller.  Tests, `tests/reference.py` and the rest of `bench/` do not count.

Two more guards keep the package readable: no source line of it is longer
than 100 characters, and one function, `scalars.content_lines`, cuts an
input line at its `#` comment.
"""

import ast
from pathlib import Path

from tests.test_bench_tracing import load_tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "lumpwalk"

# Paper-facing library entry points that no command calls.  The card-shuffle
# families stay in the package because they are the paper's top-card
# application, and `conftest.py` and most test modules build their decks from
# them.  The walk matrix of a weight stays because `bench/tracing.py` times
# it, `bench/test_bench.py` and `bench/run.py --confirm` build chains with it,
# and the tests' chain oracle reads every group verdict against it; no
# command builds a chain from a group.  The left-coset lumping map as a
# generic lumping function stays for the same readers: `bench/run.py
# --confirm` and the tests hand it to the chain oracle beside that matrix,
# while the commands read the coset labels and count off the problem.  The
# chain oracle's own tools live in `tests/oracle_suite.py`, beside the suite
# that runs them.
LIBRARY = {
    "shuffles": {"symmetric_group", "top_stabilizer", "random_to_top", "top_to_random",
                 "bottom_card_cycle"},
    "markov": {"transition_from_weight"},
    "lumping": {"lumping_function"},
}
# Library members that no command reads (none: an induced ideal holds its
# cut only as the integer echelon that the commands read).
LIBRARY_MEMBERS = set()


def references(*nodes) -> tuple[set[str], set[str]]:
    """The names the nodes refer to, bare or as an attribute, and the attribute
    names alone, where an assignment to an attribute does not count."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
                if not isinstance(sub.ctx, ast.Store):
                    attributes.add(sub.attr)
    return names, attributes


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def init_attributes(cls: ast.ClassDef) -> set[str]:
    """The attributes that the `__init__` of a class assigns on `self`."""
    out = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for sub in ast.walk(item):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    out.add(sub.attr)
    return out


def package_definitions():
    """The references of every top-level function and class, keyed by
    (module, name), a class without the bodies of its non-dunder methods; of
    every such method and `__init__` attribute, keyed by (module, class,
    member); of the other module-level statements; and the definitions that
    a decorator of their own module registers."""
    bodies, members, statements, registered = {}, {}, (set(), set()), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        local = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[(path.stem, node.name)] = references(node)
            elif isinstance(node, ast.ClassDef):
                own = []
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                        members[(path.stem, node.name, item.name)] = references(item)
                    else:
                        own.append(item)
                for attribute in init_attributes(node):
                    members.setdefault((path.stem, node.name, attribute), (set(), set()))
                bodies[(path.stem, node.name)] = references(
                    *own, *node.bases, *node.keywords, *node.decorator_list)
            else:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    for reached, found in zip(statements, references(node)):
                        reached |= found
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if isinstance(target, ast.Name) and target.id in local:
                    registered.add((path.stem, node.name))
    return bodies, members, statements, registered


def traced_specs() -> list[list[str]]:
    """Each boundary that `bench/tracing.py` wraps, split at its dot."""
    tracing = load_tracing()
    return [spec.split(".") for layers in (tracing.BOUNDARIES, tracing.COUNTED_ONLY)
            for specs in layers.values() for spec in specs if spec != "*"]


def bench_attributes() -> set[str]:
    out = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        out |= references(ast.parse(path.read_text()))[1]
    return out


def live_definitions():
    """The definitions, the members, and which of each are live."""
    bodies, members, (names, attributes), registered = package_definitions()
    specs = traced_specs()
    names = names | {spec[0] for spec in specs}
    attributes = attributes | {spec[1] for spec in specs if len(spec) == 2} | bench_attributes()
    for library in LIBRARY.values():
        names |= library
    live, live_members = set(), set()
    grown = True
    while grown:
        grown = False
        for key, (refs, attrs) in bodies.items():
            if key not in live and (key in registered or key[1] in names):
                live.add(key)
                names |= refs
                attributes |= attrs
                grown = True
        for key, (refs, attrs) in members.items():
            if key not in live_members and key[:2] in live and (
                    key[2] in attributes or key in LIBRARY_MEMBERS):
                live_members.add(key)
                names |= refs
                attributes |= attrs
                grown = True
    return bodies, members, live, live_members


def unreached_names(private: bool) -> list[str]:
    bodies, _, live, _ = live_definitions()
    return sorted(f"{module}.{name}" for module, name in bodies
                  if name.startswith("_") == private and (module, name) not in live)


def unreached_members(private: bool) -> list[str]:
    """The unreached members of the live classes; private ones are those of a
    private class or with a private name."""
    _, members, live, live_members = live_definitions()
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in members
                  if (cls.startswith("_") or name.startswith("_")) == private
                  and (module, cls) in live and (module, cls, name) not in live_members)


def test_every_public_name_is_reached():
    unreached = unreached_names(private=False)
    assert not unreached, "reached by nothing live: " + ", ".join(unreached)


def test_every_public_member_is_reached():
    unreached = unreached_members(private=False)
    assert not unreached, "reached by nothing live: " + ", ".join(unreached)


def test_every_private_helper_is_reached():
    unreached = unreached_names(private=True) + unreached_members(private=True)
    assert not unreached, "reached by nothing live: " + ", ".join(unreached)


def test_allow_list_names_exist():
    bodies, members, _, _ = package_definitions()
    for module, names in LIBRARY.items():
        for name in names:
            assert (module, name) in bodies, f"{module}.{name}"
    for key in LIBRARY_MEMBERS:
        assert key in members, ".".join(key)


def unused_imports() -> list[str]:
    """The names a package module other than `__init__` imports and never
    refers to; `from __future__` imports bind no name."""
    out = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        out += [f"{path.stem}: {name}" for name in sorted(imported) if name not in used]
    return out


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, "imported and never used: " + ", ".join(unused)


MAX_LINE = 100  # characters, the limit `cli.py` was brought under first


def test_source_lines_fit_the_line_limit():
    long_lines = [f"{path.name}:{number}: {len(line)}"
                  for path in sorted(PACKAGE_DIR.glob("*.py"))
                  for number, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > MAX_LINE]
    assert not long_lines, f"lines over {MAX_LINE} characters: " + ", ".join(long_lines)


def comment_splits() -> list[str]:
    """The innermost function (or module) of each call in the package that
    splits or partitions a string at `#`."""
    out = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("split", "rsplit", "partition", "rpartition")):
                continue
            separators = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "sep")]
            if any(isinstance(s, ast.Constant) and s.value == "#" for s in separators):
                out.append(owner.get(id(call), path.stem))
    return out


def test_the_comment_rule_is_in_one_place():
    """Every input parser reads its lines through `scalars.content_lines`,
    the one function that cuts a line at its `#` comment."""
    assert comment_splits() == ["scalars.content_lines"]
