"""The library is what a run reaches.

Every top-level function or class of ``src/ssf_lab`` is reached, by name,
from ``harness.run``, ``cli.main`` or a name that ``perfbench/`` or
``scripts/`` uses, unless it is on ``ALLOWED`` with its reason.  Code that
only tests call lives in ``tests/``.

The walk is by name, not by import: a reached body reaches every top-level
definition of any module whose name it mentions, and a module-level
assignment is walked when its target is reached.  Statements at module level
other than definitions, assignments and imports run at import and are roots.
"""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ssf_lab")

# reached by no run yet, each kept for the reason given
ALLOWED = {
    "boundary_value_extrapolate": "the time-independent reference for thm3 (ROADMAP item 5)",
    "report_identity_bytes": "defines the byte identity that report checks compare",
}


def _python_files(directory: str) -> list:
    return sorted(os.path.join(directory, name) for name in os.listdir(directory)
                  if name.endswith(".py"))


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _mentions(node) -> set:
    """Every name, attribute and identifier-like string constant under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _library():
    """(definitions, bodies, roots): the (module, name) of every top-level
    def or class; the nodes each top-level name binds, per name; and the
    names module-level code mentions."""
    definitions, bodies, roots = set(), {}, set()
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.add((module, node.name))
                bodies.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in _mentions(target):
                        bodies.setdefault(name, []).append(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                roots |= _mentions(node)
    return definitions, bodies, roots


def _reached(bodies: dict, start: set) -> set:
    reached, todo = set(), list(start)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in bodies.get(name, ()):
            todo.extend(_mentions(node) - reached)
    return reached


def _script_names() -> set:
    names = set()
    for directory in ("perfbench", "scripts"):
        for path in _python_files(os.path.join(ROOT, directory)):
            names |= _mentions(_parse(path))
    return names


def test_every_definition_is_reached():
    definitions, bodies, roots = _library()
    start = {"run", "main"} | _script_names() | roots | set(ALLOWED)
    reached = _reached(bodies, start)
    unreached = sorted(f"{module}.{name}" for module, name in definitions
                       if name not in reached)
    assert unreached == [], (
        f"{len(unreached)} definitions in src/ssf_lab are reached by no run: "
        + ", ".join(unreached))


def test_allowlist_names_definitions():
    definitions, _, _ = _library()
    assert set(ALLOWED) <= {name for _, name in definitions}
