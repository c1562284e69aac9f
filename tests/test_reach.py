"""The library is what a run reaches, and ingest accepts what a run sets.

Every top-level function or class of ``src/ssf_lab`` is reached, by name,
from ``harness.run``, ``cli.main`` or a name that ``perfbench/`` or
``scripts/`` uses, unless it is on ``ALLOWED`` with its reason.  Code that
only tests call lives in ``tests/``.

The walk is by name, not by import: a reached body reaches every top-level
definition of any module whose name it mentions, and a module-level
assignment is walked when its target is reached.  Statements at module level
other than definitions, assignments and imports run at import and are roots.

Every top-level key a config of an experiment or variant may give, and every
variant, escape kind and kind of a potential, window or test-function block
that ingest accepts, is set by a config a run ingests, unless it is on
``VALUES_ALLOWED`` with its reason.  A default counts as set by every config
that omits its key.
"""
import ast
import json
import os

import pytest

from ssf_lab import harness
from ssf_lab.harness import ExperimentConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ssf_lab")

# reached by no run yet, each kept for the reason given
ALLOWED = {
    "boundary_value_extrapolate": "the time-independent reference for thm3 (ROADMAP item 5)",
    "report_identity_bytes": "defines the byte identity that report checks compare",
}

# accepted at ingest and set by no run yet, each kept for the reason given
VALUES_ALLOWED = {
    ("escape_kind", "general"): "the escape check along a general generator, which ROADMAP "
                                "item 15 builds on",
    ("test_function", "raised_cosine"): "the third test-function kind of ROADMAP item 16",
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


# ---------------------------------------------------------------------------
# config keys and values
# ---------------------------------------------------------------------------


def _kinds_compared(module: str, name: str) -> set:
    """The string constants that the top-level ``name`` of ``module``
    compares a ``kind`` (a name or an attribute) against."""
    node, = (node for node in _parse(os.path.join(PACKAGE, module + ".py")).body
             if getattr(node, "name", None) == name)
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Compare) and any(
                getattr(operand, "id", getattr(operand, "attr", None)) == "kind"
                for operand in [sub.left, *sub.comparators]):
            out |= {c.value for operand in [sub.left, *sub.comparators]
                    for c in ast.walk(operand)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def _defaulted_keys() -> set:
    """The top-level keys the harness reads with a default: as
    ``doc.get(key, default)``, or as a block (``_block``), which reads {}
    where the config omits it."""
    out = set()
    for sub in ast.walk(_parse(os.path.join(PACKAGE, "harness.py"))):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr == "get" \
                and getattr(func.value, "id", None) == "doc" and len(sub.args) == 2:
            key = sub.args[0]
        elif getattr(func, "id", None) == "_block":
            key = sub.args[1]
        else:
            continue
        if isinstance(key, ast.Constant):
            out.add(key.value)
    return out


def _run_configs() -> list:
    """Every config a run ingests, sweep children included: the files in
    ``configs/`` and the sweep perfbench builds (its other runs read those
    files and change only their ladders and tau grids); ``scripts/`` runs
    no config."""
    docs = []
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", name)) as fh:
            docs.append(json.load(fh))
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import workloads
    docs.append(workloads.zoo_config())
    configs = [ExperimentConfig.from_dict(doc) for doc in docs]
    for cfg in configs:  # grows by each sweep's children
        configs.extend(cfg.inputs.get("children", ()))
    return configs


def _accepted() -> set:
    """Every key of each experiment or variant, and every value, that ingest
    accepts, from the harness's tables and the kinds its readers compare."""
    accepted = {("key", kind, key) for kind, keys in harness._KEYS.items()
                for key in harness._COMMON_KEYS + keys}
    accepted |= {("variant", v) for variants in harness._VARIANTS.values() for v in variants}
    accepted |= {("escape_kind", kind) for kind in harness._HYPOTHESIS["check-escape"]}
    for what, (module, name) in {"potential": ("symbols", "model_potential"),
                                 "window": ("quantization", "WindowTheta"),
                                 "test_function": ("harness", "_test_function_from")}.items():
        accepted |= {(what, value) for value in _kinds_compared(module, name)}
    return accepted


def _set(configs: list) -> set:
    """What the configs set: each key a config gives, and a default key
    where it omits one; each value as ingest parsed it, so with its
    default where the config omits its key."""
    defaulted = _defaulted_keys()
    out = set()
    for cfg in configs:
        inputs = cfg.inputs
        out |= {("key", cfg.variant or cfg.experiment, key) for key in set(cfg.raw) | defaulted}
        if cfg.variant:
            out.add(("variant", cfg.variant))
        if cfg.experiment == "check-escape":
            out.add(("escape_kind", inputs["certificate"][0]))
        out |= {("potential", cfg.raw[block]["kind"]) for block in ("potential", "perturbation")
                if block in cfg.raw}
        if "window" in inputs:
            out.add(("window", inputs["window"].kind))
        if "f" in inputs:
            out.add(("test_function", inputs["f"].kind))
    return out


def test_every_accepted_key_and_value_is_set():
    unset = _accepted() - _set(_run_configs())
    extra = sorted(unset - set(VALUES_ALLOWED))
    assert extra == [], f"{len(extra)} accepted config keys or values are set by no run: {extra}"
    # and each allowlist entry is still accepted and still set by no run
    assert set(VALUES_ALLOWED) <= unset
