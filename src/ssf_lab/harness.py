"""Experiment orchestration: JSON configs in, CSV tables and reports out.

A config names one experiment (hypothesis check, coefficient profile, trace
sweep, or shift-function sweep), the model potential, the grid rule, the
h-list, windows and test functions, and verdict thresholds.  ``run`` executes
it deterministically (given the config) and writes

* ``data.csv``    -- the per-row table for the experiment,
* ``report.json`` -- config echo, embedded certificates, tables, verdicts,
                     and wall-clock timings.

Verdicts are recomputable from the CSV alone; byte-identity of reports is
defined modulo the timings block (see ``report_identity_bytes``).

The trace and ssf experiments are h-sweeps, run by ``_run_sweep``: each
writes the rows of one ``SweepReport`` (columns h, value, reference,
rel_error, fitted_slope) and its verdict.  Every config is refused at
ingest where its run cannot finish, and a sweep's verdict is issued only
where a certificate carries the hypothesis (``_HYPOTHESIS``, ``_KINDS``); its
checks are the numerics alone.
``ConfigError`` lives beside that report in the quantization module and is
re-exported here.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeffs
from . import microhyperbolicity as mh
from . import quantization as qz
from . import ssf as ssf_mod
from .bumps import Bump1D, ProductCutoff, dilation_generator
from .quantization import ConfigError
from .symbols import (MODEL_PARAMS, MatrixPotential, combine_potentials, model_potential,
                      schrodinger_symbol)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "reference_potential",
    "run",
    "report_identity_bytes",
]

SCHEMA_VERSION = 1


def reference_potential() -> MatrixPotential:
    """The two-channel Gaussian reference model used by the stock experiments."""
    return model_potential("reference")


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# the top-level keys each experiment reads, besides these, and for a trace
# or ssf h-sweep those of its variant; any other is a ConfigError that names it
_COMMON_KEYS = ("schema_version", "experiment", "out")
_SWEEP_KEYS = ("variant", "potential", "h_list", "grid", "thresholds")
_KEYS = {
    "check-mh": ("potential", "tau0", "check"),
    "check-escape": ("potential", "tau0", "escape_kind", "check"),
    "coeffs": ("potential", "tau_grid"),
    "sweep": ("experiments",),
    "thm1": _SWEEP_KEYS + ("window", "test_function", "tau0", "cutoff", "check"),
    "thm2": _SWEEP_KEYS + ("window", "test_function", "tau_grid", "cutoff", "perturbation",
                           "d_sep"),
    "thm3": _SWEEP_KEYS + ("window", "test_function", "tau0", "cutoff", "check"),
    "weak": _SWEEP_KEYS + ("test_function", "tau0", "check"),
    "weyl": _SWEEP_KEYS + ("window", "tau0", "tau_grid", "check"),
    "derivative": _SWEEP_KEYS + ("window", "test_function", "tau0", "check"),
}
_VARIANTS = {
    "trace": ("thm1", "thm2", "thm3"),
    "ssf": ("weak", "weyl", "derivative"),
}
EXPERIMENTS = ("check-mh", "check-escape", "coeffs", *_VARIANTS, "sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    """A config as read, and every input its runner reads (``_inputs_from``)."""

    raw: dict
    experiment: str
    variant: str | None
    out: str
    inputs: dict

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        experiment = doc.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
        variant = doc.get("variant")
        if experiment in _VARIANTS and variant not in _VARIANTS[experiment]:
            raise ConfigError(
                f"{experiment} needs variant in {_VARIANTS[experiment]}, got {variant!r}"
            )
        kind = variant if experiment in _VARIANTS else experiment
        name = experiment if kind == experiment else f"{experiment} {kind}"
        if "check" in doc and kind not in _HYPOTHESIS:
            raise ConfigError(f"{name} takes no check block: no certificate gates it")
        _refuse_extra(f"a {name} config", doc, _COMMON_KEYS + _KEYS[kind])
        return ExperimentConfig(raw=doc, experiment=experiment, variant=variant,
                                out=str(doc.get("out", "out")),
                                inputs=_inputs_from(doc, experiment, kind))

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _refuse_extra(what: str, block: dict, keys: tuple, prefix: str = "") -> None:
    """ConfigError naming every key of ``block`` outside ``keys``."""
    extra = ", ".join(prefix + key for key in sorted(set(block) - set(keys)))
    if extra and not keys:
        raise ConfigError(f"{what} takes nothing, not {extra}")
    if extra:
        listed = keys[0] if len(keys) == 1 else ", ".join(keys[:-1]) + " and " + keys[-1]
        raise ConfigError(f"{what} takes {listed} only, not {extra}")


def _number(value, key: str, integer: bool = False):
    """The finite number at the config's ``key``, a float, or for ``integer``
    an int that JSON spells as an integer; a ConfigError names the key for
    anything else, a string, a bool, null, NaN or Infinity included."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a finite number'}, "
                          f"got {value!r}")
    return int(value) if integer else float(value)


def _positive(value, key: str) -> float:
    """The positive finite number at the config's ``key``."""
    number = _number(value, key)
    if not number > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return number


def _numbers(value, key: str, length: int | None = None) -> tuple:
    """The list of numbers at the config's ``key``, of ``length`` entries where given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"{key} must be a list of {count}numbers, got {value!r}")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(value))


def _interval(value, key: str) -> tuple:
    """The [lo, hi] pair at the config's ``key``, with hi > lo."""
    lo, hi = _numbers(value, key, 2)
    if not hi > lo:
        raise ConfigError(f"{key} must be [lo, hi] with hi > lo, got {value!r}")
    return lo, hi


def _block(doc: dict, name: str, keys: tuple) -> dict:
    """The config's ``name`` block; ConfigError naming every key outside ``keys``."""
    block = doc.get(name) or {}
    _refuse_extra(name, block, keys, name + ".")
    return block


def _model(name: str, spec) -> MatrixPotential:
    """The model potential of the config's ``name`` block, which takes kind
    and params only, and of its params those its kind reads."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"config needs {name}: {{kind, params}}")
    _refuse_extra(name, spec, ("kind", "params"), name + ".")
    kind, params = spec["kind"], spec.get("params", {})
    try:
        if kind in MODEL_PARAMS:
            _refuse_extra(f"the {kind} {name}", params, MODEL_PARAMS[kind], f"{name}.params.")
        return model_potential(kind, **params)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad {name} spec: {exc}") from exc


def _grids_from(doc: dict, hs: tuple, default_R: float) -> list[qz.Grid1D]:
    """The grid of each h of ``hs``, the config's h_list, by ``qz.grid_for``
    from the grid block's R, tau_max and m_cap; tau_max is required."""
    g = _block(doc, "grid", ("R", "tau_max", "m_cap"))
    if g.get("tau_max") is None:
        raise ConfigError("grid needs tau_max, the top of the energies its grids resolve")
    R = _positive(g.get("R", default_R), "grid.R")
    tau_max = _positive(g["tau_max"], "grid.tau_max")
    m_cap = _number(g.get("m_cap", 8192), "grid.m_cap", integer=True)
    return [qz.grid_for(h, R, tau_max, m_cap) for h in hs]


# the variants whose checks read the even window alone
_EVEN_WINDOW = ("thm3", "weyl", "derivative")


def _window_from(doc: dict, variant: str) -> qz.WindowTheta:
    """The config's window, one for every h: thm1 defaults to the one-sided
    window at eps 0.3, every other variant to the even window at eps 0.25.
    The block takes kind and eps only, and thm3, weyl and derivative take
    the even kind alone."""
    w = _block(doc, "window", ("kind", "eps"))
    thm1 = variant == "thm1"
    kind = w.get("kind", "bump_positive" if thm1 else "bump_at_zero")
    if variant in _EVEN_WINDOW and kind != "bump_at_zero":
        raise ConfigError(f"{variant} needs window.kind 'bump_at_zero', got {kind!r}")
    try:
        return qz.WindowTheta(kind=kind, eps=_number(w.get("eps", 0.3 if thm1 else 0.25),
                                                     "window.eps"))
    except ValueError as exc:
        raise ConfigError(f"bad window: {exc}") from exc


def _test_function_from(doc: dict) -> coeffs.TestFunction:
    """The config's test function; the block takes kind, support and, for
    the plateau kind alone, plateau."""
    tf = _block(doc, "test_function", ("kind", "support", "plateau"))
    kind = tf.get("kind", "bump")
    if "plateau" in tf and kind != "plateau":
        raise ConfigError(f"test_function.plateau is read by the plateau kind alone, "
                          f"not by {kind!r}")
    support = _numbers(tf.get("support", (1.8, 2.2)), "test_function.support", 2)
    try:
        if kind == "bump":
            return coeffs.bump_test_function(support)
        if kind == "plateau":
            plateau = tf.get("plateau")
            return coeffs.plateau_test_function(
                support, None if plateau is None else _numbers(plateau, "test_function.plateau", 2)
            )
        if kind == "raised_cosine":
            return coeffs.raised_cosine_test_function(support)
    except ValueError as exc:
        raise ConfigError(f"bad test_function: {exc}") from exc
    raise ConfigError(f"unknown test function kind {kind!r}")


def _cutoff_from(doc: dict) -> ProductCutoff:
    c = _block(doc, "cutoff", ("x", "xi"))

    def bump(axis: str) -> Bump1D:
        b = c.get(axis) or {}
        _refuse_extra(f"cutoff.{axis}", b, ("center", "halfwidth"), f"cutoff.{axis}.")
        return Bump1D(center=_number(b.get("center", 0.0), f"cutoff.{axis}.center"),
                      halfwidth=_positive(b.get("halfwidth", 2.0), f"cutoff.{axis}.halfwidth"))

    return ProductCutoff(g=bump("x"), k=bump("xi"))


def _tau_grid_from(doc: dict) -> np.ndarray:
    tg = _block(doc, "tau_grid", ("lo", "hi", "count"))
    lo = _number(tg.get("lo", 1.8), "tau_grid.lo")
    hi = _number(tg.get("hi", 2.2), "tau_grid.hi")
    count = _number(tg.get("count", 21), "tau_grid.count", integer=True)
    if not (hi > lo and count >= 2):
        raise ConfigError("tau_grid needs hi > lo and count >= 2")
    return np.linspace(lo, hi, count)


# The certificate kinds: the microhyperbolicity function that makes each, by
# name, read at the call so that tests and spans that rebind it take effect;
# its arguments from the potential; and its check-block keys with defaults,
# grid_points among them.
_KINDS = {
    "shell": ("check_on_energy_shell", lambda v: {"p": schrodinger_symbol(v)},
              {"box": [[-4.0, 4.0], [-3.0, 3.0]], "grid_points": 61, "shell_tol": None,
               "T": None}),
    "dilation": ("escape_check_dilation", lambda v: {"v": v},
                 {"x_range": (-8.0, 8.0), "grid_points": 2001}),
    "general": ("escape_check_general",
                lambda v: {"p": schrodinger_symbol(v), "g": dilation_generator()},
                {"box": [[-4.0, 4.0], [-3.0, 3.0]], "grid_points": 61, "shell_tol": None}),
}
# The kinds each experiment or variant takes, its default first (check-escape
# names another by escape_kind); thm2, absent, takes none.  A sweep whose
# certificate does not carry the hypothesis is NOT_CERTIFIED, save _UNGATED's.
_HYPOTHESIS = {"check-mh": ("shell",), "check-escape": ("dilation", "general"),
               "thm1": ("shell",), "thm3": ("shell",),
               "weak": ("dilation",), "weyl": ("dilation",), "derivative": ("dilation",)}
_UNGATED = ("weak",)


def _certificate_request(doc: dict, kind: str, inputs: dict) -> tuple:
    """The (kind, arguments, key) request of an experiment or variant ``kind``:
    its check block over the defaults of the kind and of a trace's cutoff, and
    the run-wide key of the spelled potential and arguments.  T is not zero."""
    kinds = _HYPOTHESIS[kind]
    cert_kind = doc.get("escape_kind", kinds[0])
    if cert_kind not in kinds:
        raise ConfigError(f"escape_kind must be {' or '.join(map(repr, kinds))}, got {cert_kind!r}")
    defaults = _KINDS[cert_kind][2]
    chk = dict(defaults)
    if "chi" in inputs:
        chi = inputs["chi"]
        chk.update(box=[list(chi.x_support), list(chi.xi_support)], grid_points=41)
    chk.update(_block(doc, "check", tuple(defaults)))
    args = {"tau0": inputs["tau0"], **{key: chk[key] for key in defaults}}
    args["grid_points"] = _number(args["grid_points"], "check.grid_points", integer=True)
    if args["grid_points"] < 2:
        raise ConfigError(f"check.grid_points must be at least 2, got {chk['grid_points']!r}")
    if "x_range" in args:
        args["x_range"] = _interval(args["x_range"], "check.x_range")
    if "box" in args:
        box = args["box"]
        if not isinstance(box, (list, tuple)) or len(box) != 2:
            raise ConfigError(f"check.box must be two [lo, hi] pairs, got {box!r}")
        args["box"] = tuple(_interval(side, f"check.box[{i}]") for i, side in enumerate(box))
    if args.get("shell_tol") is not None:
        args["shell_tol"] = _positive(args["shell_tol"], "check.shell_tol")
    if args.get("T") is not None:
        args["T"] = np.asarray(_numbers(args["T"], "check.T", 2))
        if not np.any(args["T"]):
            raise ConfigError(f"check.T must not be zero, got {chk['T']!r}")
    return cert_kind, args, json.dumps([cert_kind, inputs["model"], args], default=list)


def _certificate(inputs: dict, shared: dict):
    """The certificate of a config's request, made once per run (``shared``)."""
    kind, args, key = inputs["certificate"]
    if key not in shared:
        name, model, _ = _KINDS[kind]
        shared[key] = getattr(mh, name)(**model(inputs["v"]), **args)
    return shared[key]


# the config key and input of the energies at which each experiment takes
# gamma0 or a0 of its potential: coeffs and weyl take a0, so a zero limit
_REFERENCE_ENERGIES = {"coeffs": ("tau_grid", "taus"), "weyl": ("tau_grid", "taus"),
                       "derivative": ("tau0", "tau0")}


def _inputs_from(doc: dict, experiment: str, kind: str) -> dict:
    """Every input a config's runner reads, one for each top-level key of its
    experiment or variant ``kind``; a sweep's are its children's configs.
    Besides each block's refusals: the ladder (``qz._check_ladder``), the
    top energy, of supp f or weyl's tau grid, above tau_max (WindowRangeError),
    a window that reads its profile past the profile's table, a cutoff that
    breaks a grid's margins (``qz._check_margins``), and the energies the
    closed-form references refuse (``coeffs._check_energies``)."""
    if experiment == "sweep":
        if not isinstance(doc.get("experiments"), list) or not doc["experiments"]:
            raise ConfigError("sweep needs a non-empty 'experiments' list")
        children = []
        for i, sub in enumerate(doc["experiments"]):
            if isinstance(sub, dict) and "out" in sub:
                raise ConfigError(f"experiments[{i}].out is not read: a sweep writes "
                                  f"its child {i} to <out>/{i:02d}_<experiment>")
            # a child is a config of its own, in the sweep's schema
            children.append(ExperimentConfig.from_dict(
                {"schema_version": SCHEMA_VERSION, **sub} if isinstance(sub, dict) else sub))
        return {"children": children}
    keys = _KEYS[kind]
    spec = doc.get("potential")
    # one run shares pairs and certificates where the potentials, as spelled, agree
    inputs = {"v": _model("potential", spec),
              "model": json.dumps([spec["kind"], spec.get("params", {})], sort_keys=True)}
    if "h_list" in keys:
        if doc.get("h_list") is None:
            raise ConfigError(f"{experiment} needs an h_list")
        hs = _numbers(doc["h_list"], "h_list")
        if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
            raise ConfigError("h_list must be strictly decreasing")
        if any(h <= 0 for h in hs):
            raise ConfigError("h values must be positive")
        qz._check_ladder(hs)
        # the decay variants' verdicts read the fitted order alone
        thresholds = _block(doc, "thresholds", ("order",) if kind in ("thm1", "thm2")
                            else ("order", "rel"))
        inputs["limits"] = {f"{key}_threshold": _number(val, f"thresholds.{key}")
                            for key, val in thresholds.items()}
        inputs["grids"] = _grids_from(doc, hs, default_R=6.0 if experiment == "trace" else 8.0)
    if "tau0" in keys:
        inputs["tau0"] = _number(doc.get("tau0", 1.0 if experiment in ("check-mh", "trace")
                                         else 2.0), "tau0")
    if "window" in keys:
        inputs["window"] = _window_from(doc, kind)
    if "test_function" in keys:
        inputs["f"] = _test_function_from(doc)
    if "perturbation" in keys:
        inputs["v1"] = combine_potentials(inputs["v"],
                                          _model("perturbation", doc.get("perturbation")))
        inputs["d_sep"] = _number(doc.get("d_sep", 2.0), "d_sep")
    if "tau_grid" in keys:
        inputs["taus"] = _tau_grid_from(doc)
    if "cutoff" in keys:
        inputs["chi"] = _cutoff_from(doc)
    if "grids" in inputs and "f" in inputs:
        qz._check_window(inputs["grids"][0], inputs["f"].support[1])
    elif "grids" in inputs:
        qz._check_window(inputs["grids"][0], float(inputs["taus"][-1]), "tau")
    if "window" in inputs and "f" in inputs:
        # the traces and the mollified density read the window profile at
        # y = eps |tau - s| / h for s in supp f, farthest at the last h; past
        # its table the profile reads 0.  weyl reads its primitive, which
        # saturates there
        taus = np.atleast_1d(inputs["taus"] if "taus" in inputs else inputs["tau0"])
        eps, h = inputs["window"].eps, inputs["grids"][-1].h
        y_max = eps * float(np.max(np.abs(taus[:, None] - inputs["f"].support))) / h
        if y_max > qz._PROFILE_YMAX:
            raise ConfigError(f"window.eps {eps:g} at h={h:g} reads the window profile up to "
                              f"y = {y_max:.1f}, past the end of its table at "
                              f"y = {qz._PROFILE_YMAX:g}")
    if "chi" in inputs:
        for grid in inputs["grids"]:
            try:
                qz._check_margins(inputs["chi"], grid)
            except qz.SupportMarginError as exc:
                raise ConfigError(f"cutoff at h={grid.h:g}: {exc}") from exc
    if experiment == "ssf":
        try:
            ssf_mod._check_edge(inputs["v"], inputs["grids"][0].R)
        except ssf_mod.MarginError as exc:
            raise ConfigError(f"grid.R: {exc}") from exc
    if kind in _REFERENCE_ENERGIES:
        key, name = _REFERENCE_ENERGIES[kind]
        try:
            coeffs._check_energies(inputs["v"], inputs[name], zero_limit=kind != "derivative")
        except coeffs.ThresholdError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"potential: {exc}") from exc
    if kind in _HYPOTHESIS:
        inputs["certificate"] = _certificate_request(doc, kind, inputs)
        inputs["gated"] = kind not in _UNGATED
    return inputs


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

# Each runner returns its one table, (columns, rows) with the rows lists of
# Python scalars, its certificates as JSON dicts, and its verdicts.


def _sweep_table(rep: qz.SweepReport | None) -> tuple:
    """The table of an h-sweep; no rows when the sweep did not run."""
    return list(qz.SweepReport.COLUMNS), [] if rep is None else list(rep.rows())


def _run_certificate(cfg: ExperimentConfig, shared: dict):
    """check-mh or check-escape: one certificate, its sample points as rows."""
    cert = _certificate(cfg.inputs, shared)
    if cfg.experiment == "check-mh":
        columns, points = ["x", "xi"], cert.points
        verdicts = {"microhyperbolic": "PASS" if cert.valid
                    else ("EMPTY_SHELL" if cert.empty_shell else "FAIL")}
    else:
        columns, points = ["x", "k_or_xi"], cert.samples
        verdicts = {"escape": "PASS" if cert.valid else "FAIL"}
    rows = np.asarray(points, dtype=float).reshape(-1, 2).tolist()
    return (columns, rows), [cert.to_json_dict()], verdicts


def _run_coeffs(cfg: ExperimentConfig):
    profile = coeffs.coefficient_profile(cfg.inputs["v"], cfg.inputs["taus"])
    rows = np.column_stack([profile.tau_grid, profile.gamma0, profile.a0]).tolist()
    return (["tau", "gamma0", "a0"], rows), [], {"coeffs": "COMPLETE"}


def _run_sweep(cfg: ExperimentConfig, shared: dict):
    """One trace or ssf h-sweep, gated by its hypothesis (``_HYPOTHESIS``): a
    certificate neither valid nor on an empty shell gives NOT_CERTIFIED
    before any operator or pair is built, save where the variant records it
    ungated.  The configs of one run share certificates and pairs (``shared``)."""
    inputs, variant = cfg.inputs, cfg.variant
    v, grids, limits = inputs["v"], inputs["grids"], inputs["limits"]
    chi, f, window, tau0, taus = map(inputs.get, ("chi", "f", "window", "tau0", "taus"))
    certificates = []
    if "certificate" in inputs:
        cert = _certificate(inputs, shared)
        certificates.append(cert.to_json_dict())
        if inputs["gated"] and not cert.certifies:
            return _sweep_table(None), certificates, {variant: "NOT_CERTIFIED"}

    if variant == "thm1":
        rep = qz.theorem1_check(v, chi, f, tau0, grids, window, **limits)
    elif variant == "thm2":
        rep = qz.theorem2_check(v, inputs["v1"], chi, f, taus, grids, window,
                                d_sep=inputs["d_sep"], **limits)
    elif variant == "thm3":
        rep = qz.theorem3_check(v, chi, f, tau0, grids, window, **limits)
    else:
        pairs = []
        for grid in grids:
            key = ("pair", inputs["model"], grid)
            if key not in shared:
                shared[key] = ssf_mod.build_pair(v, grid)
            pairs.append(shared[key])
        if variant == "weak":
            rep = ssf_mod.weak_check(pairs, f, coeffs.c0(v, f), **limits)
        elif variant == "weyl":
            rep = ssf_mod.weyl_check(pairs, taus, coeffs.a0(v, taus), window, **limits)
        else:
            rep = ssf_mod.derivative_check(pairs, tau0, f, window, coeffs.gamma0(v, tau0),
                                           **limits)
    return _sweep_table(rep), certificates, {variant: rep.verdict}


@dataclass(frozen=True)
class RunResult:
    report: dict
    report_path: str
    exit_code: int


def _verdict_exit_code(verdicts: dict) -> int:
    if any(v == "FAIL" for v in verdicts.values()):
        return 2
    return 0


def report_identity_bytes(report: dict) -> bytes:
    """Canonical bytes of a report with the (non-deterministic) timings
    stripped; two runs of one config must agree on these, whatever their
    output directories.  So a sweep's children count by their paths
    relative to the sweep's directory, which holds them."""
    doc = {k: v for k, v in report.items() if k != "timings"}
    if report["config_echo"]["experiment"] == "sweep":
        doc["tables"] = {"children": [os.path.relpath(p, os.path.dirname(os.path.dirname(p)))
                                      for p in report["tables"]["children"]]}
    return json.dumps(doc, sort_keys=True).encode()


def run(config, out_dir: str | None = None) -> RunResult:
    """Execute one experiment config; write CSV data and the JSON report.

    One call solves each (potential, grid, h) spectrum and makes each
    certificate (kind, potential, check arguments) once: the children of a
    sweep share them.
    """
    if isinstance(config, (str, os.PathLike)):
        cfg = ExperimentConfig.from_json(config)
    elif isinstance(config, dict):
        cfg = ExperimentConfig.from_dict(config)
    else:
        cfg = config
    return _run(cfg, out_dir if out_dir is not None else cfg.out, {})


def _run(cfg: ExperimentConfig, out: str, shared: dict) -> RunResult:
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    if cfg.experiment == "sweep":
        verdicts = {}
        child_reports = []
        for i, sub_cfg in enumerate(cfg.inputs["children"]):
            result = _run(sub_cfg, os.path.join(out, f"{i:02d}_{sub_cfg.experiment}"), shared)
            child_reports.append(result.report_path)
            for key, val in result.report["verdicts"].items():
                verdicts[f"{i:02d}:{sub_cfg.experiment}:{key}"] = val
        return _write_report(out, cfg, [], {"children": child_reports}, verdicts,
                             time.perf_counter() - t0)

    if cfg.experiment in _VARIANTS:
        (columns, rows), certificates, verdicts = _run_sweep(cfg, shared)
    elif cfg.experiment == "coeffs":
        (columns, rows), certificates, verdicts = _run_coeffs(cfg)
    else:
        (columns, rows), certificates, verdicts = _run_certificate(cfg, shared)
    elapsed = time.perf_counter() - t0

    with open(os.path.join(out, "data.csv"), "w") as fh:
        fh.write("".join(",".join(map(str, line)) + "\n" for line in [columns, *rows]))
    return _write_report(out, cfg, certificates, {"main": {"columns": columns, "rows": rows}},
                         verdicts, elapsed)


def _write_report(out: str, cfg: ExperimentConfig, certificates: list, tables: dict,
                  verdicts: dict, elapsed: float) -> RunResult:
    report = {
        "config_echo": cfg.raw,
        "certificates": certificates,
        "tables": tables,
        "verdicts": verdicts,
        "timings": {"total_s": elapsed},
    }
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return RunResult(report=report, report_path=path, exit_code=_verdict_exit_code(verdicts))
