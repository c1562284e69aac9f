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
rel_error, fitted_slope) and its verdict.  A sweep is refused before it
builds an operator, and its verdict is issued only where a certificate
carries the hypothesis; the checks it calls are the numerics alone.
``ConfigError``, ``SlopeFit`` and ``fit_order`` live beside that report in
the quantization module and are re-exported here.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeffs
from . import microhyperbolicity as mh
from . import quantization as qz
from . import ssf as ssf_mod
from .bumps import Bump1D, ProductCutoff, dilation_generator
from .quantization import ConfigError, SlopeFit, fit_order
from .symbols import MatrixPotential, combine_potentials, model_potential, schrodinger_symbol

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SlopeFit",
    "fit_order",
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

# the top-level keys each experiment reads, besides these; any other is a
# ConfigError that names it
_COMMON_KEYS = ("schema_version", "experiment", "out")
_KEYS = {
    "check-mh": ("potential", "tau0", "check"),
    "check-escape": ("potential", "tau0", "escape_kind", "check"),
    "coeffs": ("potential", "tau_grid"),
    "trace": ("variant", "potential", "h_list", "grid", "window", "test_function", "tau0",
              "tau_grid", "cutoff", "check", "perturbation", "d_sep", "thresholds"),
    "ssf": ("variant", "potential", "h_term", "h_list", "grid", "window", "test_function",
            "tau0", "tau_grid", "check", "thresholds"),
    "sweep": ("experiments",),
}
EXPERIMENTS = tuple(_KEYS)
_VARIANTS = {
    "trace": ("thm1", "thm2", "thm3"),
    "ssf": ("weak", "weyl", "derivative"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    experiment: str
    variant: str | None
    out: str

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
        _refuse_extra(f"a {experiment} config", doc, _COMMON_KEYS + _KEYS[experiment])
        variant = doc.get("variant")
        if experiment in _VARIANTS:
            if variant not in _VARIANTS[experiment]:
                raise ConfigError(
                    f"{experiment} needs variant in {_VARIANTS[experiment]}, got {variant!r}"
                )
            if variant == "thm2" and "check" in doc:
                raise ConfigError("thm2 takes no check block: no certificate gates it")
            h_list = doc.get("h_list")
            if h_list is None:
                raise ConfigError(f"{experiment} needs an h_list")
            hs = [float(h) for h in h_list]
            if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
                raise ConfigError("h_list must be strictly decreasing")
            if any(h <= 0 for h in hs):
                raise ConfigError("h values must be positive")
            qz._check_ladder(hs)
            # the decay variants' verdicts read the fitted order alone
            _block(doc, "thresholds", ("order",) if variant in ("thm1", "thm2")
                   else ("order", "rel"))
        elif experiment == "sweep":
            if not isinstance(doc.get("experiments"), list) or not doc["experiments"]:
                raise ConfigError("sweep needs a non-empty 'experiments' list")
            for sub in doc["experiments"]:
                ExperimentConfig.from_dict(_child_doc(sub))
        return ExperimentConfig(raw=doc, experiment=experiment, variant=variant,
                                out=str(doc.get("out", "out")))

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _child_doc(sub) -> dict:
    """A child of a sweep as a config of its own, in the sweep's schema."""
    return {"schema_version": SCHEMA_VERSION, **sub} if isinstance(sub, dict) else sub


def _refuse_extra(what: str, block: dict, keys: tuple, prefix: str = "") -> None:
    """ConfigError naming every key of ``block`` outside ``keys``."""
    extra = ", ".join(prefix + key for key in sorted(set(block) - set(keys)))
    if extra:
        listed = keys[0] if len(keys) == 1 else ", ".join(keys[:-1]) + " and " + keys[-1]
        raise ConfigError(f"{what} takes {listed} only, not {extra}")


def _block(doc: dict, name: str, keys: tuple) -> dict:
    """The config's ``name`` block; ConfigError naming every key outside ``keys``."""
    block = doc.get(name) or {}
    _refuse_extra(name, block, keys, name + ".")
    return block


def _potential_from(doc: dict) -> MatrixPotential:
    spec = doc.get("potential")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs potential: {kind, params}")
    try:
        base = model_potential(spec["kind"], **spec.get("params", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc
    return base


def _potential_for_h(doc: dict, h: float) -> MatrixPotential:
    base = _potential_from(doc)
    term = doc.get("h_term")
    if term:
        extra = model_potential(term["kind"], **term.get("params", {}))
        return combine_potentials(base, extra, scale=h)
    return base


def _grids_from(doc: dict, default_R: float) -> list[qz.Grid1D]:
    """The grid of each h of the config's h_list, by ``qz.grid_for`` from the
    grid block's R, tau_max and m_cap; tau_max is required."""
    g = _block(doc, "grid", ("R", "tau_max", "m_cap"))
    if g.get("tau_max") is None:
        raise ConfigError("grid needs tau_max, the top of the energies its grids resolve")
    R, m_cap = float(g.get("R", default_R)), int(g.get("m_cap", 8192))
    return [qz.grid_for(float(h), R, float(g["tau_max"]), m_cap) for h in doc["h_list"]]


def _window_from(doc: dict, variant: str) -> qz.WindowTheta:
    """The config's window, one for every h: thm1 defaults to the one-sided
    window at eps 0.3, every other variant to the even window at eps 0.25.
    The block takes kind and eps only."""
    w = _block(doc, "window", ("kind", "eps"))
    thm1 = variant == "thm1"
    return qz.WindowTheta(kind=w.get("kind", "bump_positive" if thm1 else "bump_at_zero"),
                          eps=float(w.get("eps", 0.3 if thm1 else 0.25)))


def _test_function_from(doc: dict) -> coeffs.TestFunction:
    tf = doc.get("test_function") or {}
    kind = tf.get("kind", "bump")
    support = tuple(float(v) for v in tf.get("support", (1.8, 2.2)))
    if kind == "bump":
        return coeffs.bump_test_function(support)
    if kind == "plateau":
        plateau = tf.get("plateau")
        return coeffs.plateau_test_function(
            support, None if plateau is None else tuple(float(v) for v in plateau)
        )
    if kind == "raised_cosine":
        return coeffs.raised_cosine_test_function(support)
    raise ConfigError(f"unknown test function kind {kind!r}")


def _cutoff_from(doc: dict) -> ProductCutoff:
    c = doc.get("cutoff") or {}
    gx = c.get("x") or {}
    kx = c.get("xi") or {}
    return ProductCutoff(
        g=Bump1D(center=float(gx.get("center", 0.0)), halfwidth=float(gx.get("halfwidth", 2.0))),
        k=Bump1D(center=float(kx.get("center", 0.0)), halfwidth=float(kx.get("halfwidth", 2.0))),
    )


def _thresholds_from(doc: dict) -> dict:
    """Keyword arguments of a check from the config's thresholds, checked at
    ingest: ``order`` and ``rel`` give ``order_threshold`` and
    ``rel_threshold``; an absent key keeps the check's default."""
    return {f"{key}_threshold": float(val) for key, val in (doc.get("thresholds") or {}).items()}


def _box_from(chk: dict, default) -> tuple:
    box = chk.get("box", default)
    return (tuple(map(float, box[0])), tuple(map(float, box[1])))


def _shell_certificate(doc: dict, v: MatrixPotential, tau0: float, default_box,
                       grid_points: int) -> mh.MicrohyperbolicityCertificate:
    """``check_on_energy_shell`` of the Schrodinger symbol of v, set by the
    config's check block; the runner gives its default box and grid."""
    chk = _block(doc, "check", ("box", "grid_points", "shell_tol", "T"))
    return mh.check_on_energy_shell(
        schrodinger_symbol(v), tau0, _box_from(chk, default_box),
        shell_tol=chk.get("shell_tol"),
        T=None if chk.get("T") is None else np.asarray(chk["T"], dtype=float),
        grid_points=int(chk.get("grid_points", grid_points)),
    )


def _dilation_certificate(v: MatrixPotential, tau0: float,
                          chk: dict) -> mh.EscapeCertificate:
    """``escape_check_dilation`` of v, set by a check block (``x_range``,
    ``grid_points``) checked by the caller."""
    return mh.escape_check_dilation(v, tau0, x_range=tuple(chk.get("x_range", (-8.0, 8.0))),
                                    grid_points=int(chk.get("grid_points", 2001)))


def _tau_grid_from(doc: dict) -> np.ndarray:
    tg = doc.get("tau_grid") or {}
    lo = float(tg.get("lo", 1.8))
    hi = float(tg.get("hi", 2.2))
    count = int(tg.get("count", 21))
    if not (hi > lo and count >= 2):
        raise ConfigError("tau_grid needs hi > lo and count >= 2")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _scalar(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _csv_write(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            vals = [_scalar(row[c]) for c in columns]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in vals) + "\n")


def _sweep_tables(rep: qz.SweepReport | None) -> dict:
    """The one table of an h-sweep; no rows when the sweep did not run."""
    return {"main": (list(qz.SweepReport.COLUMNS), [] if rep is None else list(rep.rows()))}


def _run_check_mh(cfg: ExperimentConfig):
    doc = cfg.raw
    cert = _shell_certificate(doc, _potential_from(doc), float(doc.get("tau0", 1.0)),
                              [[-4.0, 4.0], [-3.0, 3.0]], 61)
    rows = [{"x": float(p[0]), "xi": float(p[1])} for p in np.atleast_2d(cert.points)] \
        if np.size(cert.points) else []
    verdict = "PASS" if cert.valid else ("EMPTY_SHELL" if cert.empty_shell else "FAIL")
    return {"main": (["x", "xi"], rows)}, [cert.to_json_dict()], {"microhyperbolic": verdict}


def _run_check_escape(cfg: ExperimentConfig):
    doc = cfg.raw
    v = _potential_from(doc)
    tau0 = float(doc.get("tau0", 2.0))
    kind = doc.get("escape_kind", "dilation")
    if kind == "dilation":
        cert = _dilation_certificate(v, tau0, _block(doc, "check", ("x_range", "grid_points")))
    elif kind == "general":
        chk = _block(doc, "check", ("box", "grid_points", "shell_tol"))
        cert = mh.escape_check_general(
            schrodinger_symbol(v), dilation_generator(v.n), tau0,
            _box_from(chk, [[-4.0, 4.0], [-3.0, 3.0]]),
            shell_tol=chk.get("shell_tol"),
            grid_points=int(chk.get("grid_points", 61)),
        )
    else:
        raise ConfigError(f"escape_kind must be 'dilation' or 'general', got {kind!r}")
    rows = [{"x": float(p[0]), "k_or_xi": float(p[1])} for p in np.atleast_2d(cert.samples)] \
        if np.size(cert.samples) else []
    return ({"main": (["x", "k_or_xi"], rows)}, [cert.to_json_dict()],
            {"escape": "PASS" if cert.valid else "FAIL"})


def _run_coeffs(cfg: ExperimentConfig):
    doc = cfg.raw
    v = _potential_from(doc)
    taus = _tau_grid_from(doc)
    profile = coeffs.coefficient_profile(v, taus)
    rows = [{"tau": float(t), "gamma0": float(g), "a0": float(a)}
            for t, g, a in zip(profile.tau_grid, profile.gamma0, profile.a0)]
    return {"main": (["tau", "gamma0", "a0"], rows)}, [], {"coeffs": "COMPLETE"}


def _run_sweep(cfg: ExperimentConfig, shared: dict):
    """One trace or ssf h-sweep.  Its ladder and thresholds are checked at
    ingest; every other refusal comes before the first operator, pair or
    shell check, in this order: a block of the config; the top energy (of
    supp f, or of weyl's tau grid) above the grids' tau_max, by
    WindowRangeError; the hypothesis.  thm1 and thm3 take the shell
    certificate, the ssf variants the escape certificate (weak records it
    ungated), thm2 none; one that is neither valid nor on an empty shell
    gives NOT_CERTIFIED.  The ssf configs of one run share their pairs and
    escape checks through ``shared``.
    """
    doc = cfg.raw
    variant = cfg.variant
    trace = cfg.experiment == "trace"
    tau0 = float(doc.get("tau0", 1.0 if trace else 2.0))
    grids = _grids_from(doc, default_R=6.0 if trace else 8.0)
    window = _window_from(doc, variant)
    f = None if variant == "weyl" else _test_function_from(doc)
    v = _potential_from(doc)
    taus = _tau_grid_from(doc) if variant in ("thm2", "weyl") else None
    if f is None:
        qz._check_window(grids[0], float(taus[-1]), "tau")
    else:
        qz._check_window(grids[0], f.support[1])
    if trace:
        chi = _cutoff_from(doc)
        cert = None if variant == "thm2" else _shell_certificate(
            doc, v, tau0, [list(chi.x_support), list(chi.xi_support)], 41)
    else:
        chk = _block(doc, "check", ("x_range", "grid_points"))
        key = ("escape", json.dumps([doc.get("potential"), chk], sort_keys=True), tau0)
        if key not in shared:
            shared[key] = _dilation_certificate(v, tau0, chk)
        cert = shared[key]
    certificates = [] if cert is None else [cert.to_json_dict()]
    # an empty shell certifies the hypothesis vacuously
    if variant not in ("thm2", "weak") and not (cert.valid or getattr(cert, "empty_shell", False)):
        return _sweep_tables(None), certificates, {variant: "NOT_CERTIFIED"}

    limits = _thresholds_from(doc)
    if variant == "thm1":
        rep = qz.theorem1_check(v, chi, f, tau0, grids, window, **limits)
    elif variant == "thm2":
        pert = doc.get("perturbation")
        if not pert:
            raise ConfigError("thm2 needs a 'perturbation' potential spec")
        v1 = combine_potentials(v, model_potential(pert["kind"], **pert.get("params", {})))
        rep = qz.theorem2_check(v, v1, chi, f, taus, grids, window,
                                d_sep=float(doc.get("d_sep", 2.0)), **limits)
    elif variant == "thm3":
        rep = qz.theorem3_check(v, chi, f, tau0, grids, window, **limits)
    else:
        # references come from the h-independent base potential
        model = json.dumps([doc.get("potential"), doc.get("h_term")], sort_keys=True)
        pairs = {}
        for grid in grids:
            key = ("pair", model, grid)
            if key not in shared:
                shared[key] = ssf_mod.build_pair(_potential_for_h(doc, grid.h), grid)
            pairs[grid.h] = shared[key]
        if variant == "weak":
            rep = ssf_mod.weak_check(pairs, f, coeffs.c0(v, f), **limits)
        elif variant == "weyl":
            rep = ssf_mod.weyl_check(pairs, taus, coeffs.a0(v, taus), window, **limits)
        else:
            rep = ssf_mod.derivative_check(pairs, tau0, f, window, coeffs.gamma0(v, tau0),
                                           **limits)
    return _sweep_tables(rep), certificates, {variant: rep.verdict}


_RUNNERS = {
    "check-mh": _run_check_mh,
    "check-escape": _run_check_escape,
    "coeffs": _run_coeffs,
}


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
    stripped; two runs of one config must agree on these."""
    doc = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(doc, sort_keys=True).encode()


def run(config, out_dir: str | None = None) -> RunResult:
    """Execute one experiment config; write CSV data and the JSON report.

    One call solves each (potential, h_term, grid, h) spectrum and makes
    each (potential, tau0) escape check of its ssf configs once: the
    children of a sweep share them.
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
        for i, sub in enumerate(cfg.raw["experiments"]):
            sub_cfg = ExperimentConfig.from_dict(_child_doc(sub))
            result = _run(sub_cfg, os.path.join(out, f"{i:02d}_{sub_cfg.experiment}"), shared)
            child_reports.append(result.report_path)
            for key, val in result.report["verdicts"].items():
                verdicts[f"{i:02d}:{sub_cfg.experiment}:{key}"] = val
        return _write_report(out, cfg, [], {"children": child_reports}, verdicts,
                             time.perf_counter() - t0)

    if cfg.experiment in _VARIANTS:
        tables, certificates, verdicts = _run_sweep(cfg, shared)
    else:
        tables, certificates, verdicts = _RUNNERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - t0

    json_tables = {}
    for name, (columns, rows) in tables.items():
        path = os.path.join(out, "data.csv" if name == "main" else f"{name}.csv")
        _csv_write(path, columns, rows)
        json_tables[name] = {
            "columns": columns,
            "rows": [[_scalar(row[c]) for c in columns] for row in rows],
        }
    return _write_report(out, cfg, certificates, json_tables, verdicts, elapsed)


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
