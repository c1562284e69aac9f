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

The trace and ssf experiments are h-sweeps: each writes the rows of one
``SweepReport`` (columns h, value, reference, rel_error, fitted_slope) and
its verdict.  ``ConfigError``, ``SlopeFit`` and ``fit_order`` live beside
that report in the quantization module and are re-exported here.
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

EXPERIMENTS = ("check-mh", "check-escape", "coeffs", "trace", "ssf", "sweep")
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
        variant = doc.get("variant")
        if experiment in _VARIANTS:
            if variant not in _VARIANTS[experiment]:
                raise ConfigError(
                    f"{experiment} needs variant in {_VARIANTS[experiment]}, got {variant!r}"
                )
        if experiment != "sweep":
            h_list = doc.get("h_list")
            if h_list is None and experiment in _VARIANTS:
                raise ConfigError(f"{experiment} needs an h_list")
            if h_list is not None:
                hs = [float(h) for h in h_list]
                if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
                    raise ConfigError("h_list must be strictly decreasing")
                if any(h <= 0 for h in hs):
                    raise ConfigError("h values must be positive")
        else:
            if not isinstance(doc.get("experiments"), list) or not doc["experiments"]:
                raise ConfigError("sweep needs a non-empty 'experiments' list")
        return ExperimentConfig(
            raw=doc,
            experiment=experiment,
            variant=variant,
            out=str(doc.get("out", "out")),
        )

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


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
    g = doc.get("grid") or {}
    extra = ", ".join(f"grid.{key}" for key in sorted(set(g) - {"R", "tau_max", "m_cap"}))
    if extra:
        raise ConfigError(f"grid takes R, tau_max and m_cap only, not {extra}")
    if g.get("tau_max") is None:
        raise ConfigError("grid needs tau_max, the top of the energies its grids resolve")
    R, m_cap = float(g.get("R", default_R)), int(g.get("m_cap", 8192))
    return [qz.grid_for(float(h), R, float(g["tau_max"]), m_cap) for h in doc["h_list"]]


def _window_from(doc: dict, variant: str) -> qz.WindowTheta:
    """The config's window, one for every h: thm1 defaults to the one-sided
    window at eps 0.3, every other variant to the even window at eps 0.25.
    The block takes kind and eps only."""
    w = doc.get("window") or {}
    extra = ", ".join(f"window.{key}" for key in sorted(set(w) - {"kind", "eps"}))
    if extra:
        raise ConfigError(f"window takes kind and eps only, not {extra}")
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


def _thresholds_from(doc: dict, **names) -> dict:
    """Keyword arguments of a check from the config's thresholds, config key
    to argument name; an absent key keeps the check's default."""
    t = doc.get("thresholds") or {}
    return {arg: float(t[key]) for key, arg in names.items() if key in t}


def _box_from(chk: dict, default) -> tuple:
    box = chk.get("box", default)
    return (tuple(map(float, box[0])), tuple(map(float, box[1])))


def _shell_certificate(doc: dict, v: MatrixPotential, tau0: float, default_box,
                       grid_points: int) -> mh.MicrohyperbolicityCertificate:
    """``check_on_energy_shell`` of the Schrodinger symbol of v, set by the
    config's check block; the runner gives its default box and grid."""
    chk = doc.get("check") or {}
    return mh.check_on_energy_shell(
        schrodinger_symbol(v), tau0, _box_from(chk, default_box),
        shell_tol=chk.get("shell_tol"),
        mode=chk.get("mode", "per_point_T"),
        T=None if chk.get("T") is None else np.asarray(chk["T"], dtype=float),
        grid_points=int(chk.get("grid_points", grid_points)),
    )


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
    chk = doc.get("check") or {}
    variant = doc.get("escape_kind", "dilation")
    if variant == "dilation":
        cert = mh.escape_check_dilation(
            v, tau0,
            x_range=tuple(chk.get("x_range", (-8.0, 8.0))),
            grid_points=int(chk.get("grid_points", 2001)),
        )
    else:
        cert = mh.escape_check_general(
            schrodinger_symbol(v), dilation_generator(v.n), tau0,
            _box_from(chk, [[-4.0, 4.0], [-3.0, 3.0]]),
            shell_tol=chk.get("shell_tol"),
            grid_points=int(chk.get("grid_points", 61)),
        )
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


def _run_trace(cfg: ExperimentConfig):
    doc = cfg.raw
    variant = cfg.variant
    window = _window_from(doc, variant)
    chi = _cutoff_from(doc)
    f = _test_function_from(doc)
    tau0 = float(doc.get("tau0", 1.0))
    grids = _grids_from(doc, default_R=6.0)
    v = _potential_from(doc)
    certificates = []
    if variant in ("thm1", "thm3"):
        cert = _shell_certificate(doc, v, tau0, [list(chi.x_support), list(chi.xi_support)], 41)
        certificates.append(cert.to_json_dict())
        if not cert.valid and not cert.empty_shell:
            return _sweep_tables(None), certificates, {variant: "NOT_CERTIFIED"}
    if variant == "thm1":
        rep = qz.theorem1_check(
            v, chi, f, tau0, grids, cert, window, **_thresholds_from(doc, slope="slope_threshold"),
        )
    elif variant == "thm2":
        pert = doc.get("perturbation")
        if not pert:
            raise ConfigError("thm2 needs a 'perturbation' potential spec")
        v1 = combine_potentials(v, model_potential(pert["kind"], **pert.get("params", {})))
        rep = qz.theorem2_check(
            v, v1, chi, f, _tau_grid_from(doc), grids, window,
            d_sep=float(doc.get("d_sep", 2.0)), **_thresholds_from(doc, slope="slope_threshold"),
        )
    else:
        rep = qz.theorem3_check(
            v, chi, f, tau0, grids, window, cert,
            **_thresholds_from(doc, rel="rel_threshold", order="order_threshold"),
        )
    return _sweep_tables(rep), certificates, {variant: rep.verdict}


def _run_ssf(cfg: ExperimentConfig, shared: dict):
    doc = cfg.raw
    variant = cfg.variant
    window = _window_from(doc, variant)
    f = _test_function_from(doc)
    tau0 = float(doc.get("tau0", 2.0))
    grids = _grids_from(doc, default_R=8.0)
    # spectra and certificates are shared by every ssf config of one run
    model = json.dumps([doc.get("potential"), doc.get("h_term")], sort_keys=True)
    pairs = {}
    for grid in grids:
        key = ("pair", model, grid)
        if key not in shared:
            shared[key] = ssf_mod.build_pair(_potential_for_h(doc, grid.h), grid)
        pairs[grid.h] = shared[key]
    # references come from the h-independent base potential
    v = _potential_from(doc)
    key = ("escape", json.dumps(doc.get("potential"), sort_keys=True), tau0)
    if key not in shared:
        shared[key] = mh.escape_check_dilation(v, tau0)
    cert = shared[key]
    certificates = [cert.to_json_dict()]
    limits = _thresholds_from(doc, order="order_threshold", rel="rel_threshold")
    if variant == "weak":
        rep = ssf_mod.weak_check(pairs, f, coeffs.c0(v, f), **limits)
    elif not cert.valid:
        return _sweep_tables(None), certificates, {variant: "NOT_CERTIFIED"}
    elif variant == "weyl":
        taus = _tau_grid_from(doc)
        rep = ssf_mod.weyl_check(pairs, taus, coeffs.a0(v, taus), window, cert, **limits)
    else:
        rep = ssf_mod.derivative_check(pairs, tau0, f, window, coeffs.gamma0(v, tau0), cert,
                                       **limits)
    return _sweep_tables(rep), certificates, {variant: rep.verdict}


_RUNNERS = {
    "check-mh": _run_check_mh,
    "check-escape": _run_check_escape,
    "coeffs": _run_coeffs,
    "trace": _run_trace,
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
            sub_doc = dict(sub)
            sub_doc.setdefault("schema_version", SCHEMA_VERSION)
            sub_cfg = ExperimentConfig.from_dict(sub_doc)
            result = _run(sub_cfg, os.path.join(out, f"{i:02d}_{sub_cfg.experiment}"), shared)
            child_reports.append(result.report_path)
            for key, val in result.report["verdicts"].items():
                verdicts[f"{i:02d}:{sub_cfg.experiment}:{key}"] = val
        return _write_report(out, cfg, [], {"children": child_reports}, verdicts,
                             time.perf_counter() - t0)

    if cfg.experiment == "ssf":
        tables, certificates, verdicts = _run_ssf(cfg, shared)
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
