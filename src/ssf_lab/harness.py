"""Experiment orchestration: JSON configs in, CSV tables and reports out.

A config names one experiment (hypothesis check, coefficient profile, trace
sweep, or shift-function sweep), the model potential, the grid rule, the
h-list, windows and test functions, and verdict thresholds.  ``run`` executes
it deterministically (given config and seed) and writes

* ``data.csv``    -- the per-row table for the experiment,
* ``report.json`` -- config echo, embedded certificates, tables, verdicts,
                     and wall-clock timings.

Verdicts are recomputable from the CSV alone; byte-identity of reports is
defined modulo the timings block (see ``report_identity_bytes``).
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeffs
from . import microhyperbolicity as mh
from . import quantization as qz
from . import ssf as ssf_mod
from .bumps import Bump1D, ProductCutoff, dilation_generator
from .symbols import MatrixPotential, combine_potentials, model_potential

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


class ConfigError(ValueError):
    """Config fails schema validation."""


def reference_potential() -> MatrixPotential:
    """The two-channel Gaussian reference model used by the stock experiments."""
    return model_potential("reference")


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares order of an error sequence against h on log-log axes."""

    hs: np.ndarray
    errors: np.ndarray
    slope: float | None
    intercept: float | None
    residual: float | None
    below_floor: bool
    verdict: str
    threshold: float | None = None


def fit_order(pairs, threshold: float | None = None, floor: float = 1e-12) -> SlopeFit:
    """Fit log(error) vs log(h); needs >= 3 non-negative pairs and spread >= 4.

    Errors all below ``floor`` give verdict BELOW_FLOOR.  An exact zero
    among larger errors has no logarithm: the fit gives slope None and
    verdict NO_FIT, a property of the result rather than of the config.
    """
    pairs = list(pairs)
    hs = np.asarray([p[0] for p in pairs], dtype=float)
    errs = np.asarray([p[1] for p in pairs], dtype=float)
    if np.all(np.abs(errs) < floor):
        return SlopeFit(hs=hs, errors=errs, slope=None, intercept=None,
                        residual=None, below_floor=True, verdict="BELOW_FLOOR",
                        threshold=threshold)
    if len(pairs) < 3:
        raise ConfigError("slope fit needs at least 3 points")
    if np.any(errs < 0):
        raise ConfigError("slope fit needs non-negative errors")
    if float(np.max(hs) / np.min(hs)) < 4.0:
        raise ConfigError("h-spread max/min must be at least 4 for a slope fit")
    if np.any(errs == 0):
        return SlopeFit(hs=hs, errors=errs, slope=None, intercept=None,
                        residual=None, below_floor=False, verdict="NO_FIT",
                        threshold=threshold)
    logs_h = np.log(hs)
    logs_e = np.log(errs)
    coef = np.polyfit(logs_h, logs_e, 1)
    fitted = np.polyval(coef, logs_h)
    resid = float(np.sqrt(np.mean((logs_e - fitted) ** 2)))
    slope = float(coef[0])
    verdict = "PASS" if threshold is None or slope >= threshold else "FAIL"
    return SlopeFit(hs=hs, errors=errs, slope=slope, intercept=float(coef[1]),
                    residual=resid, below_floor=False, verdict=verdict,
                    threshold=threshold)


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

_EXPERIMENTS = ("check-mh", "check-escape", "coeffs", "trace", "ssf", "sweep")
_VARIANTS = {
    "trace": ("thm1", "thm2", "thm3"),
    "ssf": ("weak", "weyl", "derivative"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    experiment: str
    variant: str | None
    seed: int
    out: str

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        experiment = doc.get("experiment")
        if experiment not in _EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {_EXPERIMENTS}, got {experiment!r}")
        variant = doc.get("variant")
        if experiment in _VARIANTS:
            if variant not in _VARIANTS[experiment]:
                raise ConfigError(
                    f"{experiment} needs variant in {_VARIANTS[experiment]}, got {variant!r}"
                )
        if experiment != "sweep":
            h_list = doc.get("h_list")
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
            seed=int(doc.get("seed", 0)),
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


def _grid_for(doc: dict, h: float) -> qz.Grid1D:
    g = doc.get("grid") or {}
    R = float(g.get("R", 8.0))
    tau_max = g.get("tau_max")
    m_cap = int(g.get("m_cap", 8192))
    if g.get("M"):
        m = int(g["M"])
    else:
        if tau_max is None:
            raise ConfigError("grid needs tau_max when M follows the coverage rule")
        m = qz.required_points(R, h, float(tau_max))
    if m > m_cap:
        raise qz.CoverageError(
            f"h={h} needs M={m} > cap {m_cap}: raise h, shrink R, or raise m_cap",
            required_m=m,
        )
    return qz.Grid1D(R=R, M=m, h=h, tau_max=None if tau_max is None else float(tau_max))


def _window_from(doc: dict, h: float | None = None) -> qz.WindowTheta:
    w = doc.get("window") or {}
    kind = w.get("kind", "bump_at_zero")
    rule = w.get("eps_rule")
    if rule is not None and h is not None:
        if rule == "sqrt_h":
            return qz.WindowTheta(kind=kind, eps=math.sqrt(h), eps_rule=rule)
        raise ConfigError(f"unknown eps_rule {rule!r}")
    return qz.WindowTheta(kind=kind, eps=float(w.get("eps", 0.25)), eps_rule=rule)


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
    if isinstance(v, complex):
        return v.real
    return v


def _csv_write(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            vals = [_scalar(row[c]) for c in columns]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in vals) + "\n")


def _run_check_mh(cfg: ExperimentConfig):
    doc = cfg.raw
    v = _potential_from(doc)
    chk = doc.get("check") or {}
    tau0 = float(doc.get("tau0", 1.0))
    box = chk.get("box", [[-4.0, 4.0], [-3.0, 3.0]])
    box = (tuple(map(float, box[0])), tuple(map(float, box[1])))
    from .symbols import schrodinger_symbol

    cert = mh.check_on_energy_shell(
        schrodinger_symbol(v), tau0, box,
        shell_tol=chk.get("shell_tol"),
        mode=chk.get("mode", "per_point_T"),
        T=None if chk.get("T") is None else np.asarray(chk["T"], dtype=float),
        grid_points=int(chk.get("grid_points", 61)),
    )
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
        from .symbols import schrodinger_symbol

        box = chk.get("box", [[-4.0, 4.0], [-3.0, 3.0]])
        box = (tuple(map(float, box[0])), tuple(map(float, box[1])))
        cert = mh.escape_check_general(
            schrodinger_symbol(v), dilation_generator(v.n), tau0, box,
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
    chi = _cutoff_from(doc)
    f = _test_function_from(doc)
    tau0 = float(doc.get("tau0", 1.0))
    hs = [float(h) for h in doc["h_list"]]
    grid_doc = doc.get("grid") or {}
    R = float(grid_doc.get("R", 6.0))
    tau_max = grid_doc.get("tau_max")
    m_cap = int(grid_doc.get("m_cap", 8192))
    thresholds = doc.get("thresholds") or {}
    from .symbols import schrodinger_symbol

    v = _potential_from(doc)
    certificates = []
    if variant in ("thm1", "thm3"):
        chk = doc.get("check") or {}
        box = chk.get("box", [list(chi.x_support), list(chi.xi_support)])
        box = (tuple(map(float, box[0])), tuple(map(float, box[1])))
        cert = mh.check_on_energy_shell(
            schrodinger_symbol(v), tau0, box,
            shell_tol=chk.get("shell_tol"),
            mode=chk.get("mode", "per_point_T"),
            grid_points=int(chk.get("grid_points", 41)),
        )
        certificates.append(cert.to_json_dict())
        if not cert.valid and not cert.empty_shell:
            return ({"main": (["h", "value", "reference", "rel_error", "fitted_slope"], [])},
                    certificates, {variant: "NOT_CERTIFIED"})
    if variant == "thm1":
        w_doc = doc.get("window") or {}
        eps_rule = w_doc.get("eps_rule", "sqrt_h")
        rule = (lambda h: math.sqrt(h)) if eps_rule == "sqrt_h" else float(w_doc.get("eps", 0.3))
        rep = qz.theorem1_check(
            v, chi, f, tau0, hs, cert,
            window_kind=w_doc.get("kind", "bump_positive"),
            eps_rule=rule, R=R, tau_max=tau_max, m_cap=m_cap,
            slope_threshold=float(thresholds.get("slope", 3.0)),
        )
    elif variant == "thm2":
        pert = doc.get("perturbation")
        if not pert:
            raise ConfigError("thm2 needs a 'perturbation' potential spec")
        v1 = combine_potentials(v, model_potential(pert["kind"], **pert.get("params", {})))
        taus = _tau_grid_from(doc)
        rep = qz.theorem2_check(
            v, v1, chi, f, taus, hs, _window_from(doc), R=R, tau_max=tau_max,
            m_cap=m_cap, d_sep=float(doc.get("d_sep", 2.0)),
            slope_threshold=float(thresholds.get("slope", 3.0)),
        )
    else:
        rep = qz.theorem3_check(
            v, chi, f, tau0, hs, _window_from(doc), cert, R=R, tau_max=tau_max,
            m_cap=m_cap, rel_threshold=float(thresholds.get("rel", 0.05)),
            order_threshold=float(thresholds.get("order", 1.0)),
        )
    cols = ["h", "value", "reference", "rel_error", "fitted_slope"]
    rows = [{k: (complex(r[k]).real if isinstance(r[k], complex) else r[k]) for k in cols}
            for r in rep.rows()]
    return {"main": (cols, rows)}, certificates, {variant: rep.verdict}


def _run_ssf(cfg: ExperimentConfig):
    doc = cfg.raw
    variant = cfg.variant
    hs = [float(h) for h in doc["h_list"]]
    f = _test_function_from(doc)
    thresholds = doc.get("thresholds") or {}
    tau0 = float(doc.get("tau0", 2.0))
    pairs = {}
    for h in hs:
        v_h = _potential_for_h(doc, h)
        grid = _grid_for(doc, h)
        pairs[h] = ssf_mod.build_pair(v_h, grid)
    # references come from the h-independent base potential
    v = _potential_from(doc)
    cert = mh.escape_check_dilation(v, tau0)
    certificates = [cert.to_json_dict()]
    cols = ["h", "value", "reference", "rel_error", "fitted_slope"]

    if variant == "weak":
        ref = coeffs.c0(v, f)
        rows = []
        errs = []
        for h in hs:
            val = 2.0 * math.pi * h * ssf_mod.weak_pairing(pairs[h], f)
            err = abs(val - ref)
            errs.append((h, err))
            rows.append({"h": h, "value": val, "reference": ref,
                         "rel_error": err / max(abs(ref), 1e-300), "fitted_slope": float("nan")})
        fit = fit_order(errs, threshold=float(thresholds.get("order", 1.5)))
        last_rel = rows[-1]["rel_error"]
        # without a fitted order the relative threshold decides alone
        ok = (fit.verdict in ("PASS", "BELOW_FLOOR", "NO_FIT")
              and last_rel <= float(thresholds.get("rel", 0.03)))
        for r in rows:
            r["fitted_slope"] = fit.slope if fit.slope is not None else float("nan")
        return {"main": (cols, rows)}, certificates, {"weak": "PASS" if ok else "FAIL"}

    if variant == "weyl":
        if not cert.valid:
            return {"main": (cols, [])}, certificates, {"weyl": "NOT_CERTIFIED"}
        taus = _tau_grid_from(doc)
        ref = coeffs.a0(v, taus)
        rep = ssf_mod.weyl_check(
            pairs, taus, ref, _window_from(doc), cert,
            order_threshold=float(thresholds.get("order", 0.7)),
            rel_threshold=float(thresholds.get("rel", 0.05)),
        )
        rows = list(rep.rows())
        return {"main": (cols, rows)}, certificates, {"weyl": rep.verdict}

    # derivative
    if not cert.valid:
        return {"main": (cols, [])}, certificates, {"derivative": "NOT_CERTIFIED"}
    ref = coeffs.gamma0(v, tau0)
    rep = ssf_mod.derivative_check(
        pairs, tau0, f, _window_from(doc), ref, cert,
        order_threshold=float(thresholds.get("order", 1.5)),
        rel_threshold=float(thresholds.get("rel", 0.05)),
    )
    rows = list(rep.rows())
    return {"main": (cols, rows)}, certificates, {"derivative": rep.verdict}


_RUNNERS = {
    "check-mh": _run_check_mh,
    "check-escape": _run_check_escape,
    "coeffs": _run_coeffs,
    "trace": _run_trace,
    "ssf": _run_ssf,
}


@dataclass(frozen=True)
class RunResult:
    report: dict
    report_path: str
    csv_paths: dict
    exit_code: int


def _verdict_exit_code(verdicts: dict) -> int:
    if any(v == "FAIL" for v in verdicts.values()):
        return 2
    return 0


def report_identity_bytes(report: dict) -> bytes:
    """Canonical bytes of a report with the (non-deterministic) timings
    stripped; two runs with equal config and seed must agree on these."""
    doc = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(doc, sort_keys=True).encode()


def run(config, out_dir: str | None = None) -> RunResult:
    """Execute one experiment config; write CSV data and the JSON report."""
    if isinstance(config, (str, os.PathLike)):
        cfg = ExperimentConfig.from_json(config)
    elif isinstance(config, dict):
        cfg = ExperimentConfig.from_dict(config)
    else:
        cfg = config
    out = out_dir if out_dir is not None else cfg.out
    os.makedirs(out, exist_ok=True)

    if cfg.experiment == "sweep":
        verdicts = {}
        child_reports = []
        t0 = time.perf_counter()
        for i, sub in enumerate(cfg.raw["experiments"]):
            sub_doc = dict(sub)
            sub_doc.setdefault("schema_version", SCHEMA_VERSION)
            sub_cfg = ExperimentConfig.from_dict(sub_doc)
            sub_out = os.path.join(out, f"{i:02d}_{sub_cfg.experiment}")
            result = run(sub_cfg, sub_out)
            child_reports.append(result.report_path)
            for key, val in result.report["verdicts"].items():
                verdicts[f"{i:02d}:{sub_cfg.experiment}:{key}"] = val
        report = {
            "config_echo": cfg.raw,
            "certificates": [],
            "tables": {"children": child_reports},
            "verdicts": verdicts,
            "timings": {"total_s": time.perf_counter() - t0},
        }
        path = os.path.join(out, "report.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        return RunResult(report=report, report_path=path, csv_paths={},
                         exit_code=_verdict_exit_code(verdicts))

    runner = _RUNNERS[cfg.experiment]
    t0 = time.perf_counter()
    tables, certificates, verdicts = runner(cfg)
    elapsed = time.perf_counter() - t0

    csv_paths = {}
    json_tables = {}
    for name, (columns, rows) in tables.items():
        path = os.path.join(out, "data.csv" if name == "main" else f"{name}.csv")
        _csv_write(path, columns, rows)
        csv_paths[name] = path
        json_tables[name] = {
            "columns": columns,
            "rows": [[_scalar(row[c]) for c in columns] for row in rows],
        }

    report = {
        "config_echo": cfg.raw,
        "certificates": certificates,
        "tables": json_tables,
        "verdicts": verdicts,
        "timings": {"total_s": elapsed},
    }
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return RunResult(report=report, report_path=path, csv_paths=csv_paths,
                     exit_code=_verdict_exit_code(verdicts))
