"""The benchmark's workloads: ``harness.run`` on the stock configs, the way the
CLI and the scripts drive ssf_lab, with spans put once per process on the
public functions of each layer (``instrument``).

Every workload pass records the reports ``harness.run`` returns: one record
per verdict, per certificate and per table row of an (experiment, h) or a
coefficient evaluation; ``check.py`` compares them with the pinned values.
The h-ladders are shorter than the stock ones and the model zoo runs on
coarse grids, so that one pass fits the benchmark's run time (see README.md);
everything else is read from ``configs/``.  ssf_lab is imported from the
``src`` directory of the checkout that holds this file, never from another
copy.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import ssf_lab  # noqa: E402

if not os.path.abspath(ssf_lab.__file__).startswith(SRC + os.sep):
    raise ImportError(f"ssf_lab was imported from {ssf_lab.__file__}, not from {SRC}")

from ssf_lab import coefficients as co  # noqa: E402
from ssf_lab import harness  # noqa: E402
from ssf_lab import microhyperbolicity as mh  # noqa: E402
from ssf_lab import quantization as qz  # noqa: E402
from ssf_lab import ssf  # noqa: E402

from tracing import replace_everywhere, wrap  # noqa: E402

# The seed moves the end points of a config's tau grid inwards by at most
# this share of the grid spacing: inputs differ bit for bit between seeds,
# while every value stays far inside the tolerance of the pinned table.
JITTER = 1e-7

SSF_CONFIGS = ("ssf_weak_reference", "ssf_weyl_reference", "ssf_derivative_reference")
SSF_HS = (1 / 14, 1 / 28, 1 / 56)

TRACE_CONFIGS = {
    "trace_thm1_free": (1 / 16, 1 / 32, 1 / 64, 1 / 128),
    "trace_thm2_locality": (1 / 16, 1 / 32, 1 / 64),
    "trace_thm3_crossing": (1 / 16, 1 / 32, 1 / 48, 1 / 96),
}

# scripts/certify_models.py as one harness sweep, on coarse grids: keeps
# certificates that are refuted, empty or failing escape in the pinned table
ZOO = (
    ("constant", {"v_inf": 0.0, "N": 1}),
    ("diagonal_bumps", {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}),
    ("conical_crossing", {}),
    ("avoided_crossing", {"gap": 0.2}),
    ("reference", {}),
)
ZOO_TAU0 = (0.0, 0.5, 1.0, 2.0)
ZOO_BOX = [[-3.0, 3.0], [-2.5, 2.5]]
ZOO_GRID_POINTS = 11
ZOO_ESCAPE_POINTS = 201

# experiments whose table rows are one operation each; the rows of the
# certificate experiments are sample points and are pinned as one table
PER_ROW = ("ssf", "trace", "coeffs")

# (module, public function, span name)
SPANS = (
    (qz, "build_schrodinger", "quantization.assemble"),
    (qz, "weyl_quantize", "quantization.weyl_quantize"),
    (qz, "smoothed_trace", "quantization.smoothed_trace"),
    (qz, "theorem1_check", "quantization.theorem_checks"),
    (qz, "theorem2_check", "quantization.theorem_checks"),
    (qz, "theorem3_check", "quantization.theorem_checks"),
    (ssf, "build_pair", "ssf.build_pair"),
    (ssf, "weak_pairing", "ssf.estimators"),
    (ssf, "weyl_check", "ssf.estimators"),
    (ssf, "derivative_check", "ssf.estimators"),
    (co, "a0", "coefficients.a0"),
    (co, "c0", "coefficients.c0"),
    (co, "gamma0", "coefficients.gamma0"),
    (co, "gamma0_localized", "coefficients.gamma0_localized"),
    (co, "coefficient_profile", "coefficients.profile"),
    (mh, "escape_check_dilation", "microhyperbolicity.escape"),
)

_instrumented = False


def instrument(tracer) -> None:
    """Put a span on every call the program makes to the functions in SPANS,
    the GridOperator eigensolvers, ``check_on_energy_shell`` and
    ``harness.run``.  Done once per process."""
    global _instrumented
    if _instrumented:
        raise RuntimeError("ssf_lab is already instrumented")
    _instrumented = True

    for module, attr, name in SPANS:
        original = getattr(module, attr)
        replace_everywhere("ssf_lab", original, wrap(tracer, original, name))

    def count_shell(cert):
        tracer.count("microhyperbolicity.shells_checked")
        if not cert.empty_shell:
            tracer.count("microhyperbolicity.shells_nonempty")
            tracer.count("microhyperbolicity.shells_valid", int(cert.valid))

    original = mh.check_on_energy_shell
    replace_everywhere("ssf_lab", original, wrap(tracer, original, "microhyperbolicity.shell_check",
                                                 after=count_shell))

    # A request reaches LAPACK when the operator holds neither an analytic
    # spectrum nor the requested result; a repeat is a second dense solve of
    # the same (operator, grid) within one pass.
    solved: dict[str, set] = {}

    def count_solve(pairs: bool):
        def before(op):
            held = op._vectors if pairs else op._values
            if held is not None or op._analytic is not None:
                return
            seen = solved.setdefault(tracer.run_id, set())
            key = (op.label, op.grid)
            tracer.count("quantization.solves")
            if key in seen:
                tracer.count("quantization.repeat_solves")
            seen.add(key)
            tracer.count("quantization.eig_dim3_sum", op.dim ** 3)
            tracer.count("quantization.dense_bytes_computed", op.matrix.nbytes)
        return before

    qz.GridOperator.eigenvalues = wrap(tracer, qz.GridOperator.eigenvalues,
                                       "quantization.eigvals", before=count_solve(False))
    qz.GridOperator.eigenpairs = wrap(tracer, qz.GridOperator.eigenpairs,
                                      "quantization.eigpairs", before=count_solve(True))

    # harness.run calls itself for the experiments of a sweep; the overhead is
    # taken on the outermost call only.
    run = harness.run
    depth = [0]

    @functools.wraps(run)
    def traced_run(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("harness.run"):
                result = run(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            tracer.measure("harness.overhead_s",
                           time.perf_counter() - t0 - result.report["timings"]["total_s"])
        return result

    replace_everywhere("ssf_lab", run, traced_run)


class Pass:
    """One pass of a workload: the records it produced."""

    def __init__(self, tracer, rng, workdir: str):
        self.tr = tracer
        self.rng = rng  # None disables the jitter (used to pin the table)
        self.workdir = workdir
        self.records: dict[str, object] = {}
        self.errors: list[str] = []

    def record(self, key: str, value) -> None:
        self.records[key] = value

    def config(self, name: str, h_list=None) -> dict:
        """A stock config, with a shorter h-ladder and the seed's jitter."""
        with open(os.path.join(ROOT, "configs", name + ".json")) as fh:
            doc = json.load(fh)
        if h_list is not None:
            doc["h_list"] = list(h_list)
        tg = doc.get("tau_grid")
        if tg is not None and self.rng is not None:
            step = (tg["hi"] - tg["lo"]) / (tg["count"] - 1)
            lo_shift, hi_shift = JITTER * step * self.rng.uniform(0.0, 1.0, 2)
            doc["tau_grid"] = dict(tg, lo=tg["lo"] + lo_shift, hi=tg["hi"] - hi_shift)
        return doc

    def run(self, name: str, doc: dict) -> None:
        """``harness.run`` on one config and record its report; an exception
        fails the records it would have made."""
        try:
            with self.tr.span("bench." + name):
                result = harness.run(doc, os.path.join(self.workdir, name))
                self.record_report(name, result.report)
        except Exception:
            self.errors.append(f"{name}: {traceback.format_exc()}")

    def record_report(self, name: str, report: dict) -> None:
        kind = report["config_echo"]["experiment"]
        for key, verdict in report["verdicts"].items():
            self.record(f"{name}/verdict/{key}", verdict)
        if kind == "sweep":
            for i, path in enumerate(report["tables"]["children"]):
                with open(path) as fh:
                    self.record_report(f"{name}/{i:02d}", json.load(fh))
            return
        for i, cert in enumerate(report["certificates"]):
            self.record(f"{name}/certificate/{i}", cert)
        for table, body in report["tables"].items():
            rows = [dict(zip(body["columns"], row)) for row in body["rows"]]
            if kind in PER_ROW:
                for i, row in enumerate(rows):
                    self.record(f"{name}/{table}/{i}", row)
            else:
                self.record(f"{name}/{table}", rows)


def zoo_config() -> dict:
    experiments = []
    for kind, params in ZOO:
        for tau0 in ZOO_TAU0:
            potential = {"kind": kind, "params": params}
            experiments.append({"experiment": "check-mh", "potential": potential, "tau0": tau0,
                                "check": {"box": ZOO_BOX, "grid_points": ZOO_GRID_POINTS}})
            experiments.append({"experiment": "check-escape", "potential": potential,
                                "tau0": tau0, "check": {"grid_points": ZOO_ESCAPE_POINTS}})
    return {"schema_version": harness.SCHEMA_VERSION, "experiment": "sweep",
            "experiments": experiments}


def ssf_sweep(p: Pass) -> None:
    for name in SSF_CONFIGS:
        p.run(name, p.config(name, SSF_HS))


def trace_sweep(p: Pass) -> None:
    for name, hs in TRACE_CONFIGS.items():
        p.run(name, p.config(name, hs))
    p.run("certify_zoo", zoo_config())
    p.run("sweep_quick", p.config("sweep_quick"))


WORKLOADS = {"ssf_sweep": ssf_sweep, "trace_sweep": trace_sweep}


def setup(tracer) -> None:
    """What every process pays before its first experiment: the spans, the
    reference potential and the cached profile of each window kind."""
    instrument(tracer)
    harness.reference_potential()
    for kind in ("bump_at_zero", "bump_positive"):
        with tracer.span("quantization.window_profile"):
            qz.fourier_window(qz.WindowTheta(kind=kind), 1.0, 0.0)
