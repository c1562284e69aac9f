import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mh_constructions import hermitian_eigen
from ssf_lab import cli
from ssf_lab import coefficients as coeffs
from ssf_lab import harness
from ssf_lab import microhyperbolicity as mh
from ssf_lab import quantization as qz
from ssf_lab import ssf as ssf_mod
from ssf_lab.harness import (
    ConfigError,
    ExperimentConfig,
    reference_potential,
    report_identity_bytes,
    run,
)
from ssf_lab.microhyperbolicity import escape_check_dilation
from ssf_lab.symbols import combine_potentials, model_potential


# the free symbol has no energy shell below 0, so the general escape check
# returns its empty-shell certificate
EMPTY_SHELL_ESCAPE = {
    "schema_version": 1,
    "experiment": "check-escape",
    "potential": {"kind": "constant", "params": {"v_inf": 0.0, "N": 1}},
    "tau0": -1.0,
    "escape_kind": "general",
    "check": {"box": [[-3.0, 3.0], [-2.5, 2.5]]},
}


HS4 = [1 / 16, 1 / 32, 1 / 64, 1 / 128]


class TestSweepSlope:
    """The slope rule of ``sweep_verdict``: the least-squares slope of
    log(error) against log(h), on the decay form unless a test says not."""

    def test_pure_power(self):
        rep = qz.sweep_verdict(HS4, [3.0 * h**2 for h in HS4], 1.5)
        assert rep.slope == pytest.approx(2.0, abs=1e-12)
        assert rep.verdict == "PASS" and not rep.below_floor

    def test_mixed_power(self):
        rep = qz.sweep_verdict(HS4, [h + 10.0 * h**2 for h in HS4], 1.5)
        assert 1.0 < rep.slope < 1.3

    def test_below_floor(self):
        rep = qz.sweep_verdict([1 / 16, 1 / 32, 1 / 64], [0.0, 1e-14, 0.0], 1.5)
        assert rep.below_floor and rep.slope is None
        assert rep.verdict == "PASS"

    def test_rejections(self):
        with pytest.raises(ConfigError, match="at least 3 h"):
            qz.sweep_verdict([1 / 16, 1 / 32], [1.0, 0.5], 1.5)
        with pytest.raises(ConfigError, match="max/min >= 4"):
            qz.sweep_verdict([1 / 16, 1 / 20, 1 / 24], [1.0, 0.5, 0.3], 1.5)  # spread < 4
        # a negative error is a fault of the result, not of the config
        with pytest.raises(ValueError, match="non-negative errors") as err:
            qz.sweep_verdict([1 / 16, 1 / 32, 1 / 128], [1.0, -0.5, 0.3], 1.5)
        assert not isinstance(err.value, ConfigError)

    def test_zero_error_has_no_slope(self):
        # an exact zero among positive errors has no logarithm: a decay sweep
        # fails, and a comparison is left to its relative threshold
        errors = [1e-3, 0.0, 2e-5]
        hs = [1 / 16, 1 / 32, 1 / 64]
        rep = qz.sweep_verdict(hs, errors, 1.5)
        assert rep.verdict == "FAIL"
        assert rep.slope is None and not rep.below_floor
        values = [1.0 + e for e in errors]
        for rel, verdict in ((0.03, "PASS"), (1e-6, "FAIL")):
            rep = qz.sweep_verdict(hs, values, 1.5, rel, reference=1.0)
            assert rep.slope is None and not rep.below_floor
            assert rep.verdict == verdict

    def test_threshold_verdict(self):
        assert qz.sweep_verdict(HS4, HS4, 1.5).verdict == "FAIL"
        assert qz.sweep_verdict(HS4, [h**2 for h in HS4], 1.5).verdict == "PASS"


class TestReferencePotential:
    def test_vanishes_at_infinity(self):
        v = reference_potential()
        assert np.max(np.abs(v.on([12.0]))) < 1e-50
        assert np.array_equal(v.v_infinity, np.zeros((2, 2)))

    def test_hermitian_at_random_points(self, rng):
        v = reference_potential()
        for _ in range(10):
            x = float(rng.uniform(-4, 4))
            m = v.on([x])[0]
            assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_escape_certified_at_two(self):
        cert = escape_check_dilation(reference_potential(), 2.0)
        assert cert.valid
        assert cert.threshold_bound < 2.0

    def test_branch_values(self):
        v = reference_potential()
        e = hermitian_eigen(v.on([0.0])[0])[0]
        assert e[0] == pytest.approx(-1.1829032360881848, abs=1e-13)
        assert e[1] == pytest.approx(0.366842956673906, abs=1e-13)


class TestConfigValidation:
    BASE = {
        "schema_version": 1,
        "experiment": "coeffs",
        "potential": {"kind": "constant", "params": {"v_inf": 0.0, "N": 1}},
        "tau_grid": {"lo": 0.5, "hi": 1.5, "count": 3},
    }

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(self.BASE)
        assert cfg.experiment == "coeffs"

    def test_version_mismatch(self):
        doc = dict(self.BASE, schema_version=2)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(self.BASE, experiment="frobnicate"))

    def test_increasing_h_list_rejected(self):
        doc = dict(self.BASE, experiment="ssf", variant="weyl", h_list=[0.0625, 0.125, 0.25])
        with pytest.raises(ConfigError, match="strictly decreasing"):
            ExperimentConfig.from_dict(doc)

    def test_variant_required(self):
        doc = dict(self.BASE, experiment="ssf", h_list=[0.25, 0.125, 0.0625],
                   grid={"tau_max": 2.0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        doc["variant"] = "weyl"
        ExperimentConfig.from_dict(doc)

    def test_sweep_needs_children(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"schema_version": 1, "experiment": "sweep"})

    @pytest.mark.parametrize("doc,named", [
        (dict(BASE, h_list=[0.25, 0.125, 0.0625]), "not h_list"),
        ({"schema_version": 1, "experiment": "sweep", "experiments": [BASE], "tau0": 1.0},
         "not tau0"),
        ({"schema_version": 1, "experiment": "sweep", "experiments": [dict(BASE, variant="x")]},
         "not variant"),
    ])
    def test_unread_key_rejected(self, doc, named):
        # each experiment reads its declared keys and refuses any other
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("name,key", [
        ("trace_thm1_free", "perturbation"), ("trace_thm1_free", "d_sep"),
        ("trace_thm1_free", "tau_grid"), ("trace_thm3_crossing", "perturbation"),
        ("trace_thm3_crossing", "d_sep"), ("trace_thm3_crossing", "tau_grid"),
        ("trace_thm2_locality", "tau0"), ("ssf_weak_reference", "window"),
        ("ssf_weak_reference", "tau_grid"), ("ssf_derivative_reference", "tau_grid"),
    ])
    def test_key_its_variant_does_not_read_rejected(self, tmp_path, no_assembly, name, key):
        # each sweep variant refuses the keys of the other variants that it
        # does not read, with exit 1 from the CLI
        value = {"perturbation": {"kind": "constant", "params": {"v_inf": 0.0}},
                 "d_sep": 2.0, "tau0": 1.0, "window": {"kind": "bump_at_zero"},
                 "tau_grid": {"lo": 1.8, "hi": 2.2, "count": 5}}[key]
        doc = _config(name, out=str(tmp_path / "o"), **{key: value})
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, f"only, not {key}$")
        assert not (tmp_path / "o").exists()

    def test_sweep_child_out_rejected(self, tmp_path, no_assembly):
        # a sweep writes child i to <out>/NN_<experiment>, so a child's out
        # would be ignored
        doc = _config("sweep_quick", out=str(tmp_path / "o"))
        doc["experiments"][1] = dict(doc["experiments"][1], out=str(tmp_path / "elsewhere"))
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, r"experiments\[1\]\.out")
        assert not (tmp_path / "o").exists() and not (tmp_path / "elsewhere").exists()


class TestRun:
    def test_coeffs_zero_potential(self, tmp_path):
        cfg = dict(TestConfigValidation.BASE, out=str(tmp_path / "o"))
        result = run(cfg)
        assert result.exit_code == 0
        rows = result.report["tables"]["main"]["rows"]
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)
        csv = (tmp_path / "o" / "data.csv").read_text().strip().split("\n")
        assert csv[0] == "tau,gamma0,a0"
        assert len(csv) == 4

    @pytest.mark.parametrize("potential", [
        {"kind": "conical_crossing", "params": {}},
        {"kind": "diagonal_bumps", "params": {"depths": [-1.0, 0.6], "centers": [0.0, 0.5],
                                              "widths": [1.0, 0.7], "v_inf": [0.0, 0.3]}},
    ], ids=["conical_crossing", "diagonal_bumps"])
    def test_weak_on_a_split_potential(self, tmp_path, potential):
        # no off-diagonal samples: every P1 of the sweep is a split operator
        cfg = _config("ssf_weak_reference", potential=potential, h_list=[1 / 8, 1 / 16, 1 / 32],
                      out=str(tmp_path / "weak"))
        result = run(cfg)
        assert result.report["verdicts"]["weak"] in ("PASS", "FAIL")
        assert result.exit_code == (0 if result.report["verdicts"]["weak"] == "PASS" else 2)
        assert all(math.isfinite(value) for row in result.report["tables"]["main"]["rows"]
                   for value in row)

    def test_check_mh_crossing(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "check-mh",
            "potential": {"kind": "conical_crossing", "params": {}},
            "tau0": 0.0,
            "check": {"box": [[-2, 2], [-2, 2]], "grid_points": 31},
            "out": str(tmp_path / "mh"),
        }
        result = run(cfg)
        assert result.report["verdicts"]["microhyperbolic"] == "FAIL"
        assert result.exit_code == 2
        cfg["tau0"] = 0.5
        cfg["out"] = str(tmp_path / "mh2")
        result2 = run(cfg)
        assert result2.report["verdicts"]["microhyperbolic"] == "PASS"
        assert result2.report["certificates"][0]["valid"] is True

    def test_check_escape(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "check-escape",
            "potential": {"kind": "reference", "params": {}},
            "tau0": 2.0,
            "check": {"grid_points": 801},
            "out": str(tmp_path / "esc"),
        }
        result = run(cfg)
        assert result.exit_code == 0
        assert result.report["verdicts"]["escape"] == "PASS"

    def test_check_escape_general_empty_shell(self, tmp_path):
        cfg = dict(EMPTY_SHELL_ESCAPE, out=str(tmp_path / "esc"))
        result = run(cfg)
        assert result.report["verdicts"]["escape"] == "FAIL"
        assert result.exit_code == 2
        assert result.report["certificates"][0]["failures"] == ["empty shell"]

    def test_determinism(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "coeffs",
            "potential": {"kind": "diagonal_bumps",
                          "params": {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}},
            "tau_grid": {"lo": 0.6, "hi": 1.4, "count": 5},
        }
        r1 = run(dict(cfg), str(tmp_path / "a"))
        r2 = run(dict(cfg), str(tmp_path / "b"))
        assert report_identity_bytes(r1.report) == report_identity_bytes(r2.report)
        csv1 = (tmp_path / "a" / "data.csv").read_bytes()
        csv2 = (tmp_path / "b" / "data.csv").read_bytes()
        assert csv1 == csv2

    def test_sweep_identity_bytes_do_not_depend_on_out(self, tmp_path):
        one = run(_config("sweep_quick"), str(tmp_path / "a"))
        two = run(_config("sweep_quick"), str(tmp_path / "deeper" / "b"))
        assert one.report["tables"] != two.report["tables"]
        assert report_identity_bytes(one.report) == report_identity_bytes(two.report)
        # the report's children stay paths that open
        for path in two.report["tables"]["children"]:
            with open(path) as fh:
                assert json.load(fh)["verdicts"]

    def test_sweep(self, tmp_path, monkeypatch):
        # a run reads the sweep and each child once: its runners take the
        # inputs ingest parsed
        ingested = []
        from_dict = ExperimentConfig.from_dict

        def counted(doc):
            ingested.append(doc["experiment"])
            return from_dict(doc)

        monkeypatch.setattr(ExperimentConfig, "from_dict", staticmethod(counted))
        cfg = {
            "schema_version": 1,
            "experiment": "sweep",
            "experiments": [
                dict(TestConfigValidation.BASE),
                {
                    "schema_version": 1,
                    "experiment": "check-escape",
                    "potential": {"kind": "reference", "params": {}},
                    "tau0": 2.0,
                    "check": {"grid_points": 401},
                },
            ],
        }
        result = run(cfg, str(tmp_path / "sweep"))
        assert result.exit_code == 0
        assert len(result.report["verdicts"]) == 2
        assert ingested == ["sweep", "coeffs", "check-escape"]

    def test_ssf_weak_small(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "ssf",
            "variant": "weak",
            "potential": {"kind": "diagonal_bumps",
                          "params": {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}},
            "grid": {"R": 12.0, "tau_max": 2.0, "m_cap": 8192},
            "h_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
            "test_function": {"kind": "bump", "support": [0.8, 1.2]},
            "tau0": 1.0,
            "thresholds": {"rel": 0.05, "order": 1.5},
            "out": str(tmp_path / "weak"),
        }
        result = run(cfg)
        assert result.report["verdicts"]["weak"] == "PASS"
        rows = result.report["tables"]["main"]["rows"]
        assert len(rows) == 4

    @pytest.mark.parametrize("exact_at,verdict,code", [(-1, "PASS", 0), (0, "FAIL", 2)])
    def test_ssf_weak_zero_error(self, tmp_path, monkeypatch, exact_at, verdict, code):
        # one h whose pairing meets c0 exactly: no fitted order, so the
        # relative error at the finest h decides alone
        import ssf_lab.coefficients as coefficients
        import ssf_lab.ssf as ssf_mod

        hs = [1 / 8, 1 / 16, 1 / 32]
        monkeypatch.setattr(ssf_mod, "build_pair",
                            lambda v, grid: ssf_mod.SpectralPair(grid, np.zeros(1), np.zeros(1)))
        monkeypatch.setattr(ssf_mod, "weak_pairing", lambda pair, f: 1.0)
        monkeypatch.setattr(coefficients, "c0",
                            lambda v, f: 2.0 * math.pi * hs[exact_at] * 1.0)
        cfg = {
            "schema_version": 1,
            "experiment": "ssf",
            "variant": "weak",
            "potential": {"kind": "reference", "params": {}},
            "grid": {"R": 12.0, "tau_max": 3.0, "m_cap": 8192},
            "h_list": hs,
            "test_function": {"kind": "bump", "support": [1.8, 2.2]},
            "tau0": 2.0,
            "thresholds": {"rel": 0.03, "order": 1.5},
        }
        result = run(cfg, str(tmp_path / "weak"))
        assert result.report["verdicts"]["weak"] == verdict
        assert result.exit_code == code
        rows = result.report["tables"]["main"]["rows"]
        assert rows[exact_at][3] == 0.0  # columns h, value, reference, rel_error, slope
        assert all(math.isnan(r[4]) for r in rows)

    def test_trace_thm1_negative_control(self, tmp_path):
        # even window: the trace grows like 1/h, so the decay verdict fails
        cfg = {
            "schema_version": 1,
            "experiment": "trace",
            "variant": "thm1",
            "potential": {"kind": "constant", "params": {"v_inf": 0.0, "N": 1}},
            "grid": {"R": 6.0, "tau_max": 2.56},
            "h_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
            "tau0": 1.0,
            "window": {"kind": "bump_at_zero", "eps": 0.25},
            "test_function": {"kind": "bump", "support": [0.3, 1.7]},
            "cutoff": {"x": {"center": 0.0, "halfwidth": 2.0},
                       "xi": {"center": 0.0, "halfwidth": 2.0}},
            "check": {"box": [[-2.5, 2.5], [-2.0, 2.0]], "grid_points": 31},
            "out": str(tmp_path / "thm1neg"),
        }
        result = run(cfg)
        assert result.report["verdicts"]["thm1"] == "FAIL"
        assert result.exit_code == 2
        slope = result.report["tables"]["main"]["rows"][0][4]
        assert slope < 0.0

    def test_ssf_weyl_small(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "ssf",
            "variant": "weyl",
            "potential": {"kind": "diagonal_bumps",
                          "params": {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}},
            "grid": {"R": 12.0, "tau_max": 2.56},
            "h_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
            "tau0": 1.8,
            "tau_grid": {"lo": 1.7, "hi": 1.9, "count": 9},
            "window": {"kind": "bump_at_zero", "eps": 0.25},
            "thresholds": {"rel": 0.05, "order": 0.7},
            "out": str(tmp_path / "weyl"),
        }
        result = run(cfg)
        assert result.report["verdicts"]["weyl"] == "PASS"
        assert result.report["certificates"][0]["valid"] is True

    def test_trace_not_certified_gate(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "trace",
            "variant": "thm3",
            "potential": {"kind": "conical_crossing", "params": {}},
            "grid": {"R": 6.0, "tau_max": 2.0},
            "h_list": [1 / 8, 1 / 16, 1 / 32],
            "tau0": 0.0,
            "window": {"kind": "bump_at_zero", "eps": 0.25},
            "test_function": {"kind": "bump", "support": [-0.5, 0.5]},
            "cutoff": {"x": {"center": 0.0, "halfwidth": 2.0},
                       "xi": {"center": 0.0, "halfwidth": 2.0}},
            "check": {"box": [[-2.5, 2.5], [-2.0, 2.0]], "grid_points": 31},
            "out": str(tmp_path / "gated"),
        }
        result = run(cfg)
        assert result.report["verdicts"]["thm3"] == "NOT_CERTIFIED"
        assert result.exit_code == 0

    @pytest.mark.parametrize("name", ["ssf_weak_reference", "ssf_weyl_reference",
                                      "ssf_derivative_reference"])
    def test_h_term_is_refused(self, tmp_path, no_assembly, capsys, name):
        # no variant reads an h term: its references would come from the
        # potential alone, so an h * V1 on each grid would leave an O(h)
        # residual.  The key is refused at ingest, alone and as a sweep's
        # second child, before the first child (coeffs) writes its report
        term = {"kind": "diagonal_bumps",
                "params": {"depths": [0.3, 0.3], "centers": [0.5, 0.5], "widths": [1.0, 1.0]}}
        doc = _config(name, out=str(tmp_path / "alone"), h_term=term)
        with pytest.raises(ConfigError, match="only, not h_term$"):
            run(doc)
        child = {k: v for k, v in doc.items() if k not in ("schema_version", "out")}
        sweep = {"schema_version": 1, "experiment": "sweep", "out": str(tmp_path / "sweep"),
                 "experiments": [_config("sweep_quick")["experiments"][2], child]}
        with pytest.raises(ConfigError, match="only, not h_term$"):
            run(sweep)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sweep))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        assert "h_term" in capsys.readouterr().err
        assert list(tmp_path.rglob("report.json")) == []


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config(name: str, **changes) -> dict:
    """A stock config with some keys replaced."""
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        return dict(json.load(fh), **changes)


def _refuse(*args, **kwargs):
    raise AssertionError("reached past config parsing")


@pytest.fixture
def no_assembly(monkeypatch):
    """Fail any run that gets as far as a shell check or an operator."""
    monkeypatch.setattr(mh, "check_on_energy_shell", _refuse)
    monkeypatch.setattr(ssf_mod, "build_pair", _refuse)
    monkeypatch.setattr(qz, "build_schrodinger", _refuse)


class TestWindowAndCheckBlocks:
    # the window block takes kind and eps alone, one window for every h: an
    # eps_rule, null or "sqrt_h" (eps = sqrt(h)) on thm1 too, is an unknown key
    @pytest.mark.parametrize("name,rule", [("trace_thm3_crossing", "sqrt_h"),
                                           ("ssf_weyl_reference", "sqrt_h"),
                                           ("trace_thm1_free", "bogus"),
                                           ("trace_thm1_free", "sqrt_h"),
                                           ("trace_thm1_free", None)])
    def test_eps_rule_not_applied_is_rejected(self, tmp_path, no_assembly, name, rule):
        doc = _config(name, out=str(tmp_path / "o"))
        doc["window"] = dict(doc["window"], eps_rule=rule)
        self._rejected(tmp_path, doc, "window.eps_rule")

    @pytest.mark.parametrize("name", ["trace_thm2_locality", "ssf_derivative_reference"])
    def test_unknown_window_key_is_rejected(self, tmp_path, no_assembly, name):
        doc = _config(name, out=str(tmp_path / "o"))
        doc["window"] = dict(doc["window"], shape="gauss", width=0.1)
        self._rejected(tmp_path, doc, "window.shape, window.width")

    # every block refuses the keys it does not read, rather than run on the
    # default of the key it was meant to be
    @pytest.mark.parametrize("name,block,key,value", [
        ("trace_thm2_locality", "tau_grid", "cnt", 5),
        ("trace_thm3_crossing", "cutoff.x", "centre", 0.5),
        ("trace_thm1_free", "test_function", "plateu", [0.5, 1.5]),
        ("check_mh_crossing", "potential", "parms", {"v_inf": 1.0}),
        # a param the kind does not read, as the island's amp misspelt
        ("check_escape_island", "potential.params", "ampp", 30.0),
        ("ssf_weak_reference", "potential.params", "amp", 2.0),
        ("trace_thm2_locality", "perturbation.params", "depth", [0.5]),
    ])
    def test_unread_block_key_is_rejected(self, tmp_path, no_assembly, name, block, key, value):
        doc = _config(name, out=str(tmp_path / "o"))
        target = doc
        for part in block.split("."):
            target = target[part]
        target[key] = value
        self._rejected(tmp_path, doc, f"not {block}.{key}$")

    @staticmethod
    def _rejected(tmp_path, doc, named):
        with pytest.raises(ConfigError, match=named):
            run(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(path)]) == 1

    @pytest.mark.parametrize("name", ["trace_thm1_free", "ssf_weak_reference"])
    def test_pinned_m_is_rejected(self, tmp_path, no_assembly, name):
        # every grid follows the coverage rule; the block takes no M
        doc = _config(name, out=str(tmp_path / "o"))
        doc["grid"] = dict(doc["grid"], M=2048)
        with pytest.raises(ConfigError, match="grid.M"):
            run(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(path)]) == 1

    @pytest.mark.parametrize("name", ["trace_thm3_crossing", "ssf_weak_reference"])
    def test_missing_tau_max_is_rejected(self, tmp_path, no_assembly, name):
        # no default rule stands in for the energies a grid must resolve
        doc = _config(name, out=str(tmp_path / "o"))
        del doc["grid"]["tau_max"]
        with pytest.raises(ConfigError, match="tau_max"):
            run(doc)

    @pytest.mark.parametrize("name", ["trace_thm2_locality", "ssf_weyl_reference"])
    def test_missing_h_list_is_rejected(self, tmp_path, no_assembly, capsys, name):
        doc = _config(name, out=str(tmp_path / "o"))
        del doc["h_list"]
        with pytest.raises(ConfigError, match="h_list"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(path)]) == 1
        assert f"config error: {doc['experiment']} needs an h_list" in capsys.readouterr().err

    def test_ladder_beyond_m_cap_fails_before_the_certificate(self, tmp_path, no_assembly):
        doc = _config("trace_thm3_crossing", out=str(tmp_path / "o"))
        doc["grid"] = dict(doc["grid"], m_cap=512)
        with pytest.raises(ConfigError, match="^grid.m_cap: h=0.015625 needs M=692 > cap 512") as err:
            run(doc)
        # chained from the refusal a direct caller of grid_for gets
        assert isinstance(err.value.__cause__, qz.CoverageError)

    def test_trace_fixed_direction(self, tmp_path):
        # no single direction certifies the free shell at both xi = +1 and -1
        # a direction given alone is the one checked, not only recorded
        doc = _config("trace_thm1_free", out=str(tmp_path / "o"),
                      check={"box": [[-2.5, 2.5], [-2.0, 2.0]], "grid_points": 21,
                             "T": [0.0, 1.0]})
        result = run(doc)
        assert result.report["verdicts"] == {"thm1": "NOT_CERTIFIED"}
        assert result.report["certificates"][0]["T"] == [0.0, 1.0]

    @pytest.mark.parametrize("name", ["check_mh_crossing", "trace_thm3_crossing"])
    def test_unknown_check_key_is_rejected(self, tmp_path, no_assembly, name):
        # the direction search has no mode: a leftover "mode" is not ignored
        doc = _config(name, out=str(tmp_path / "o"))
        doc["check"] = dict(doc["check"], mode="per_point_T")
        self._rejected(tmp_path, doc, "check.mode")

    @pytest.mark.parametrize("kind,key", [("dilation", "box"), ("general", "x_range")])
    def test_escape_check_key_is_rejected(self, tmp_path, monkeypatch, kind, key):
        for name in ("escape_check_dilation", "escape_check_general"):
            monkeypatch.setattr(mh, name, _refuse)
        doc = _config("check_escape_reference", out=str(tmp_path / "o"), escape_kind=kind)
        doc["check"] = dict(doc["check"], **{key: [-1.0, 1.0]})
        self._rejected(tmp_path, doc, f"check.{key}")

    def test_misspelled_top_level_key_is_rejected(self, tmp_path, monkeypatch):
        # "tau_0" does not silently leave tau0 at its default 2, where the
        # island's escape check is valid and the sweep would build pairs
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        monkeypatch.setattr(ssf_mod, "build_pair", _refuse)
        doc = _config("ssf_weyl_reference", out=str(tmp_path / "o"),
                      potential={"kind": "island", "params": {"amp": 3.0}}, tau_0=0.6)
        self._rejected(tmp_path, doc, "not tau_0")

    @pytest.mark.parametrize("name,check,named", [
        ("ssf_weak_reference", {"box": [[0, 1], [0, 1]], "mode": "x"}, "check.box, check.mode"),
        ("trace_thm2_locality", {}, "thm2 takes no check block"),
    ])
    def test_unread_check_block_is_rejected(self, tmp_path, no_assembly, monkeypatch, name,
                                            check, named):
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        doc = _config(name, out=str(tmp_path / "o"), check=check)
        self._rejected(tmp_path, doc, named)

    def test_ssf_escape_certificate_reads_the_check_block(self, tmp_path, monkeypatch):
        # the ssf children of a sweep share an escape check only where their
        # check blocks agree
        calls = []

        def spy(v, tau0, x_range, grid_points):
            calls.append((x_range, grid_points))
            return escape_check_dilation(v, tau0, x_range, grid_points)

        monkeypatch.setattr(mh, "escape_check_dilation", spy)
        monkeypatch.setattr(ssf_mod, "build_pair", _refuse)
        island = {"kind": "island", "params": {"amp": 3.0}}
        doc = _config("ssf_reference", out=str(tmp_path / "o"))
        doc["experiments"] = [dict(child, potential=island, tau0=0.6)
                              for child in doc["experiments"] if child["variant"] != "weak"]
        doc["experiments"][-1]["check"] = {"x_range": [-6.0, 6.0], "grid_points": 601}
        result = run(doc)
        assert calls == [((-8.0, 8.0), 2001), ((-6.0, 6.0), 601)]
        assert set(result.report["verdicts"].values()) == {"NOT_CERTIFIED"}

    def test_unknown_escape_kind_is_rejected(self, tmp_path, monkeypatch):
        # a typo no longer runs the general check
        for name in ("escape_check_dilation", "escape_check_general"):
            monkeypatch.setattr(mh, name, _refuse)
        doc = _config("check_escape_reference", out=str(tmp_path / "o"), escape_kind="dilatation")
        self._rejected(tmp_path, doc, "escape_kind must be 'dilation' or 'general', got 'dilatation'")


STOCK_CONFIGS = sorted(name[:-len(".json")] for name in os.listdir(CONFIGS))

# two diagonal wells with the channel limits 0 and 0.3
SPLIT_LIMITS = {"kind": "diagonal_bumps",
                "params": {"depths": [-1.0, 0.6], "centers": [0.0, 0.5], "widths": [1.0, 0.7],
                           "v_inf": [0.0, 0.3]}}


class TestRefusedBeforeSolve:
    """Every refusal of a trace or ssf sweep comes before its first operator,
    pair or shell check: at ingest, the energy check included, or at the
    certificate."""

    @pytest.mark.parametrize("name", STOCK_CONFIGS)
    def test_stock_configs_are_ingested(self, name):
        doc = _config(name)
        ExperimentConfig.from_dict(doc)
        for child in doc.get("experiments", []):
            ExperimentConfig.from_dict(dict(child, schema_version=1))

    @pytest.mark.parametrize("name", ["trace_thm1_free", "trace_thm3_crossing",
                                      "ssf_weak_reference", "ssf_derivative_reference"])
    @pytest.mark.parametrize("h_list", [[1 / 16, 1 / 64], [1 / 16, 1 / 24, 1 / 32]],
                             ids=["two_h", "spread_below_4"])
    def test_short_ladder(self, tmp_path, no_assembly, name, h_list):
        doc = _config(name, out=str(tmp_path / "o"), h_list=h_list)
        with pytest.raises(ConfigError, match="at least 3 h with max/min >= 4"):
            ExperimentConfig.from_dict(doc)
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, "at least 3 h")

    @pytest.mark.parametrize("name,key", [("trace_thm1_free", "rel"),
                                          ("trace_thm2_locality", "rel"),
                                          ("trace_thm3_crossing", "slope"),
                                          ("ssf_weyl_reference", "slope")])
    def test_unknown_threshold_key(self, tmp_path, no_assembly, name, key):
        doc = _config(name, out=str(tmp_path / "o"))
        doc["thresholds"] = dict(doc["thresholds"], **{key: 0.5})
        with pytest.raises(ConfigError, match=f"not thresholds.{key}"):
            ExperimentConfig.from_dict(doc)
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, f"thresholds.{key}")

    @pytest.mark.parametrize("name,change,named", [
        ("ssf_weak_reference", {"test_function": {"kind": "bump", "support": [3.0, 3.4]}},
         "support up to 3.4 exceeds the reliable window 3.24"),
        ("ssf_derivative_reference",
         {"test_function": {"kind": "plateau", "support": [1.2, 3.3], "plateau": [1.6, 2.4]}},
         "support up to 3.3 exceeds the reliable window 3.24"),
        # weyl reads no f: its top energy is the top of its tau grid
        ("ssf_weyl_reference", {"tau_grid": {"lo": 3.0, "hi": 3.3, "count": 5}},
         "tau up to 3.3 exceeds the reliable window 3.24"),
        ("trace_thm3_crossing", {"test_function": {"kind": "bump", "support": [1.5, 2.5]}},
         "support up to 2.5 exceeds the reliable window 2.0"),
    ])
    def test_energy_above_tau_max(self, tmp_path, no_assembly, monkeypatch, name, change, named):
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        doc = _config(name, out=str(tmp_path / "o"), **change)
        with pytest.raises(ConfigError, match=f"^grid.tau_max: {named}") as err:
            run(doc)
        # chained from the refusal a direct caller of a theorem check gets
        assert isinstance(err.value.__cause__, qz.WindowRangeError)

    def test_weyl_reads_no_f(self, tmp_path, no_assembly):
        # weyl takes no test function, so an f, here with supp f above
        # tau_max, is refused at ingest and not checked against the grids
        doc = _config("ssf_weyl_reference", out=str(tmp_path / "o"),
                      potential={"kind": "island", "params": {"amp": 3.0}}, tau0=0.6,
                      test_function={"kind": "bump", "support": [3.0, 3.4]})
        with pytest.raises(ConfigError, match="only, not test_function$"):
            run(doc)

    @pytest.mark.parametrize("name", ["trace_thm3_crossing", "ssf_weyl_reference",
                                      "ssf_derivative_reference"])
    def test_one_sided_window(self, tmp_path, no_assembly, monkeypatch, name):
        # these variants read the even window alone: the one-sided one is
        # refused before any certificate, pair or shell check
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        doc = _config(name, out=str(tmp_path / "o"))
        doc["window"] = dict(doc["window"], kind="bump_positive")
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, "window.kind")

    @pytest.mark.parametrize("name,change,named", [
        # thm1_free down to h = 1/2048, whose grids m_cap admits, reads the
        # one-sided profile at y up to 0.7 / h
        ("trace_thm1_free",
         {"h_list": [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024, 1 / 2048],
          "grid": {"R": 6.0, "tau_max": 2.56, "m_cap": 32768}},
         "window.eps 1 at h=0.000488281 reads the window profile up to y = 1433.6,"),
        # tau_grid's 0.9 against the top of supp f, 1.2
        ("trace_thm2_locality", {"window": {"kind": "bump_at_zero", "eps": 40.0}},
         "window.eps 40 at h=0.0078125 .* y = 1536.0,"),
        ("trace_thm3_crossing", {"window": {"kind": "bump_at_zero", "eps": 20.0}},
         "window.eps 20 at h=0.0078125 .* y = 1280.0,"),
        ("ssf_derivative_reference", {"window": {"kind": "bump_at_zero", "eps": 12.0}},
         "window.eps 12 at h=0.0078125 .* y = 1228.8,"),
    ], ids=["thm1", "thm2", "thm3", "derivative"])
    def test_window_past_its_profile(self, tmp_path, no_assembly, monkeypatch, name, change,
                                     named):
        # the profile is tabulated up to y = 1200 and reads 0 beyond, so a
        # window that would read it there is refused at ingest
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        doc = _config(name, out=str(tmp_path / "o"), **change)
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, named + " past the end of its table "
                                           "at y = 1200$")
        assert not (tmp_path / "o").exists()
        # the ladder without its last h, or with it at half the eps, is read
        # inside the table
        ExperimentConfig.from_dict(dict(doc, h_list=doc["h_list"][:-1]))
        ExperimentConfig.from_dict(dict(doc, window=dict(doc["window"],
                                                         eps=doc["window"]["eps"] / 2)))

    def test_weyl_window_reads_past_the_profile(self, no_assembly):
        # weyl reads the profile's primitive, which saturates past the table
        ExperimentConfig.from_dict(_config("ssf_weyl_reference",
                                           window={"kind": "bump_at_zero", "eps": 40.0}))

    @pytest.mark.parametrize("tf,named", [
        ({"kind": "bump", "support": [1.8, 2.2], "plateau": [1.9, 2.1]},
         "test_function.plateau"),
        ({"kind": "raised_cosine", "support": [2.2, 1.8]}, "empty support"),
        ({"kind": "bump", "support": [2.0, 2.0]}, "empty support"),
        ({"kind": "plateau", "support": [2.2, 1.8], "plateau": [2.1, 1.9]}, "empty support"),
    ], ids=["plateau_on_bump", "reversed", "empty", "reversed_plateau"])
    def test_test_function_it_cannot_use(self, tmp_path, no_assembly, monkeypatch, tf, named):
        # a plateau that only the plateau kind reads, or an empty support
        # (the zero function, whose weak sweep would pass vacuously)
        monkeypatch.setattr(mh, "escape_check_dilation", _refuse)
        doc = _config("ssf_weak_reference", out=str(tmp_path / "o"), test_function=tf)
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, named)

    def test_ssf_box_too_small(self, tmp_path, no_assembly):
        # the reference potential is 9e-3 from its limit at the edge of a box
        # of R 4: the sweep is refused before its coeffs child writes anything
        coeffs = _config("sweep_quick")["experiments"][2]
        weak = dict(_config("ssf_weak_reference"), grid={"R": 4.0, "tau_max": 3.24})
        del weak["out"], weak["schema_version"]
        doc = {"schema_version": 1, "experiment": "sweep", "experiments": [coeffs, weak],
               "out": str(tmp_path / "o")}
        TestWindowAndCheckBlocks._rejected(tmp_path, doc,
                                           r"grid\.R: \|V - V_inf\| = 9\.16e-03 at the box edge")
        assert list(tmp_path.rglob("report.json")) == []

    @pytest.mark.parametrize("name", ["ssf_weyl_reference", "ssf_derivative_reference"])
    def test_uncertified_ssf(self, tmp_path, no_assembly, name):
        # inside the island's well the dilation escape check fails: the
        # verdict is withheld before any pair is built
        doc = _config(name, out=str(tmp_path / "o"),
                      potential={"kind": "island", "params": {"amp": 3.0}}, tau0=0.6)
        result = run(doc)
        variant = doc["variant"]
        assert result.report["verdicts"] == {variant: "NOT_CERTIFIED"}
        assert result.report["certificates"][0]["valid"] is False
        assert result.report["tables"]["main"]["rows"] == []
        assert result.exit_code == 0

    def test_uncertified_weak_is_not_gated(self, tmp_path, monkeypatch):
        # weak records the failing escape certificate and still solves
        monkeypatch.setattr(ssf_mod, "build_pair", _refuse)
        doc = _config("ssf_weak_reference", out=str(tmp_path / "o"),
                      potential={"kind": "island", "params": {"amp": 3.0}}, tau0=0.6)
        with pytest.raises(AssertionError, match="reached past config parsing"):
            run(doc)

    @pytest.mark.parametrize("child,change,error,named", [
        ("ssf_derivative_reference", {"h_list": [0.0625, 0.03125]}, ConfigError, "at least 3 h"),
        ("ssf_derivative_reference", {"thresholds": {"order": 1.5, "slope": 1.0}}, ConfigError,
         "thresholds.slope"),
        ("ssf_derivative_reference", {"variant": "strong"}, ConfigError, "ssf needs variant"),
        ("ssf_weak_reference", {"grid": {"R": 12.0, "tau_max": 3.24, "N": 64}}, ConfigError,
         "not grid.N$"),
        ("trace_thm3_crossing",
         {"cutoff": {"x": {"centre": 0.5}, "xi": {"center": 0.0, "halfwidth": 2.0}}},
         ConfigError, "not cutoff.x.centre$"),
        ("ssf_weyl_reference", {"potential": {"kind": "nope", "params": {}}}, ConfigError,
         "bad potential spec: unknown model potential kind: 'nope'"),
        ("ssf_weyl_reference", {"tau_grid": {"lo": 2.2, "hi": 1.8, "count": 41}}, ConfigError,
         "tau_grid needs hi > lo"),
        ("trace_thm3_crossing", {"check": {"grid_points": 41, "mode": "per_point_T"}},
         ConfigError, "not check.mode$"),
        ("ssf_weak_reference", {"test_function": {"kind": "bump", "support": [3.0, 3.4]}},
         ConfigError, "grid.tau_max: support up to 3.4 exceeds the reliable window 3.24"),
        ("ssf_derivative_reference", {"grid": {"R": 12.0, "tau_max": 3.24, "m_cap": 100}},
         ConfigError, "grid.m_cap: h=0.0625 needs M=.* > cap 100"),
        ("trace_thm3_crossing", {"check": {"grid_points": -1}}, ConfigError,
         "check.grid_points must be at least 2"),
        ("trace_thm3_crossing", {"check": {"shell_tol": 0}}, ConfigError,
         "check.shell_tol must be positive"),
        ("trace_thm3_crossing",
         {"cutoff": {"x": {"halfwidth": 0}, "xi": {"center": 0.0, "halfwidth": 2.0}}},
         ConfigError, "cutoff.x.halfwidth must be positive"),
        # a cutoff that breaks a grid's margins, which weyl_quantize refuses
        ("trace_thm3_crossing",
         {"cutoff": {"x": {"center": 100.0}, "xi": {"center": 0.0, "halfwidth": 2.0}}},
         ConfigError, r"cutoff at h=0.0625: x-support \[98.0, 102.0\] violates the margin"),
        ("trace_thm3_crossing",
         {"cutoff": {"x": {"center": 0.0}, "xi": {"center": 0.0, "halfwidth": 1000.0}}},
         ConfigError, "cutoff at h=0.0625: xi-support .* exceeds the momentum window"),
        # what a0 and gamma0 refuse: a0 a limit that is not zero, both a tau
        # within 1e-6 of a channel limit
        ("ssf_weyl_reference", {"potential": SPLIT_LIMITS}, ConfigError,
         "potential: a0 requires the potential limit to be zero"),
        ("coeffs_reference", {"potential": SPLIT_LIMITS}, ConfigError,
         "potential: a0 requires the potential limit to be zero"),
        ("ssf_weyl_reference", {"tau_grid": {"lo": -0.1, "hi": 0.1, "count": 3}}, ConfigError,
         r"tau_grid: tau=0.0 is within 1e-06 of a channel limit"),
        ("coeffs_reference", {"tau_grid": {"lo": -1.0, "hi": 1.0, "count": 5}}, ConfigError,
         r"tau_grid: tau=0.0 is within 1e-06 of a channel limit"),
        ("ssf_derivative_reference", {"potential": SPLIT_LIMITS, "tau0": 0.3}, ConfigError,
         r"tau0: tau=0.3 is within 1e-06 of a channel limit"),
        # a thm2 perturbation that reaches supp chi, which theorem2_check
        # refuses; a d_sep that is not positive, and a comparison's rel
        ("trace_thm2_locality",
         {"perturbation": {"kind": "diagonal_bumps",
                           "params": {"depths": [0.5], "centers": [1.0], "widths": [0.4]}},
          "h_list": [0.0625, 0.03125, 0.015625]},
         ConfigError, r"d_sep: perturbation support within 2.0 of the cutoff support \(gap 0.00\)"),
        ("trace_thm2_locality", {"d_sep": 0}, ConfigError, "d_sep must be positive, got 0"),
        ("ssf_weak_reference", {"thresholds": {"rel": 0, "order": 1.5}}, ConfigError,
         "thresholds.rel must be positive, got 0"),
    ], ids=["change0-at least 3 h", "change1-thresholds.slope", "change2-ssf needs variant",
            "grid_key", "cutoff_key", "potential_kind", "tau_grid", "check_key",
            "energy_above_tau_max", "m_cap", "grid_points", "shell_tol", "halfwidth",
            "cutoff_x_margin", "cutoff_xi_margin", "weyl_limit", "coeffs_limit",
            "weyl_tau_at_limit", "coeffs_tau_at_limit", "derivative_tau0_at_limit",
            "thm2_within_d_sep", "d_sep_zero", "thresholds_rel_zero"])
    def test_sweep_with_a_bad_child(self, tmp_path, no_assembly, capsys, child, change, error,
                                    named):
        # a bad block of the last child is refused at ingest, with the error
        # a run of the child alone raises, before the first child (coeffs,
        # which no_assembly does not stop) writes its report
        coeffs = _config("sweep_quick")["experiments"][2]
        broken = {k: v for k, v in _config(child, **change).items()
                  if k not in ("schema_version", "out")}
        doc = {"schema_version": 1, "experiment": "sweep", "experiments": [coeffs, broken],
               "out": str(tmp_path / "o")}
        with pytest.raises(error, match=named):
            ExperimentConfig.from_dict(doc)
        with pytest.raises(error, match=named):
            run(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        prefix = "config error: " if error is ConfigError else f"error: {error.__name__}: "
        err = capsys.readouterr().err
        assert err.startswith(prefix) and re.search(named, err)
        assert not (tmp_path / "o").exists()

    def test_derivative_takes_a_nonzero_limit(self):
        # gamma0 needs no zero limit, only a tau0 off the channel limits
        ExperimentConfig.from_dict(_config("ssf_derivative_reference", potential=SPLIT_LIMITS))

    # every number a config gives is read by one reader: an integer key takes
    # a JSON integer alone, a number key no string, bool, null, NaN or
    # Infinity, and each refusal names its key
    @pytest.mark.parametrize("name,key,value,named", [
        ("ssf_weyl_reference", "tau_grid.count", 40.9, "tau_grid.count must be an integer"),
        ("ssf_weyl_reference", "tau_grid.count", 41.0, "tau_grid.count must be an integer"),
        ("coeffs_reference", "tau_grid.count", True, "tau_grid.count must be an integer"),
        ("check_mh_crossing", "check.grid_points", 30.7, "check.grid_points must be an integer"),
        ("check_escape_reference", "check.grid_points", "2001",
         "check.grid_points must be an integer"),
        ("ssf_weak_reference", "grid.m_cap", "8192", "grid.m_cap must be an integer"),
        ("ssf_weak_reference", "h_list.0", "0.0625", r"h_list\[0\] must be a finite number"),
        ("ssf_weak_reference", "h_list", 0.0625, "h_list must be a list"),
        ("coeffs_reference", "tau_grid.lo", "one", "tau_grid.lo must be a finite number"),
        ("ssf_weyl_reference", "tau_grid.hi", "2.2", "tau_grid.hi must be a finite number"),
        ("trace_thm3_crossing", "tau0", None, "tau0 must be a finite number"),
        ("trace_thm2_locality", "d_sep", "2", "d_sep must be a finite number"),
        ("trace_thm1_free", "grid.R", True, "grid.R must be a finite number"),
        ("ssf_weak_reference", "grid.tau_max", "3.24", "grid.tau_max must be a finite number"),
        ("ssf_weyl_reference", "window.eps", None, "window.eps must be a finite number"),
        ("ssf_weak_reference", "test_function.support.1", "2.2",
         r"test_function.support\[1\] must be a finite number"),
        ("ssf_derivative_reference", "test_function.plateau.0", None,
         r"test_function.plateau\[0\] must be a finite number"),
        ("trace_thm3_crossing", "cutoff.x.center", "0", "cutoff.x.center must be a finite number"),
        ("trace_thm3_crossing", "cutoff.xi.halfwidth", False,
         "cutoff.xi.halfwidth must be a finite number"),
        ("ssf_weak_reference", "thresholds.rel", "0.03", "thresholds.rel must be a finite number"),
        ("check_mh_crossing", "check.box.0.1", "2", r"check.box\[0\]\[1\] must be a finite number"),
        ("check_mh_crossing", "check.box", [[-2.0, 2.0]], "check.box must be two"),
        ("check_escape_reference", "check.x_range.0", None,
         r"check.x_range\[0\] must be a finite number"),
        ("check_mh_crossing", "check.shell_tol", "0.1", "check.shell_tol must be a finite number"),
        ("check_mh_crossing", "tau0", math.nan, "tau0 must be a finite number"),
        ("ssf_weak_reference", "grid.tau_max", math.inf, "grid.tau_max must be a finite number"),
        # a sample that checks the hypothesis at one point or at none, a
        # cutoff of no width (its trace, 0, matches its reference, 0), a
        # grid of no box or energy range, or a support or plateau that is
        # not an interval
        ("trace_thm3_crossing", "check.shell_tol", -1, "check.shell_tol must be positive"),
        ("check_mh_crossing", "check.shell_tol", 0, "check.shell_tol must be positive"),
        ("trace_thm3_crossing", "check.grid_points", 1, "check.grid_points must be at least 2"),
        ("trace_thm3_crossing", "check.grid_points", 0, "check.grid_points must be at least 2"),
        ("check_escape_reference", "check.grid_points", -3,
         "check.grid_points must be at least 2"),
        ("trace_thm3_crossing", "check.box.0", [0.0, 0.0],
         r"check.box\[0\] must be \[lo, hi\] with hi > lo"),
        ("check_mh_crossing", "check.box.1", [2.0, -2.0],
         r"check.box\[1\] must be \[lo, hi\] with hi > lo"),
        ("check_escape_reference", "check.x_range", [1.0, 1.0],
         r"check.x_range must be \[lo, hi\] with hi > lo"),
        ("trace_thm3_crossing", "cutoff.x.halfwidth", 0, "cutoff.x.halfwidth must be positive"),
        ("trace_thm3_crossing", "cutoff.xi.halfwidth", -1.0,
         "cutoff.xi.halfwidth must be positive"),
        ("trace_thm1_free", "grid.R", 0, "grid.R must be positive"),
        ("ssf_weak_reference", "grid.R", -12.0, "grid.R must be positive"),
        ("ssf_weak_reference", "grid.tau_max", 0, "grid.tau_max must be positive"),
        ("trace_thm3_crossing", "grid.tau_max", -2.0, "grid.tau_max must be positive"),
        # a separation that refuses no overlap, and a comparison that passes
        # nothing but an exact 0
        ("trace_thm2_locality", "d_sep", -5, "d_sep must be positive"),
        ("ssf_weyl_reference", "thresholds.rel", -1, "thresholds.rel must be positive"),
        ("ssf_weak_reference", "test_function.support", [1.8],
         "test_function.support must be a list of 2 numbers"),
        ("ssf_weak_reference", "test_function.support", [1.8, 2.0, 2.2],
         "test_function.support must be a list of 2 numbers"),
        ("ssf_derivative_reference", "test_function.plateau", [1.6],
         "test_function.plateau must be a list of 2 numbers"),
    ])
    def test_number_refused_at_ingest(self, tmp_path, no_assembly, name, key, value, named):
        doc = _config(name, out=str(tmp_path / "o"))
        *path, last = key.split(".")
        target = doc
        for part in path:
            target = target[int(part) if isinstance(target, list) else part]
        target[int(last) if isinstance(target, list) else last] = value
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, named)

    @pytest.mark.parametrize("T,named", [
        ([0, 0], "check.T must not be zero"),
        ([0.0, 1.0, 0.0], "check.T must be a list of 2 numbers"),
        ([math.inf, 1.0], r"check.T\[0\] must be a finite number"),
        (["1", 0.0], r"check.T\[0\] must be a finite number"),
        ([1e200, 0.0], r"check.T must not be zero and its norm must be finite, "
                       r"got \[1e\+200, 0.0\]: .* of norm inf"),
    ], ids=["zero", "length", "infinite", "string", "norm-overflow"])
    def test_direction_refused_at_ingest(self, tmp_path, no_assembly, capsys, T, named):
        # a bad direction in the second child is refused before the first
        # (coeffs, which no_assembly does not stop) writes its report; a
        # direction of finite components whose norm overflows, too
        coeffs = _config("sweep_quick")["experiments"][2]
        check_mh = {k: v for k, v in _config("check_mh_crossing").items()
                    if k not in ("schema_version", "out")}
        check_mh["check"] = dict(check_mh["check"], T=T)
        doc = {"schema_version": 1, "experiment": "sweep", "experiments": [coeffs, check_mh],
               "out": str(tmp_path / "o")}
        with pytest.raises(ConfigError, match=named):
            run(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        assert re.search(named, capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


class TestStockTraceConfigs:
    def test_thm3_rotating_crossing_passes(self, tmp_path):
        # the first thm3 run whose channel eigenvectors turn with x; its
        # reference has turning points inside supp chi
        result = run(_config("trace_thm3_rotating", out=str(tmp_path / "rot")))
        assert result.report["certificates"][0]["valid"] is True
        assert result.report["verdicts"] == {"thm3": "PASS"}
        assert result.exit_code == 0
        h, value, reference, rel_error, slope = result.report["tables"]["main"]["rows"][-1]
        assert reference == pytest.approx(4.219614114, rel=2e-6)
        assert rel_error < 0.05 and slope > 1.0

    def test_thm3_free_control_passes(self, tmp_path):
        # the scalar control of the leading term: the free symbol's shell
        # certificate holds, and the trace reaches its reference within 2 %.
        # The values are read from the FFT of the cutoff's lag sums, which
        # sums in another order than the plane-wave products that gave
        # these digits: they agree to 6.3e-16 relative, so 1e-12 holds
        # every rounding-level change and catches any change of the method
        result = run(_config("trace_thm3_free", out=str(tmp_path / "free")))
        assert result.report["certificates"][0]["valid"] is True
        assert result.report["verdicts"] == {"thm3": "PASS"}
        assert result.exit_code == 0
        assert [row[1] for row in result.report["tables"]["main"]["rows"]] == pytest.approx([
            0.8110613206902906, 1.4180724685933581, 1.8176319549183702, 1.722140548375989],
            rel=1e-12)


class TestStockCertificateZoo:
    # (shell, escape) verdicts of each model at tau0 = 0, 0.5, 1 and 2
    VERDICTS = {
        "constant": [("FAIL", "FAIL"), ("PASS", "PASS"), ("PASS", "PASS"), ("PASS", "PASS")],
        "diagonal_bumps": [("PASS", "FAIL"), ("PASS", "PASS"), ("PASS", "PASS"),
                           ("PASS", "PASS")],
        "conical_crossing": [("FAIL", "FAIL"), ("PASS", "FAIL"), ("PASS", "PASS"),
                             ("PASS", "PASS")],
        "avoided_crossing": [("PASS", "FAIL"), ("PASS", "FAIL"), ("PASS", "PASS"),
                             ("PASS", "PASS")],
        "reference": [("FAIL", "FAIL"), ("PASS", "FAIL"), ("PASS", "PASS"), ("PASS", "PASS")],
    }

    def test_verdicts(self, tmp_path):
        # the zoo refutes hypotheses by design, so the sweep exits 2
        doc = _config("certify_zoo", out=str(tmp_path / "o"))
        cells = [(experiment, kind, tau0, key, verdict)
                 for kind, row in self.VERDICTS.items()
                 for tau0, cell in zip((0.0, 0.5, 1.0, 2.0), row)
                 for experiment, key, verdict in zip(("check-mh", "check-escape"),
                                                     ("microhyperbolic", "escape"), cell)]
        assert [(c["experiment"], c["potential"]["kind"], c["tau0"])
                for c in doc["experiments"]] == [cell[:3] for cell in cells]
        expected = {f"{i:02d}:{experiment}:{key}": verdict
                    for i, (experiment, _, _, key, verdict) in enumerate(cells)}
        result = run(doc)
        assert result.report["verdicts"] == expected
        assert result.exit_code == 2
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 2


class TestMemoryAdmission:
    class Assembled(Exception):
        pass

    def test_stock_configs_are_admitted(self, monkeypatch):
        # the operators of every stock sweep at its finest h fit half of an
        # 8 GB host; assembly stops at the admitted estimate, so none of them
        # is allocated
        def stop(grid, samples):
            raise self.Assembled

        monkeypatch.setattr(qz, "physical_memory", lambda: 4 * 2**30)
        monkeypatch.setattr(qz, "_assemble_schrodinger", stop)
        built = 0
        for name in sorted(os.listdir(CONFIGS)):
            doc = _config(name[:-len(".json")])
            if "h_list" not in doc:
                continue
            g = doc["grid"]
            grid = qz.grid_for(min(doc["h_list"]), g["R"], g["tau_max"], g["m_cap"])
            v = ExperimentConfig.from_dict(doc).inputs["v"]
            potentials = [v, model_potential("constant", v_inf=np.diag(v.v_infinity).real,
                                             N=v.N)]
            if "perturbation" in doc:
                pert = doc["perturbation"]
                potentials.append(combine_potentials(v, model_potential(pert["kind"],
                                                                        **pert["params"])))
            for p in potentials:
                try:
                    # an analytic spectrum checks its matrix when it is read,
                    # a split one each channel block
                    op = qz.build_schrodinger(p, grid)
                    getattr(op, "channels", [op])[0].matrix
                except self.Assembled:
                    built += 1
        assert built == 17

    def test_cli_prints_the_figures(self, tmp_path, monkeypatch, capsys):
        def refused(grid, samples):
            raise AssertionError("assembled past a refused admission")

        monkeypatch.setattr(qz, "physical_memory", lambda: 1 << 20)
        monkeypatch.setattr(qz, "_assemble_schrodinger", refused)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_config("ssf_weak_reference", out=str(tmp_path / "o"))))
        assert cli.main(["ssf", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "MemoryBudgetError" in err and f"the host has {1 << 20} B" in err


class TestSsfReferenceSweep:
    STOCK = ("ssf_weak_reference", "ssf_weyl_reference", "ssf_derivative_reference")

    def test_children_are_the_stock_configs(self):
        # the stock files stay the single-config entry points: the sweep's
        # children must not drift from them
        children = _config("ssf_reference")["experiments"]
        assert len(children) == len(self.STOCK)
        for child, name in zip(children, self.STOCK):
            stock = _config(name)
            del stock["out"], stock["schema_version"]
            assert child == stock

    def test_children_share_spectra(self, tmp_path, monkeypatch):
        # a short ladder on a small box: weak at h = 1/4 .. 1/16, the other
        # two at h = 1/8 .. 1/32, so four distinct grids between them
        ladders = ([1 / 4, 1 / 8, 1 / 16], [1 / 8, 1 / 16, 1 / 32], [1 / 8, 1 / 16, 1 / 32])
        children = [dict(_config(name), grid={"R": 7.0, "tau_max": 3.24, "m_cap": 8192},
                         h_list=hs) for name, hs in zip(self.STOCK, ladders)]
        for doc in children:
            del doc["out"]
        dims = {2 * qz.grid_for(h, 7.0, 3.24, 8192).M for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32)}
        solves = []
        escapes = []
        evd = qz._evd
        escape = mh.escape_check_dilation

        def count_solve(a):
            if len(a) in dims:
                solves.append(len(a))
            return evd(a)

        def count_escape(*args, **kwargs):
            escapes.append(args)
            return escape(*args, **kwargs)

        monkeypatch.setattr(qz, "_evd", count_solve)
        monkeypatch.setattr(mh, "escape_check_dilation", count_escape)
        sweep = run({"schema_version": 1, "experiment": "sweep", "experiments": children},
                    str(tmp_path / "sweep"))
        assert sorted(solves) == sorted(dims)
        assert len(escapes) == 1
        for i, (doc, path) in enumerate(zip(children, sweep.report["tables"]["children"])):
            with open(path) as fh:
                shared = json.load(fh)
            alone = run(dict(doc, schema_version=1), str(tmp_path / f"alone{i}"))
            assert report_identity_bytes(shared) == report_identity_bytes(alone.report)
        # run alone, each child solves its own three grids
        assert len(solves) == len(dims) + 9

    def test_children_share_under_spelled_defaults(self, tmp_path, monkeypatch):
        # a derivative child that spells its potential without params and its
        # check block's defaults out shares the weak child's pairs and
        # escape check: the keys are built from the parsed inputs
        hs = [1 / 4, 1 / 8, 1 / 16]
        small = {"R": 7.0, "tau_max": 3.24, "m_cap": 8192}
        weak = dict(_config("ssf_weak_reference"), grid=small, h_list=hs)
        spelled = dict(_config("ssf_derivative_reference"), grid=small, h_list=hs,
                       potential={"kind": "reference"},
                       check={"x_range": [-8.0, 8.0], "grid_points": 2001})
        children = [weak, spelled]
        for doc in children:
            del doc["out"], doc["schema_version"]
        pairs, escapes = [], []
        build_pair, escape = ssf_mod.build_pair, mh.escape_check_dilation

        def count_pair(v, grid):
            pairs.append(grid.h)
            return build_pair(v, grid)

        def count_escape(*args, **kwargs):
            escapes.append(args)
            return escape(*args, **kwargs)

        monkeypatch.setattr(ssf_mod, "build_pair", count_pair)
        monkeypatch.setattr(mh, "escape_check_dilation", count_escape)
        run({"schema_version": 1, "experiment": "sweep", "experiments": children},
            str(tmp_path / "sweep"))
        assert pairs == hs and len(escapes) == 1

    def test_grids_apart_in_tau_max_alone_share_spectra(self, tmp_path, monkeypatch):
        # tau_max 3.0 and 2.99 give M 212, 424, 848 and 212, 424, 846: the
        # first two rungs are one matrix, solved once and read on each
        # child's own grid
        hs = [1 / 8, 1 / 16, 1 / 32]
        children = [dict(_config("ssf_weak_reference"), h_list=hs,
                         grid={"R": 12.0, "tau_max": tau_max, "m_cap": 8192})
                    for tau_max in (3.0, 2.99)]
        for doc in children:
            del doc["out"], doc["schema_version"]
        solves = []
        evd = qz._evd

        def count_solve(a):
            solves.append(len(a))
            return evd(a)

        monkeypatch.setattr(qz, "_evd", count_solve)
        sweep = run({"schema_version": 1, "experiment": "sweep", "experiments": children},
                    str(tmp_path / "sweep"))
        assert solves == [424, 848, 1696, 1692]
        for i, (doc, path) in enumerate(zip(children, sweep.report["tables"]["children"])):
            with open(path) as fh:
                shared = json.load(fh)
            alone = run(dict(doc, schema_version=1), str(tmp_path / f"alone{i}"))
            assert report_identity_bytes(shared) == report_identity_bytes(alone.report)

    def test_weyl_on_a_constant_potential(self, tmp_path):
        # value and reference are exactly 0 on every h: each relative error
        # is 0, as in the weak and derivative sweeps, not 0/0
        doc = dict(_config("ssf_weyl_reference"), h_list=[1 / 8, 1 / 16, 1 / 32],
                   potential={"kind": "constant", "params": {"v_inf": 0, "N": 2}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(doc, str(tmp_path / "o"))
        assert result.report["verdicts"] == {"weyl": "PASS"}
        rows = result.report["tables"]["main"]["rows"]
        assert len(rows) == 3 and all(row[1] == row[2] == row[3] == 0.0 for row in rows)
        with open(tmp_path / "o" / "data.csv") as fh:
            header, *lines = [line.split(",") for line in fh.read().splitlines()]
        assert [line[header.index("rel_error")] for line in lines] == ["0.0"] * 3


class TestHypothesisTables:
    """Which certificate gates which verdict is ``harness._HYPOTHESIS``, and
    how each kind is made ``harness._KINDS``; one run makes each certificate
    once."""

    def test_tables_name_what_they_use(self):
        for name, _, _ in harness._KINDS.values():
            assert callable(getattr(mh, name))
        assert {kind for kinds in harness._HYPOTHESIS.values() for kind in kinds} \
            <= set(harness._KINDS)
        assert set(harness._UNGATED) <= set(harness._HYPOTHESIS)
        # a comparison has a leading term; thm1 and thm2 decay to 0
        assert set(harness._REFERENCES) == {"thm3", "weak", "weyl", "derivative"}
        # a config takes a check block exactly where it takes a certificate
        assert {kind for kind, keys in harness._KEYS.items() if "check" in keys} \
            == set(harness._HYPOTHESIS)

    def test_a_new_kind_is_a_table_entry(self, tmp_path, no_assembly, monkeypatch):
        # a kind whose certificate never carries the hypothesis withholds the
        # verdicts of a trace and an ssf child, from its own check block
        calls = []

        class Refuted:
            certifies = False

            def to_json_dict(self):
                return {"kind": "toy"}

        def toy_check(v, tau0, grid_points):
            calls.append((v.name, tau0, grid_points))
            return Refuted()

        monkeypatch.setattr(mh, "toy_check", toy_check, raising=False)
        monkeypatch.setitem(harness._KINDS, "toy",
                            ("toy_check", lambda v: {"v": v}, {"grid_points": 5}))
        for variant in ("thm3", "weyl"):
            monkeypatch.setitem(harness._HYPOTHESIS, variant, ("toy",))
        thm3 = dict(_config("trace_thm3_crossing"), check={"grid_points": 7})
        weyl = _config("ssf_weyl_reference")
        for doc in (thm3, weyl):
            del doc["out"], doc["schema_version"]
        result = run({"schema_version": 1, "experiment": "sweep", "experiments": [thm3, weyl]},
                     str(tmp_path / "sweep"))
        assert result.report["verdicts"] == {"00:trace:thm3": "NOT_CERTIFIED",
                                             "01:ssf:weyl": "NOT_CERTIFIED"}
        # the thm3 child sets 7 points, and the weyl child takes the kind's 5
        assert calls == [("conical_crossing", 1.0, 7), ("reference", 2.0, 5)]
        with pytest.raises(ConfigError, match="not check.box$"):
            run(dict(thm3, schema_version=1, check={"box": [[-1, 1], [-1, 1]]}))

    # a check experiment and a sweep that ask one request, defaults filled in
    SHARED = {
        "shell": ("trace_thm3_crossing", "check-mh", "check_on_energy_shell",
                  {"h_list": [1 / 16, 1 / 32, 1 / 64]}),
        "dilation": ("ssf_weak_reference", "check-escape", "escape_check_dilation",
                     {"h_list": [1 / 4, 1 / 8, 1 / 16],
                      "grid": {"R": 7.0, "tau_max": 3.24, "m_cap": 8192}}),
    }

    @pytest.mark.parametrize("kind", SHARED)
    def test_children_share_a_certificate(self, tmp_path, monkeypatch, kind):
        name, experiment, function, changes = self.SHARED[kind]
        swept = dict(_config(name), **changes)
        del swept["out"], swept["schema_version"]
        check = {key: swept[key] for key in ("potential", "tau0", "check") if key in swept}
        children = [dict(check, experiment=experiment), swept]
        calls = []
        make = getattr(mh, function)

        def count(*args, **kwargs):
            calls.append(kwargs["tau0"])
            return make(*args, **kwargs)

        monkeypatch.setattr(mh, function, count)
        sweep = run({"schema_version": 1, "experiment": "sweep", "experiments": children},
                    str(tmp_path / "sweep"))
        assert len(calls) == 1
        for i, (doc, path) in enumerate(zip(children, sweep.report["tables"]["children"])):
            with open(path) as fh:
                shared = json.load(fh)
            alone = run(dict(doc, schema_version=1), str(tmp_path / f"alone{i}"))
            assert report_identity_bytes(shared) == report_identity_bytes(alone.report)
        assert len(calls) == 3


class TestReferences:
    """Each comparison's leading term is a row of ``harness._REFERENCES``,
    made once per sweep after the gate."""

    def test_derivative_limit_is_f_times_gamma0(self, tmp_path):
        # off the centre of a bump f, f(tau0) < 1: the mollified density
        # tends to f(tau0) gamma0(tau0), not gamma0(tau0)
        doc = dict(_config("ssf_derivative_reference"), tau0=2.1, h_list=[1 / 8, 1 / 16, 1 / 32],
                   grid={"R": 7.0, "tau_max": 3.24, "m_cap": 8192},
                   test_function={"kind": "bump", "support": [1.8, 2.2]})
        result = run(doc, str(tmp_path / "o"))
        rows = result.report["tables"]["main"]["rows"]
        v = reference_potential()
        f = coeffs.bump_test_function((1.8, 2.2))
        expected = float(f(2.1)) * coeffs.gamma0(v, 2.1)
        assert len(rows) == 3 and all(row[2] == expected for row in rows)
        assert expected == pytest.approx(-0.02748439, abs=1e-8)

    def test_diverging_localized_density_stops_the_run(self, tmp_path, monkeypatch, capsys):
        # the island's barrier top 3/e is a critical value of xi^2 + V at
        # (+-1, 0), inside supp chi: the shell check on a box away from it
        # passes, and the reference diverges before any operator is built
        monkeypatch.setattr(qz, "build_schrodinger", _refuse)
        doc = dict(_config("trace_thm3_crossing", out=str(tmp_path / "o")),
                   potential={"kind": "island", "params": {}}, tau0=1.1036383235143269,
                   check={"box": [[1.5, 2.5], [-2.0, 2.0]], "grid_points": 41})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["trace", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: CertificateError: localized density did not converge")
        assert list(tmp_path.rglob("report.json")) == []


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "ssf_lab.cli", *args],
                              capture_output=True, text=True)

    def test_imports_without_scipy(self):
        # the package and its CLI need numpy alone; scipy is a test dependency
        code = ("import sys, ssf_lab, ssf_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_config(self, tmp_path):
        proc = self._run("coeffs", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == 1

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "experiment": "coeffs"}))
        proc = self._run("coeffs", "--config", str(path))
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_subcommand_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(TestConfigValidation.BASE))
        proc = self._run("ssf", "--config", str(path))
        assert proc.returncode == 1

    def test_coeffs_run(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TestConfigValidation.BASE)))
        proc = self._run("coeffs", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert "coeffs: COMPLETE" in proc.stdout
        assert (tmp_path / "out" / "report.json").exists()

    def test_fail_exit_code(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "check-mh",
            "potential": {"kind": "conical_crossing", "params": {}},
            "tau0": 0.0,
            "check": {"box": [[-2, 2], [-2, 2]], "grid_points": 21},
        }
        path = tmp_path / "mh.json"
        path.write_text(json.dumps(cfg))
        proc = self._run("check-mh", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_escape_empty_shell_exit_code(self, tmp_path):
        path = tmp_path / "esc.json"
        path.write_text(json.dumps(EMPTY_SHELL_ESCAPE))
        proc = self._run("check-escape", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "escape: FAIL" in proc.stdout
