import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ssf_lab import cli
from ssf_lab import harness
from ssf_lab import microhyperbolicity as mh
from ssf_lab import quantization as qz
from ssf_lab import ssf as ssf_mod
from ssf_lab.harness import (
    ConfigError,
    ExperimentConfig,
    fit_order,
    reference_potential,
    report_identity_bytes,
    run,
)
from ssf_lab.microhyperbolicity import escape_check_dilation
from ssf_lab.symbols import branches, combine_potentials, model_potential


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


class TestFitOrder:
    def test_pure_power(self):
        hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
        fit = fit_order([(h, 3.0 * h**2) for h in hs])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_mixed_power(self):
        hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
        fit = fit_order([(h, h + 10.0 * h**2) for h in hs])
        assert 1.0 < fit.slope < 1.3

    def test_below_floor(self):
        fit = fit_order([(1 / 16, 0.0), (1 / 32, 1e-14), (1 / 64, 0.0)])
        assert fit.below_floor
        assert fit.verdict == "BELOW_FLOOR"

    def test_rejections(self):
        with pytest.raises(ConfigError):
            fit_order([(1 / 16, 1.0), (1 / 32, 0.5)])
        with pytest.raises(ConfigError):
            fit_order([(1 / 16, 1.0), (1 / 20, 0.5), (1 / 24, 0.3)])  # spread < 4
        with pytest.raises(ConfigError):
            fit_order([(1 / 16, 1.0), (1 / 32, -0.5), (1 / 128, 0.3)])

    def test_zero_error_is_no_fit(self):
        # an exact zero among positive errors has no logarithm: a verdict,
        # not a config error
        fit = fit_order([(1 / 16, 1e-3), (1 / 32, 0.0), (1 / 64, 2e-5)], threshold=1.5)
        assert fit.verdict == "NO_FIT"
        assert fit.slope is None and fit.intercept is None and fit.residual is None
        assert not fit.below_floor and fit.threshold == 1.5

    def test_threshold_verdict(self):
        hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
        fit = fit_order([(h, h) for h in hs], threshold=1.5)
        assert fit.verdict == "FAIL"
        fit2 = fit_order([(h, h**2) for h in hs], threshold=1.5)
        assert fit2.verdict == "PASS"


class TestReferencePotential:
    def test_vanishes_at_infinity(self):
        v = reference_potential()
        assert np.max(np.abs(v(12.0))) < 1e-50
        assert np.array_equal(v.v_infinity, np.zeros((2, 2)))

    def test_hermitian_at_random_points(self, rng):
        v = reference_potential()
        for _ in range(10):
            x = float(rng.uniform(-4, 4))
            m = v(x)
            assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_escape_certified_at_two(self):
        cert = escape_check_dilation(reference_potential(), 2.0)
        assert cert.valid
        assert cert.threshold_bound < 2.0

    def test_branch_values(self):
        v = reference_potential()
        e = branches(v, 0.0).values
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
        doc = dict(self.BASE, experiment="ssf", h_list=[0.25, 0.125, 0.0625])
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

    def test_sweep(self, tmp_path):
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
            "grid": {"R": 6.0, "tau_max": 3.0, "m_cap": 8192},
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
            "test_function": {"kind": "bump", "support": [1.7, 1.9]},
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

    def test_h_term_supported(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "ssf",
            "variant": "weak",
            "potential": {"kind": "diagonal_bumps",
                          "params": {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}},
            "h_term": {"kind": "diagonal_bumps",
                       "params": {"depths": [0.3], "centers": [0.5], "widths": [1.0]}},
            "grid": {"R": 12.0, "tau_max": 2.0},
            "h_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
            "test_function": {"kind": "bump", "support": [0.8, 1.2]},
            "tau0": 1.0,
            "thresholds": {"rel": 0.5, "order": 0.8},
            "out": str(tmp_path / "hterm"),
        }
        result = run(cfg)
        assert "weak" in result.report["verdicts"]


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
        with pytest.raises(qz.CoverageError):
            run(doc)

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


class TestRefusedBeforeSolve:
    """Every refusal of a trace or ssf sweep comes before its first operator,
    pair or shell check: at ingest, at the energy check or at the
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
        with pytest.raises(qz.WindowRangeError, match=named):
            run(doc)

    def test_weyl_reads_no_f(self, tmp_path, monkeypatch):
        # supp f above tau_max does not refuse the weyl sweep
        monkeypatch.setattr(ssf_mod, "build_pair", _refuse)
        doc = _config("ssf_weyl_reference", out=str(tmp_path / "o"),
                      potential={"kind": "island", "params": {"amp": 3.0}}, tau0=0.6,
                      test_function={"kind": "bump", "support": [3.0, 3.4]})
        assert run(doc).report["verdicts"] == {"weyl": "NOT_CERTIFIED"}

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

    @pytest.mark.parametrize("change,named", [
        ({"h_list": [0.0625, 0.03125]}, "at least 3 h"),
        ({"thresholds": {"order": 1.5, "slope": 1.0}}, "thresholds.slope"),
        ({"variant": "strong"}, "ssf needs variant"),
    ])
    def test_sweep_with_a_bad_child(self, tmp_path, no_assembly, change, named):
        # the last child is checked at ingest, before the first one runs
        doc = _config("ssf_reference", out=str(tmp_path / "o"))
        doc["experiments"][-1] = dict(doc["experiments"][-1], **change)
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig.from_dict(doc)
        TestWindowAndCheckBlocks._rejected(tmp_path, doc, named)
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


class TestMemoryAdmission:
    class Assembled(Exception):
        pass

    def test_stock_configs_are_admitted(self, monkeypatch):
        # the operators of every stock sweep at its finest h fit half of an
        # 8 GB host; assembly stops at the admitted estimate, so none of them
        # is allocated
        def stop(grid, samples, split=False):
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
            v = harness._potential_from(doc)
            potentials = [v, model_potential("constant", v_inf=np.diag(v.v_infinity).real,
                                             N=v.N)]
            if "perturbation" in doc:
                pert = doc["perturbation"]
                potentials.append(combine_potentials(v, model_potential(pert["kind"],
                                                                        **pert["params"])))
            for p in potentials:
                try:
                    # an analytic spectrum checks its matrix when it is read
                    qz.build_schrodinger(p, grid).matrix
                except self.Assembled:
                    built += 1
        assert built == 15

    def test_cli_prints_the_figures(self, tmp_path, monkeypatch, capsys):
        def refused(grid, samples, split=False):
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
