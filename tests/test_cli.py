import csv
import json

import numpy as np
import pytest
import yaml

from uscspec.cli import load_config, main, parse_config, resolve_threads
from uscspec.errors import ConfigInvalid


def _emission_config(**overrides):
    cfg = {
        "mode": "emission",
        "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.6, "n_fock": 5},
        "baths": [
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.0,
             "jump_kind": "match_probe"},
            {"which": "qubit", "gamma": 1e-2, "temperature": 0.1},
        ],
        "probes": ["X_C"],
        "grid": {"start": 0.1, "stop": 2.5, "points": 25},
        "sweep": {"parameter": "eta", "start": 0.2, "stop": 0.6, "points": 3},
        "output": {"normalization": "max_of_set", "log_floor": 1e-6},
        "labeling": "index",
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            parse_config(_emission_config(bogus=1))

    def test_missing_mode_rejected(self):
        cfg = _emission_config()
        del cfg["mode"]
        with pytest.raises(ConfigInvalid, match="mode"):
            parse_config(cfg)

    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigInvalid, match="probe"):
            parse_config(_emission_config(probes=["X_Q"]))

    def test_invalid_system_rejected(self):
        cfg = _emission_config()
        cfg["system"]["n_fock"] = -3
        with pytest.raises(ConfigInvalid):
            parse_config(cfg)

    def test_bundled_configs_load(self):
        for name in ("fig2", "fig5", "fig6"):
            cfg = load_config(name)
            assert cfg.mode in ("emission", "eigen", "reflectivity")

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigInvalid, match="no bundled config"):
            load_config("fig99")

    def test_defaults_recorded(self):
        cfg = parse_config(_emission_config())
        assert cfg.gme.filter_b == 0.0
        assert cfg.emission_method == "auto"


class TestThreadResolution:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("USCSPEC_THREADS", "7")
        assert resolve_threads(3) == 3

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("USCSPEC_THREADS", "5")
        assert resolve_threads(None) == 5

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("USCSPEC_THREADS", "zero")
        with pytest.raises(ConfigInvalid):
            resolve_threads(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigInvalid):
            resolve_threads(0)


class TestMainExitCodes:
    def test_bad_config_exits_2_and_writes_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        path = _write(tmp_path, _emission_config(bogus=1))
        assert main(["emission", "--config", path, "--out", str(out)]) == 2

    def test_mode_mismatch_exits_2(self, tmp_path):
        path = _write(tmp_path, _emission_config())
        out = tmp_path / "out"
        rc = main(["eigen", "--config", path, "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"

    def test_omega_d_sweep_exits_2(self, tmp_path):
        # no mode sweeps the drive frequency; it comes from the grid block
        cfg = _emission_config(
            sweep={"parameter": "omega_d", "start": 0.5, "stop": 1.5, "points": 3})
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert "omega_d" in err["error"]
        assert not (out / "emission_X_C.csv").exists()

    def test_reflectivity_requires_drive(self, tmp_path):
        cfg = _emission_config(mode="reflectivity")
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["reflectivity", "--config", path, "--out", str(out)]) == 2


class TestEmissionRun:
    def test_outputs_and_determinism(self, tmp_path):
        path = _write(tmp_path, _emission_config())
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["emission", "--config", path, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["emission", "--config", path, "--out", str(out2),
                     "--threads", "2"]) == 0
        csv1 = (out1 / "emission_X_C.csv").read_bytes()
        csv2 = (out2 / "emission_X_C.csv").read_bytes()
        assert csv1 == csv2
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["system"]["eta"] == 0.6
        with open(out1 / "emission_X_C.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 25
        s = np.array([float(r["S_normalized"]) for r in rows])
        assert s.max() == pytest.approx(1.0)
        assert s.min() >= 0.0


class TestEigenRun:
    def test_transition_and_energy_tables(self, tmp_path):
        cfg = {
            "mode": "eigen",
            "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.4, "n_fock": 4},
            "baths": [{"which": "qubit", "gamma": 1e-2, "temperature": 0.0}],
            "sweep": {"parameter": "epsilon", "start": 0.0, "stop": 0.5,
                      "points": 3},
            "labeling": "index",
        }
        out = tmp_path / "out"
        path = _write(tmp_path, cfg)
        assert main(["eigen", "--config", path, "--out", str(out)]) == 0
        with open(out / "energies.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 8
        with open(out / "transitions.csv") as fh:
            t_rows = list(csv.DictReader(fh))
        assert all(float(r["omega_ji"]) > 0 for r in t_rows)


class TestMatelemsRun:
    def test_rows_written(self, tmp_path):
        cfg = _emission_config(mode="matelems", labeling="jc")
        cfg["matelems"] = {
            "operators": [{"name": "xdot_m", "kind": "X_M",
                           "derivative": True}],
            "transitions": [["0", "1-"], ["0", "1+"]],
        }
        out = tmp_path / "out"
        path = _write(tmp_path, cfg)
        assert main(["matelems", "--config", path, "--out", str(out)]) == 0
        with open(out / "matrix_elements.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        assert {r["operator"] for r in rows} == {"xdot_m"}


class TestAuditRun:
    def test_audit_passes_converged_config(self, tmp_path):
        cfg = _emission_config()
        cfg["system"]["n_fock"] = 12
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        path = _write(tmp_path, cfg)
        assert main(["audit", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["result"] == "PASS"

    def test_audit_flags_underconverged_cutoff(self, tmp_path):
        cfg = _emission_config()
        cfg["system"]["eta"] = 1.3
        cfg["system"]["n_fock"] = 4
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        path = _write(tmp_path, cfg)
        assert main(["audit", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["result"] == "FAIL"
