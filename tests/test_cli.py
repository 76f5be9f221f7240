import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import uscspec
from uscspec import cli, spectra
from uscspec.cli import (
    BathSpec,
    DriveSpec,
    GridSpec,
    MatElemSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    _parallel_map,
    build_parser,
    load_config,
    main,
    parse_config,
    resolved_dict,
)
from uscspec.dressed import dressed_basis, jc_initial_labels, label_states
from uscspec.errors import ConfigInvalid, NoConvergence
from uscspec.gme import ChannelKind, GmeConfig, SecularGenerator, build_gme
from uscspec.model import (
    OutputKind,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
)
from uscspec.spectra import Normalization

from reference import heisenberg_derivative


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
    }
    cfg.update(overrides)
    return cfg


def _reflectivity_config(**overrides):
    cfg = {
        "mode": "reflectivity",
        "system": {"delta": 0.69, "epsilon": 0.0, "eta": 1.01, "n_fock": 4},
        "baths": [
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.55,
             "jump_kind": "match_probe"},
            {"which": "qubit", "gamma": 5e-3, "temperature": 0.55},
        ],
        "probes": ["X_M", "a_plus_adag"],
        "grid": {"start": 0.9, "stop": 1.0, "points": 2},
        "sweep": {"parameter": "epsilon", "start": 0.0, "stop": 0.3, "points": 2},
        "drive": {"b_in": 1e-4},
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

    def test_scalar_probes_rejected_as_not_a_list(self):
        # iterating "X_C" would name the probes X, _ and C
        with pytest.raises(ConfigInvalid, match="probes must be a list, got 'X_C'"):
            parse_config(_emission_config(probes="X_C"))

    @pytest.mark.parametrize("text, value", [
        ("1e-3", 1e-3), ("2E+1", 20.0), ("-5e2", -500.0), ("1.5e3", 1500.0), ("1.0e-3", 1e-3),
    ])
    def test_floats_without_a_dot_load_as_numbers(self, tmp_path, text, value):
        # YAML 1.1 reads 1e-3 (no dot) and 1.5e3 (unsigned exponent) as strings
        cfg = _emission_config()
        cfg["system"]["epsilon"] = "EPSILON"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg).replace("EPSILON", text))
        assert load_config(str(path)).system.epsilon == value

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

    def test_directory_named_like_a_bundled_config(self, tmp_path, monkeypatch):
        # --out fig5 makes ./fig5 before the config is read
        monkeypatch.chdir(tmp_path)
        assert main(["eigen", "--config", "fig5", "--out", "fig5"]) == 0
        assert (tmp_path / "fig5" / "energies.csv").is_file()

    def test_config_read_from_a_pipe(self, tmp_path):
        # --config <(...) and --config /dev/stdin name pipes, not regular files
        fifo = tmp_path / "config.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text,
                                  args=(yaml.safe_dump(_emission_config()),))
        writer.start()
        try:
            cfg = load_config(str(fifo))
        finally:
            # a writer that was read may still be finishing, so give it time to
            # end before draining, or the drain waits forever for a new writer
            writer.join(timeout=10)
            if writer.is_alive():  # not read: drain the pipe so the writer ends
                fifo.read_text()
            writer.join()
        assert cfg == parse_config(_emission_config())

    def test_omega_r_of_one_is_accepted_and_not_recorded(self):
        cfg = _emission_config()
        cfg["system"]["omega_r"] = 1.0
        assert parse_config(cfg) == parse_config(_emission_config())
        assert "omega_r" not in resolved_dict(parse_config(cfg))["system"]

    def test_defaults_recorded(self):
        cfg = parse_config(_emission_config())
        assert cfg.gme.filter_b == 0.0
        assert cfg.emission_method == "auto"

    def test_enumerated_inputs_are_stored_converted(self):
        cfg = parse_config(_emission_config(output={"normalization": "raw"}))
        assert cfg.output.normalization is Normalization.RAW_ARBITRARY
        assert [type(b.which) for b in cfg.baths] == [ChannelKind, ChannelKind]
        assert cfg.baths[0].jump_kind == "match_probe"
        explicit = _emission_config()
        explicit["baths"][0]["jump_kind"] = "X_C"
        assert parse_config(explicit).baths[0].jump_kind is OutputKind.CAPACITIVE_C

    @pytest.mark.parametrize("bath, named", [
        ({"which": "resonator", "gamma": 1e-3, "temperature": 0.0, "jump_kind": "X_Q"}, "X_Q"),
        ({"which": "resonator", "gamma": 1e-3, "temperature": 0.0, "jump_kind": "X_D"}, "X_D"),
        ({"which": "qubit", "gamma": -1e-2, "temperature": 0.0}, "gamma"),
        ({"which": "qubit", "gamma": None, "temperature": 0.0}, "NoneType"),
        ({"which": "resonator", "gamma": -1e-3, "temperature": 0.0,
          "jump_kind": "match_probe"}, "gamma"),
    ], ids=["unknown-port-kind", "circuit-x-d-port", "negative-qubit-gamma", "null-qubit-gamma",
            "negative-unmatched-port-gamma"])
    def test_eigen_config_checks_its_baths(self, bath, named):
        # eigen builds no bath, yet the config is checked whole: X_Q names no
        # operator, X_D is not defined for the circuit model, and no rate is < 0
        cfg = {
            "mode": "eigen",
            "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.4, "n_fock": 4},
            "baths": [bath],
        }
        with pytest.raises(ConfigInvalid, match=named):
            parse_config(cfg)


    @pytest.mark.parametrize("block, key, word", [
        ("baths", "temperature", "on"), ("drive", "phase", "no"), ("gme", "filter_b", "off"),
        ("baths", "gamma", "yes"), ("system", "delta", "yes"), ("system", "omega_r", "yes"),
    ])
    def test_yaml_boolean_for_a_number_exits_2(self, tmp_path, block, key, word):
        # YAML 1.1 reads yes, no, on and off as booleans, and Python reads True as 1
        cfg = _reflectivity_config(gme={"filter_b": 0.0})
        (cfg[block][0] if block == "baths" else cfg[block])[key] = "BOOLEAN"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg).replace("BOOLEAN", word))
        out = tmp_path / "out"
        assert main(["reflectivity", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert key in err["error"]
        assert not (out / "manifest.json").exists()

    def test_sweep_of_several_points_over_one_value_exits_2(self, tmp_path):
        # its points would repeat one another, so it is rejected as a grid is
        with pytest.raises(ConfigInvalid, match="must be below stop"):
            SweepSpec("epsilon", 0.3, 0.3, 3)
        assert SweepSpec("epsilon", 0.3, 0.3, 1).values().tolist() == [0.3]
        cfg = _reflectivity_config(
            sweep={"parameter": "epsilon", "start": 0.3, "stop": 0.3, "points": 3})
        out = tmp_path / "out"
        assert main(["reflectivity", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["type"] == "ConfigInvalid"
        assert not (out / "reflectivity_X_M.csv").exists()


class TestThreadResolution:
    def test_nonpositive_rejected(self, tmp_path):
        path = _write(tmp_path, _emission_config())
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out), "--threads", "0"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert not (out / "emission_X_C.csv").exists()

    def test_default_is_one(self):
        assert build_parser().parse_args(["emission", "--config", "fig2"]).threads == 1


class TestMainExitCodes:
    def test_bad_config_exits_2_and_writes_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        path = _write(tmp_path, _emission_config(bogus=1))
        assert main(["emission", "--config", path, "--out", str(out)]) == 2

    @pytest.mark.parametrize("text, named", [
        ("mode: emission\nsystem: {delta: 1.0\n", "while parsing a flow mapping"),
        # YAML 1.2 keys are unique, where PyYAML alone would keep the last
        (yaml.safe_dump(_emission_config()) + "grid: {start: 0.1, stop: 2.5, points: 5}\n",
         "repeated key 'grid'"),
        (yaml.safe_dump(_emission_config()).replace("  which: qubit\n",
                                                    "  which: qubit\n  gamma: 0.02\n"),
         "repeated key 'gamma'"),
    ], ids=["unclosed-flow-mapping", "repeated-top-level-key", "repeated-bath-key"])
    def test_malformed_yaml_exits_2(self, tmp_path, text, named):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["emission", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert err["error"].startswith("config is not valid YAML")
        assert named in err["error"]
        assert not list(out.glob("*.csv"))

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("kept\n")
        assert main(["emission", "--config", "fig2", "--out", str(target)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ConfigInvalid"
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("tail", [
        ["--config", "CONFIG", "--threads", "x"],
        ["--config", "CONFIG", "--threads", "2.5"],
        [],
        ["--config", "CONFIG", "--bogus"],
    ], ids=["threads-x", "threads-fraction", "no-config", "unknown-flag"])
    def test_usage_error_exits_2_and_writes_error(self, tmp_path, capsys, tail):
        path = _write(tmp_path, _emission_config())
        out = tmp_path / "out"
        argv = ["emission", "--out", str(out)] + [path if a == "CONFIG" else a for a in tail]
        assert main(argv) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == err
        assert not (out / "emission_X_C.csv").exists()

    @pytest.mark.parametrize("argv", [["--config", "fig2"], ["bogus", "--config", "fig2"]],
                             ids=["no-mode", "unknown-mode"])
    def test_mode_error_exits_2_and_reports_on_stderr_only(self, tmp_path, monkeypatch,
                                                           capsys, argv):
        # without a mode no --out was read, so no error.json is written anywhere
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ConfigInvalid"
        assert list(tmp_path.iterdir()) == []

    def test_missing_mode_is_named(self, capsys):
        assert main(["--config", "fig2"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "the following arguments are required: mode",
                       "type": "ConfigInvalid"}

    def test_undamped_levels_exit_3_without_blaming_zero_offset(self, tmp_path):
        # no bath damps anything, so every level is stationary; the offset is 0.2
        cfg = _emission_config(sweep={"parameter": "none"})
        cfg["system"]["epsilon"] = 0.2
        for bath in cfg["baths"]:
            bath["gamma"] = 0.0
        out = tmp_path / "out"
        assert main(["emission", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert "sigma_2" in err["error"]
        assert "more than one stationary state" in err["error"]

    @pytest.mark.parametrize("argv", [["-h"], ["emission", "-h"]], ids=["top", "mode"])
    def test_help_exits_0(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

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

    @pytest.mark.parametrize("mutate", [
        lambda c: c["grid"].update(bogus=1),
        lambda c: c.update(grid={"start": 1.0, "stop": 1.0, "points": 5}),
        lambda c: c["grid"].update(points=2.5),
        lambda c: c["baths"][1].pop("gamma"),
        lambda c: c.update(matelems={"operators": [{"name": "x", "kind": "X_Q"}],
                                     "transitions": [["0", "1-"]]}),
        lambda c: c.update(system=3),
        lambda c: c["sweep"].update(start=-0.1),
        lambda c: c.update(gme={"omega_min": 1e-9}),
        lambda c: c["baths"][0].update(gamma=-1e-3),
        lambda c: c["baths"][1].update(temperature=-0.1),
        lambda c: c["system"].update(n_fock=4.5),
        lambda c: c.update(drive={"b_in": 1e-4, "floquet_order": 2.5}),
        lambda c: c.update(probes=["X_C", "X_M"]) or c["system"].update(model_kind="cavity_qed"),
        lambda c: c.update(probes=["X_C", "X_D"]),
        lambda c: c.update(sweep={"parameter": "none", "points": 5}),
        lambda c: c["system"].update(omega_r=2.0),
        lambda c: c.update(labeling="index"),
        lambda c: c.update(probes=["a_plus_adag"]) or c["system"].update(model_kind="cavity_qed"),
        lambda c: c["baths"][0].update(jump_kind="X_D"),
        lambda c: c["baths"][1].update(jump_kind="X_C"),
        lambda c: c.update(matelems={"operators": [{"name": "x", "kind": "X_D"}],
                                     "transitions": [["0", "1-"]]}),
        lambda c: c.update(probes=["X_C", "X_C"]),
        lambda c: c.update(matelems={"operators": [{"name": "x", "kind": "X_C"},
                                                   {"name": "x", "kind": "X_M",
                                                    "derivative": False}],
                                     "transitions": [["0", "1-"]]}),
        lambda c: c["baths"][1].update(gamma=None),
        lambda c: c["baths"][0].update(gamma="fast"),
        lambda c: c.update(probes="X_C"),
        lambda c: c.update(probes=None),
        lambda c: c.update(mode=["emission"]),
    ], ids=["grid-key", "grid-empty-span", "fractional-points", "bath-gamma",
            "matelems-kind", "system-scalar", "negative-eta", "gme-omega-min",
            "negative-port-gamma", "negative-qubit-temperature", "fractional-n-fock",
            "fractional-floquet-order", "cavity-qed-x-m", "circuit-x-d",
            "no-sweep-with-points", "omega-r-not-one", "labeling-key",
            "cavity-qed-quadrature-port", "circuit-x-d-port", "qubit-jump-kind",
            "matelems-undefined-kind", "duplicate-probe", "duplicate-matelems-name",
            "null-bath-gamma", "non-numeric-port-gamma", "scalar-probes", "null-probes",
            "list-mode"])
    def test_malformed_config_exits_2(self, tmp_path, mutate):
        cfg = _emission_config()
        cfg["system"]["n_fock"] = 4
        mutate(cfg)
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert not (out / "emission_X_C.csv").exists()

    @pytest.mark.parametrize("mutate", [
        lambda c: c["system"].update(delta=float("nan")),
        lambda c: c["baths"][1].update(gamma=float("inf")),
        lambda c: c["baths"][1].update(gamma=float("nan")),
        lambda c: c.update(gme={"filter_b": float("nan")}),
        lambda c: c["grid"].update(stop=float("inf")),
        lambda c: c.update(drive={"b_in": float("nan")}),
    ], ids=["delta-nan", "gamma-inf", "gamma-nan", "filter-b-nan", "grid-stop-inf",
            "b-in-nan"])
    def test_non_finite_number_exits_2(self, tmp_path, mutate):
        cfg = _emission_config()
        cfg["system"]["n_fock"] = 4
        mutate(cfg)
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert not (out / "emission_X_C.csv").exists()

    @pytest.mark.parametrize("command", ["reflectivity", "audit"])
    @pytest.mark.parametrize("overrides", [
        {"sweep": {"parameter": "eta", "start": 0.5, "stop": 1.0, "points": 2}},
        {"baths": [
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.55, "jump_kind": "X_M"},
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.55, "jump_kind": "X_C"},
            {"which": "qubit", "gamma": 5e-3, "temperature": 0.55},
        ]},
        {"baths": [
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.55, "jump_kind": "X_C"},
            {"which": "qubit", "gamma": 5e-3, "temperature": 0.55},
        ]},
        {"baths": [
            {"which": "resonator", "gamma": 1e-3, "temperature": 0.55,
             "jump_kind": "match_probe"},
            {"which": "qubit", "gamma": 5e-3, "temperature": -0.55},
        ]},
        {"drive": {"b_in": 1e-4, "floquet_order": 2.5}},
        {"drive": {"b_in": 1e-4, "phase": None}},
        {"grid": {"start": 0.0, "stop": 1.0, "points": 3}},
        {"system": {"delta": 0.69, "epsilon": 0.0, "eta": 1.01, "n_fock": 4,
                    "model_kind": "cavity_qed"},
         "probes": ["a_plus_adag"]},
    ], ids=["eta-sweep", "two-ports", "port-jump-kind", "negative-qubit-temperature",
            "fractional-floquet-order", "null-drive-phase", "drive-frequency-at-zero",
            "cavity-qed-quadrature-port"])
    def test_reflectivity_rules_hold_for_audit(self, tmp_path, command, overrides):
        path = _write(tmp_path, _reflectivity_config(**overrides))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert not (out / "audit.json").exists()

    def test_solver_error_names_probe_and_sweep_point(self, tmp_path):
        # uncoupled qubit and a port bath alone: two stationary states
        cfg = _emission_config(
            baths=[{"which": "resonator", "gamma": 1e-3, "temperature": 0.0,
                    "jump_kind": "match_probe"}],
            sweep={"parameter": "eta", "start": 0.0, "stop": 0.0, "points": 1})
        cfg["system"].update(eta=0.0, n_fock=4)
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "SolverFailure"
        assert err["error"].startswith("probe=X_C eta=0.0: ")

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

    def test_float_without_a_dot_writes_the_same_bytes(self, tmp_path):
        text = yaml.safe_dump(_emission_config())
        assert "gamma: 0.001" in text
        outputs = []
        for written in ("1.0e-3", "1e-3"):
            path = tmp_path / f"{written}.yaml"
            path.write_text(text.replace("gamma: 0.001", f"gamma: {written}"))
            out = tmp_path / written
            assert main(["emission", "--config", str(path), "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert "emission_X_C.csv" in outputs[0]

    def test_probes_share_one_dressed_basis_per_point(self, tmp_path, monkeypatch):
        calls = []
        diagonalize = uscspec.cli.dressed_basis
        monkeypatch.setattr(uscspec.cli, "dressed_basis",
                            lambda params: calls.append(params) or diagonalize(params))
        path = _write(tmp_path, _emission_config(probes=["X_C", "X_M"]))
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out), "--threads", "1"]) == 0
        assert len(calls) == 3  # one per sweep point, shared by both probes

    @pytest.mark.parametrize("grid_points, method", [(31, "solve"), (32, "eig")])
    def test_auto_method_follows_the_grid_alone(self, tmp_path, grid_points, method):
        # eig and the per-frequency solves are both costs of one point, so the
        # 12 sweep points (more than grid / 4) play no part in the choice
        cfg = _emission_config(
            grid={"start": 0.1, "stop": 2.5, "points": grid_points},
            sweep={"parameter": "eta", "start": 0.2, "stop": 0.6, "points": 12})
        cfg["system"]["n_fock"] = 3
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["emission_method"] == method

    @pytest.mark.parametrize("normalization", ["per_spectrum", "raw"])
    def test_normalization(self, tmp_path, normalization):
        cfg = _emission_config(output={"normalization": normalization, "log_floor": 1e-3})
        cfg["system"]["n_fock"] = 4
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 0
        data = np.loadtxt(out / "emission_X_C.csv", delimiter=",", skiprows=1)
        _, _, s_raw, s_norm, log_s = data.reshape(3, 25, 5).transpose(2, 0, 1)
        if normalization == "per_spectrum":
            np.testing.assert_allclose(s_norm.max(axis=1), 1.0, rtol=1e-15)
        else:
            np.testing.assert_array_equal(s_norm, s_raw)
        np.testing.assert_array_equal(log_s, np.log10(np.maximum(s_norm, 1e-3)))

    def test_failing_probe_writes_no_csv(self, tmp_path, monkeypatch):
        # every X_M point fails at run time, after X_C has passed there
        probe = uscspec.cli.emission_probe

        def failing(params, kind, basis):
            if kind == OutputKind.INDUCTIVE_M:
                raise NoConvergence("injected solver failure")
            return probe(params, kind, basis)

        monkeypatch.setattr(uscspec.cli, "emission_probe", failing)
        cfg = _emission_config(probes=["X_C", "X_M"])
        cfg["system"].update(n_fock=4)
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["emission", "--config", path, "--out", str(out)]) == 3
        assert json.loads((out / "error.json").read_text())["type"] == "SolverFailure"
        assert not list(out.glob("emission_*.csv"))


class TestReflectivityRun:
    @pytest.mark.parametrize("b_in", [1e-200, 5e-324])
    def test_unresolvably_weak_drive_exits_3_and_writes_no_csv(self, tmp_path, b_in):
        # 1e-200 leaves rho^{-1} unresolved; at 5e-324 the drive underflows to 0
        path = _write(tmp_path, _reflectivity_config(drive={"b_in": b_in}))
        out = tmp_path / "out"
        assert main(["reflectivity", "--config", path, "--out", str(out)]) == 3
        assert json.loads((out / "error.json").read_text())["type"] == "SolverFailure"
        assert not list(out.glob("*.csv"))

    def test_run_without_a_sweep_writes_the_system_offset(self, tmp_path):
        cfg = _reflectivity_config(sweep={"parameter": "none"})
        cfg["system"]["epsilon"] = 0.6
        out = tmp_path / "out"
        assert main(["reflectivity", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        for probe in ("X_M", "a_plus_adag"):
            with open(out / f"reflectivity_{probe}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [float(r["epsilon_over_omega_r"]) for r in rows] == [0.6, 0.6]


class TestEigenRun:
    def test_transition_and_energy_tables(self, tmp_path):
        cfg = {
            "mode": "eigen",
            "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.4, "n_fock": 4},
            "baths": [{"which": "qubit", "gamma": 1e-2, "temperature": 0.0}],
            "sweep": {"parameter": "epsilon", "start": 0.0, "stop": 0.5,
                      "points": 3},
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

    def test_labels_keep_their_sector_parity_at_deep_strong_coupling(self, tmp_path):
        # the ground doublet and the doublets above it are degenerate to within
        # DEGENERACY_TOL here; each label must sit on a vector of its JC
        # sector's parity, (-1)^(n-1) for sector n and -1 for "0"
        from uscspec.dressed import dressed_basis
        from uscspec.model import parity_operator

        cfg = {
            "mode": "eigen",
            "system": {"delta": 0.69, "epsilon": 0.0, "eta": 3.5, "n_fock": 60},
            "baths": [{"which": "qubit", "gamma": 1e-2, "temperature": 0.0}],
            "sweep": {"parameter": "eta", "start": 3.5, "stop": 3.6, "points": 3},
        }
        out = tmp_path / "out"
        assert main(["eigen", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "energies.csv") as fh:
            rows = list(csv.DictReader(fh))
        parity = parity_operator(60)
        wrong = []
        for eta in sorted({r["eta"] for r in rows}):
            basis = dressed_basis(SystemParams(delta=0.69, epsilon=0.0, eta=float(eta),
                                               n_fock=60))
            for r in rows:
                index = int(r["index"])
                if r["eta"] != eta or index >= 20:
                    continue
                v = basis.vectors[:, index]
                sector = int(r["label"].rstrip("+-").split("+")[0])
                if np.real(v.conj() @ parity @ v) * (-1) ** (sector - 1) < 0.5:
                    wrong.append((eta, index, r["label"]))
        assert wrong == []


class TestMatelemsRun:
    def test_rows_written(self, tmp_path):
        cfg = _emission_config(mode="matelems")
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

    @pytest.mark.parametrize("command", ["matelems", "audit"])
    def test_unknown_label_exits_2_and_writes_no_csv(self, tmp_path, command):
        cfg = _emission_config(mode="matelems")
        cfg["matelems"] = {
            "operators": [{"name": "xdot_m", "kind": "X_M"}],
            "transitions": [["0", "9+x"]],
        }
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert "'9+x'" in err["error"]
        assert not (out / "matrix_elements.csv").exists()
        assert not (out / "audit.json").exists()


    @pytest.mark.parametrize("command", ["matelems", "audit"])
    @pytest.mark.parametrize("matelems", [
        {"operators": [{"name": "x", "kind": "X_M", "derivative": "false"}],
         "transitions": [["0", "1-"]]},
        {"operators": [{"name": "x", "kind": "X_M", "derivitive": False}],
         "transitions": [["0", "1-"]]},
        {"operators": [{"name": 7, "kind": "X_M"}], "transitions": [["0", "1-"]]},
        {"operators": [{"kind": "X_M"}], "transitions": [["0", "1-"]]},
        {"operators": [["x", "X_M", True]], "transitions": [["0", "1-"]]},
        {"operators": [{"name": "x", "kind": "X_M"}], "transitions": [["0", "1-", "1+"]]},
        {"operators": [{"name": "x", "kind": "X_M"}], "transitions": ["01"]},
        {"operators": [{"name": "x", "kind": "X_M"}], "transitions": [["0", "1-"]], "bogus": 1},
        {"transitions": [["0", "1-"]]},
        {"operators": [{"name": "x", "kind": "X_M"}]},
    ], ids=["quoted-derivative", "misspelt-derivative", "numeric-name", "no-name",
            "operator-list", "transition-triple", "transition-string", "block-key",
            "no-operators", "no-transitions"])
    def test_malformed_block_exits_2_in_every_mode(self, tmp_path, command, matelems):
        # audit rejects what the mode it audits rejects
        cfg = _emission_config(mode="matelems", matelems=matelems)
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigInvalid"
        assert "matelems" in err["error"]
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    def test_derivative_false_reads_the_operator_itself(self, tmp_path):
        cfg = _emission_config(mode="matelems", matelems={
            "operators": [{"name": "xdot_m", "kind": "X_M"},
                          {"name": "x_m", "kind": "X_M", "derivative": False}],
            "transitions": [["0", "1-"]],
        })
        out = tmp_path / "out"
        assert main(["matelems", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "matrix_elements.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_name = {name: [float(r["abs_sq"]) for r in rows if r["operator"] == name]
                   for name in ("xdot_m", "x_m")}
        assert len(by_name["x_m"]) == 3
        assert by_name["x_m"] != by_name["xdot_m"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["matelems"]["operators"] == [["xdot_m", "X_M", True],
                                                               ["x_m", "X_M", False]]

    @staticmethod
    def _rows(tmp_path, cfg):
        out = tmp_path / "out"
        assert main(["matelems", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "matrix_elements.csv") as fh:
            return list(csv.DictReader(fh))

    def test_decoupled_capacitive_element(self, tmp_path):
        # far-detuned decoupled limit: the first resonator excitation carries
        # |<1|Xdot_C|0>|^2 = omega_r^2 = 1
        cfg = _emission_config(
            mode="matelems", system={"delta": 1.5, "epsilon": 0.0, "eta": 0.0, "n_fock": 4},
            sweep={"parameter": "eta", "start": 0.0, "stop": 0.0, "points": 1},
            matelems={"operators": [{"name": "xdot_c", "kind": "X_C"}],
                      "transitions": [["0", "1-"]]})
        rows = self._rows(tmp_path, cfg)
        assert len(rows) == 1
        assert float(rows[0]["abs_sq"]) == pytest.approx(1.0, rel=1e-12)

    def test_sweep_rows_cover_all_requests(self, tmp_path):
        # each row against the bare-basis derivative, or the operator itself,
        # on the sweep's labeled bases
        etas = np.linspace(0.1, 0.3, 3)
        cfg = _emission_config(
            mode="matelems", system={"delta": 1.0, "epsilon": 0.0, "eta": 0.1, "n_fock": 6},
            sweep={"parameter": "eta", "start": 0.1, "stop": 0.3, "points": 3},
            matelems={"operators": [{"name": "xdot_m", "kind": "X_M"},
                                    {"name": "x_m", "kind": "X_M", "derivative": False}],
                      "transitions": [["0", "1-"], ["0", "1+"]]})
        rows = self._rows(tmp_path, cfg)
        assert len(rows) == 2 * 3 * 2
        assert {float(r["sweep_value"]) for r in rows} == set(etas)
        assert all(float(r["abs_sq"]) >= 0 for r in rows)

        params = [SystemParams(delta=1.0, epsilon=0.0, eta=e, n_fock=6) for e in etas]
        bases = [dressed_basis(p) for p in params]
        bases = label_states(bases, jc_initial_labels(params[0], bases[0]))
        for r in rows:
            k = etas.tolist().index(float(r["sweep_value"]))
            x_m = build_output_operator(OutputKind.INDUCTIVE_M, params[k])
            op = (heisenberg_derivative(x_m, build_static_hamiltonian(params[k]))
                  if r["operator"] == "xdot_m" else x_m)
            basis = bases[k]
            element = basis.to_dressed(op)[basis.index_of(r["i_label"]),
                                           basis.index_of(r["j_label"])]
            assert float(r["abs_sq"]) == pytest.approx(abs(element) ** 2, rel=1e-10, abs=1e-14)


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

    def test_audit_checks_every_sweep_point(self, tmp_path, monkeypatch):
        # the larger cutoff is perturbed at sweep index 1 only
        probe = uscspec.cli.emission_probe
        values = np.linspace(0.2, 0.6, 5)

        def perturbed(params, kind, basis):
            x_dot = probe(params, kind, basis)
            return x_dot * 1.001 if (params.n_fock, params.eta) == (22, values[1]) else x_dot

        monkeypatch.setattr(uscspec.cli, "emission_probe", perturbed)
        cfg = _emission_config(sweep={"parameter": "eta", "start": 0.2, "stop": 0.6,
                                      "points": 5})
        cfg["system"]["n_fock"] = 12
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        assert main(["audit", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["result"] == "FAIL"
        assert [c["sweep_value"] for c in report["checks"]] == values.tolist()
        failed = [c for c in report["checks"] if not c["spectrum_ok"]]
        assert [c["sweep_value"] for c in failed] == [values[1]]
        assert all(c["energy_ok"] for c in report["checks"])

    def test_nan_deviation_on_a_later_probe_fails(self, tmp_path, monkeypatch):
        point_rows = uscspec.cli._point_rows

        def nan_second_probe(config, params, grid, method):
            rows = point_rows(config, params, grid, method)
            if config.system.n_fock == 22:
                rows[1] = np.full_like(rows[1], np.nan)
            return rows

        monkeypatch.setattr(uscspec.cli, "_point_rows", nan_second_probe)
        cfg = _emission_config(probes=["X_C", "X_M"])
        cfg["system"]["n_fock"] = 12
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        assert main(["audit", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["result"] == "FAIL"
        assert not any(c["spectrum_ok"] for c in report["checks"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_row_zero_at_both_cutoffs_passes(self, tmp_path):
        # every bath at T = 0: rho_ss is the ground state, X+ rho_ss = 0 and
        # the spectrum vanishes identically at both cutoffs
        cfg = _emission_config()
        cfg["baths"][1]["temperature"] = 0.0
        cfg["system"]["n_fock"] = 12
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        assert main(["audit", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert [c["spectrum_rel_dev"] for c in report["checks"]] == [0.0] * 3
        assert report["result"] == "PASS"

    def test_zero_row_against_a_nonzero_one_fails(self, tmp_path, monkeypatch):
        point_rows = uscspec.cli._point_rows

        def zero_smaller_cutoff(config, params, grid, method):
            rows = point_rows(config, params, grid, method)
            return [0.0 * row for row in rows] if config.system.n_fock == 12 else rows

        monkeypatch.setattr(uscspec.cli, "_point_rows", zero_smaller_cutoff)
        cfg = _emission_config()
        cfg["system"]["n_fock"] = 12
        cfg["grid"]["points"] = 5
        out = tmp_path / "out"
        assert main(["audit", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["result"] == "FAIL"
        assert all(c["spectrum_rel_dev"] == np.inf and not c["spectrum_ok"]
                   for c in report["checks"])

    def test_reflectivity_audit_solves_every_probe_on_the_full_grid(self, tmp_path,
                                                                    monkeypatch):
        calls = []
        spectrum = uscspec.cli.reflectivity_spectrum

        def recorded(params, probe, omega_d_grid, *args, **kwargs):
            calls.append((params.n_fock, params.epsilon, probe, tuple(omega_d_grid), args[-1]))
            return spectrum(params, probe, omega_d_grid, *args, **kwargs)

        monkeypatch.setattr(uscspec.cli, "reflectivity_spectrum", recorded)
        cfg = _reflectivity_config(grid={"start": 0.9, "stop": 1.0, "points": 5})
        out = tmp_path / "out"
        assert main(["audit", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        grid = tuple(np.linspace(0.9, 1.0, 5))
        assert sorted(calls) == sorted(
            (n_fock, eps, probe, grid, order)
            for n_fock, order in ((4, 2), (14, 4)) for eps in (0.0, 0.3)
            for probe in (OutputKind.INDUCTIVE_M, OutputKind.QUADRATURE))
        assert len(json.loads((out / "audit.json").read_text())["checks"]) == 2


@pytest.mark.parametrize("command,cfg", [
    ("emission", _emission_config(probes=["X_C", "X_M"])),
    ("reflectivity", _reflectivity_config()),
    ("audit", _reflectivity_config()),
    ("audit", _emission_config(probes=["X_C", "X_M"])),
    ("audit", _emission_config(mode="matelems", matelems={
        "operators": [{"name": "xdot_c", "kind": "X_C"},
                      {"name": "x_m", "kind": "X_M", "derivative": False}],
        "transitions": [["0", "1-"], ["0", "1+"]]})),
], ids=["emission", "reflectivity", "audit", "emission-audit", "matelems-audit"])
def test_thread_pool_writes_the_same_bytes(tmp_path, command, cfg):
    path = _write(tmp_path, cfg)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main([command, "--config", path, "--out", str(out), "--threads", threads]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert "manifest.json" in outputs[0]
    assert ("audit.json" if command == "audit" else f"{command}_X_M.csv") in outputs[0]


def test_process_pool_size_is_capped_by_the_items(monkeypatch):
    # Pool starts every process at once, so asking for 64 must start 2
    asked = []

    def recording_pool(processes):
        asked.append(processes)
        return contextlib.nullcontext(types.SimpleNamespace(imap=map))

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", recording_pool)
    assert _parallel_map(lambda x: 2 * x, [1, 2], threads=64) == [2, 4]
    assert asked == [2]


def square_or_fail(x):  # module level: a process pool task must pickle
    if x in (1, 2):
        raise NoConvergence(f"item {x}")
    return x * x


def test_process_pool_keeps_order_and_raises_the_first_failure_in_it():
    assert _parallel_map(square_or_fail, [3, 0, 4], threads=2) == [9, 0, 16]
    with pytest.raises(NoConvergence, match="item 1"):
        _parallel_map(square_or_fail, [0, 1, 2, 3], threads=2)


class _Built(Exception):
    """Stops a sweep point once its generator is assembled."""


def test_measured_configs_run_the_secular_layout(monkeypatch):
    # every (sweep point, probe) of the bundled fig2 and fig6 and of the
    # benchmark workloads assembles a SecularGenerator: a Floquet solve on
    # the dense layout costs about 70 times as much
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    layouts = []

    def build_and_stop(*args):
        layouts.append(type(build_gme(*args)))
        raise _Built

    monkeypatch.setattr(cli, "build_gme", build_and_stop)
    monkeypatch.setattr(spectra, "build_gme", build_and_stop)
    configs = {name: load_config(name) for name in ("fig2", "fig6")}
    configs.update((name, parse_config(raw)) for name, raw in run.WORKLOADS.items())
    for name, config in configs.items():
        layouts.clear()
        grid, method = cli._grid_and_method(config)
        _, params_list = cli._sweep_params(config)
        for params in params_list:
            for probe in config.probes:
                one_probe = dataclasses.replace(config, probes=(probe,))
                with pytest.raises(_Built):
                    cli._point_rows(one_probe, params, grid, method)
        assert layouts == [SecularGenerator] * (len(params_list) * len(config.probes)), name


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    exec(example.split("```", 1)[0], {})
    assert 0.05 <= float(capsys.readouterr().out) <= 3.0


def test_readme_config_schema_parses_and_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(schema)
    parse_config(raw)

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(raw) == names(RunConfig)
    blocks = {"system": SystemParams, "gme": GmeConfig, "grid": GridSpec,
              "sweep": SweepSpec, "drive": DriveSpec, "output": OutputSpec,
              "matelems": MatElemSpec}
    for key, cls in blocks.items():
        assert set(raw[key]) == names(cls), key
    assert set().union(*raw["baths"]) == names(BathSpec)
    assert set().union(*raw["matelems"]["operators"]) == {"name", "kind", "derivative"}


class _PurePythonLoader(yaml.SafeLoader):
    """The config rules of ``cli._Loader`` on PyYAML's pure-Python parser."""

    def construct_mapping(self, node, deep=False):
        keys = [(k.tag, k.value) for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
        if len(set(keys)) < len(keys):
            raise yaml.constructor.ConstructorError(None, None, "repeated key", node.start_mark)
        return super().construct_mapping(node, deep)


_PurePythonLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def test_loader_parses_like_the_pure_python_one():
    if yaml.__with_libyaml__:
        assert issubclass(cli._Loader, yaml.CSafeLoader)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = [readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]]
    configs = resources.files("uscspec").joinpath("configs")
    texts += [ref.read_text() for ref in configs.iterdir() if ref.name.endswith(".yaml")]
    assert len(texts) == 4
    texts.append("{a: 1e-3, b: -2E+4, c: 1.5e3, d: 3, e: [1.0, 1e0, '1e0', yes]}")
    for text in texts:
        fast, pure = (yaml.load(text, Loader=loader) for loader in (cli._Loader, _PurePythonLoader))
        assert fast == pure and repr(fast) == repr(pure)  # repr tells 1 from 1.0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds 0.2-0.35 s to every start; only state labelling needs it
    src = str(Path(uscspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, uscspec.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # scipy loads on first use: state labelling, and the LU of a dense Floquet preconditioner
    src = str(Path(uscspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, uscspec.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # multiprocessing loads only when a sweep forks workers; concurrent.futures never
    src = str(Path(uscspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, uscspec.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_defaults_to_one_blas_thread():
    # a preset value wins, and a process that loaded numpy first is left alone
    src = str(Path(uscspec.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = ("import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
              "len(os.listdir('/proc/self/task')))")

    def run(code, **extra):
        return subprocess.run([sys.executable, "-c", code], env=dict(env, **extra),
                              check=True, capture_output=True, text=True).stdout.split()

    assert run("import uscspec.cli; " + report) == ["1", "1"]
    assert run("import uscspec.cli; " + report, OPENBLAS_NUM_THREADS="2")[0] == "2"
    assert run("import numpy, uscspec.cli; " + report)[0] == "None"
