"""The traced benchmark run (``perfbench/child.py`` in ``trace`` mode) wraps
module attributes of ``uscspec`` by name. These tests run it on tiny
configs so that a refactor which renames or bypasses a wrapped attribute
fails here rather than silently dropping a layer from ``--trace 1``. Each
config checks that a plain CLI run loads no scipy module, and
the benchmark's oracle self-checks run here against the package as it is."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]

BATHS = [
    {"which": "resonator", "gamma": 1e-3, "temperature": 0.1, "jump_kind": "match_probe"},
    {"which": "qubit", "gamma": 1e-2, "temperature": 0.1},
]
CONFIGS = {
    "emission": {
        "mode": "emission",
        "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.5, "n_fock": 4},
        "baths": BATHS,
        "probes": ["X_C"],
        "grid": {"start": 0.5, "stop": 1.5, "points": 8},
        "sweep": {"parameter": "eta", "start": 0.1, "stop": 0.5, "points": 2},
    },
    "reflectivity": {
        "mode": "reflectivity",
        "system": {"delta": 0.69, "epsilon": 0.0, "eta": 1.01, "n_fock": 4},
        "baths": BATHS,
        "probes": ["X_M", "a_plus_adag"],
        "grid": {"start": 0.9, "stop": 1.0, "points": 2},
        "sweep": {"parameter": "epsilon", "start": 0.0, "stop": 0.3, "points": 2},
        "drive": {"b_in": 1e-4},
    },
    # an eta sweep at epsilon 0 seeds its labels from the JC doublets
    "eigen": {
        "mode": "eigen",
        "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.1, "n_fock": 4},
        "baths": BATHS[1:],
        "sweep": {"parameter": "eta", "start": 0.1, "stop": 0.5, "points": 3},
    },
    "matelems": {
        "mode": "matelems",
        "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.1, "n_fock": 4},
        "baths": BATHS[1:],
        "sweep": {"parameter": "eta", "start": 0.1, "stop": 0.5, "points": 3},
        "matelems": {
            "operators": [{"name": "xdot_c", "kind": "X_C"},
                          {"name": "x_m", "kind": "X_M", "derivative": False}],
            "transitions": [["0", "1-"], ["0", "1+"]],
        },
    },
}
SPANS = {
    "emission": {"gme.build_s", "steady.solve_s", "spectra.emission_s"},
    "reflectivity": {"spectra.reflectivity_self_s", "gme.drive_s", "steady.floquet_s"},
    "eigen": {"dressed.basis_s", "dressed.label_s"},
    "matelems": {"dressed.basis_s", "dressed.label_s", "spectra.probe_s"},
}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_traced_run_records_every_layer(tmp_path, mode):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[mode]))
    stamps = tmp_path / "stamps.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(stamps), "trace",
         mode, "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(stamps.read_text())
    assert payload["rc"] == 0
    names = {span["name"] for span in payload["spans"]}
    assert SPANS[mode] <= names, SPANS[mode] - names
    if mode == "reflectivity":
        # X_M and a + a^dag share one port coupling, so nothing is rebuilt
        assert payload["useful"] == {"gme.build": 1.0, "steady.floquet": 1.0}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_run_leaves_scipy_unloaded(tmp_path, mode):
    # importing scipy.linalg takes about as long as the whole fig6-reflectivity benchmark run
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[mode]))
    code = ("import sys, uscspec.cli; "
            f"rc = uscspec.cli.main({[mode, '--config', str(config), '--out', str(tmp_path)]!r}); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_benchmark_self_checks_pass(monkeypatch):
    # perfbench/run.py checks its oracle against the package before any timed
    # run, through DressedBasis, build_gme, reflectivity_spectrum and
    # SecularGenerator.matrix; an API change that breaks those calls breaks
    # the benchmark, so it must fail here too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    for config in run.WORKLOADS.values():
        run.check_generator(config)  # raises BenchError past its bound
    report = run.check_linear_response(run.WORKLOADS["fig6-reflectivity"])
    assert report["gap_weak"] <= run.REFLECTIVITY_TOL / 10
