"""Outside-in benchmark of the uscspec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each CLI run is a fresh child
process (``child.py``) timed from outside; its CSVs are checked against the
reference physics in ``oracle.py`` at points the seed picks. With
``--trace 1`` one more run records spans around every layer and the
per-layer metrics are printed instead of the end-to-end ones. The last line
of standard output is one JSON object; see README.md.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3          # set-up-only children per run, besides each CLI run's own
BUDGET_S = 160.0           # no round starts, and every child is killed, after this
EMISSION_RTOL = 1e-6       # sampled S_raw against the direct resolvent solve
EMISSION_ATOL = 1e-8       # ... plus this share of the row's peak
NOISE_FLOOR = 1e-8         # S_raw >= -NOISE_FLOOR * max of the set
REFLECTIVITY_TOL = 1e-4    # |S11| against linear response; see README
GENERATOR_ULPS = 64        # generator self-check, in units of the last place

FIG2_BATHS = [
    {"which": "resonator", "gamma": 1.0e-3, "temperature": 0.0, "jump_kind": "match_probe"},
    {"which": "qubit", "gamma": 1.0e-2, "temperature": 0.1},
]
FIG6_BATHS = [
    {"which": "resonator", "gamma": 1.0e-3, "temperature": 0.55, "jump_kind": "match_probe"},
    {"which": "qubit", "gamma": 5.0e-3, "temperature": 0.55},
]

WORKLOADS = {
    # bundled fig2 inputs at the two ends of the coupling sweep: eig pole sum, GME-heavy
    "fig2-emission": {
        "mode": "emission",
        "system": {"delta": 1.0, "epsilon": 0.0, "eta": 0.1, "omega_r": 1.0,
                   "n_fock": 20, "model_kind": "circuit"},
        "baths": FIG2_BATHS,
        "gme": {"filter_b": 0.0},
        "probes": ["X_C", "X_M"],
        "grid": {"start": 0.05, "stop": 3.0, "points": 443},
        "sweep": {"parameter": "eta", "start": 0.1, "stop": 1.5, "points": 2},
        "output": {"normalization": "max_of_set", "log_floor": 1.0e-6},
        "emission_method": "eig",
    },
    # flux-offset sweep at fixed ultrastrong coupling: per-point solves, dephasing on
    "bias-emission": {
        "mode": "emission",
        "system": {"delta": 1.0, "epsilon": 0.2, "eta": 0.5, "omega_r": 1.0,
                   "n_fock": 14, "model_kind": "circuit"},
        "baths": FIG2_BATHS,
        "gme": {"filter_b": 0.0, "dephasing_weight": "printed"},
        "probes": ["X_C", "X_M"],
        "grid": {"start": 0.45, "stop": 0.85, "points": 12},
        "sweep": {"parameter": "epsilon", "start": 0.2, "stop": 0.7, "points": 4},
        "output": {"normalization": "max_of_set", "log_floor": 1.0e-6},
        "emission_method": "auto",
    },
    # bundled fig6 inputs on two offsets at one drive frequency, on the
    # epsilon = 0.6 dip; weak drive so that linear response is the oracle
    "fig6-reflectivity": {
        "mode": "reflectivity",
        "system": {"delta": 0.69, "epsilon": 0.0, "eta": 1.01, "omega_r": 1.0,
                   "n_fock": 14, "model_kind": "circuit"},
        "baths": FIG6_BATHS,
        "gme": {"filter_b": 0.0},
        "probes": ["X_M", "a_plus_adag", "X_C"],
        "grid": {"start": 1.0, "stop": 1.0, "points": 1},
        "sweep": {"parameter": "epsilon", "start": 0.0, "stop": 0.6, "points": 2},
        "drive": {"b_in": 1.0e-4, "phase": 0.0, "floquet_order": 2},
        "output": {"normalization": "raw"},
    },
}

# sweep rows per probe whose emission the oracle recomputes at seeded
# frequencies; a reflectivity map is checked whole
ORACLE_ROWS = {"fig2-emission": 1, "bias-emission": 2, "fig6-reflectivity": 0}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "gme.build_s": "s", "gme.build_calls": "count", "gme.liouvillian_s": "s",
    "gme.superop_mb": "MB", "gme.drive_s": "s", "gme.build_useful_ratio": "ratio",
    "steady.solve_s": "s", "steady.solve_calls": "count", "steady.floquet_s": "s",
    "steady.floquet_calls": "count", "steady.floquet_useful_ratio": "ratio",
    "spectra.emission_s": "s", "spectra.eig_calls": "count",
    "spectra.solve_points": "count", "spectra.reflectivity_self_s": "s",
    "spectra.probe_s": "s", "dressed.basis_s": "s", "dressed.basis_calls": "count",
    "dressed.label_s": "s", "model.s": "s", "model.calls": "count",
    "cli.config_s": "s", "cli.csv_s": "s", "cli.csv_mb": "MB", "cli.self_s": "s",
    "cli.startup_s": "s", "cli.exit_s": "s", "trace.run_s": "s",
    "trace.overhead_s": "s",
}
SPAN_COUNTS = {"gme.build_calls": "gme.build_s", "steady.solve_calls": "steady.solve_s",
               "steady.floquet_calls": "steady.floquet_s",
               "dressed.basis_calls": "dressed.basis_s", "model.calls": "model.s"}


class BenchError(Exception):
    """The benchmark cannot run or cannot judge this checkout."""


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    def blas(module):
        deps = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    import scipy

    return {
        "nproc": os.cpu_count(),
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "USCSPEC_THREADS": os.environ.get("USCSPEC_THREADS", "unset"),
        "cli_threads": "CLI default (no --threads)",
    }


# ---------------------------------------------------------------------------
# oracle self-checks, run before any CLI output is produced

def check_generator(config: dict) -> float:
    """The oracle's secular generator equals build_gme + total_liouvillian at
    b = 0, built on the same dressed basis, at n_fock = 8, for every probe of
    the workload, at epsilon = 0 and at its largest offset (0.4 when it
    sweeps eta, at the largest eta)."""
    import oracle
    from uscspec.dressed import DressedBasis
    from uscspec.gme import (GmeConfig, build_gme, qubit_channel,
                             resonator_channel, total_liouvillian)
    from uscspec.model import OutputKind, SystemParams

    s = config["system"]
    port, qubit = _baths(config)
    sweep = config["sweep"]
    eps_values = [0.0, sweep["stop"] if sweep["parameter"] == "epsilon" else 0.4]
    worst = 0.0
    for eps in eps_values:
        point = oracle.Point(s["delta"], eps, s["eta"] if sweep["parameter"] != "eta"
                             else sweep["stop"], 8)
        m = oracle.Model(point)
        params = SystemParams(delta=point.delta, epsilon=eps, eta=point.eta, n_fock=8)
        basis = DressedBasis(energies=m.energies.copy(), vectors=m.vectors.copy())
        for probe in config["probes"]:
            ours = oracle.generator(m, probe, port, qubit)
            channels = [
                resonator_channel(port.gamma, port.temperature,
                                  OutputKind(oracle.port_of(probe)[0])),
                qubit_channel(qubit.gamma, qubit.temperature, point.delta),
            ]
            lg = build_gme(basis, channels, GmeConfig(filter_b=0.0), params)
            total = total_liouvillian(basis, lg)
            theirs = getattr(total, "matrix", total)
            dissipative = np.abs(getattr(lg, "matrix", lg)).max()
            dev = float(np.abs(ours - theirs).max())
            bound = GENERATOR_ULPS * np.finfo(float).eps * dissipative
            if not dev <= bound:
                raise BenchError(f"oracle generator differs from build_gme by {dev:.3e} "
                                 f"> {bound:.3e} (epsilon={eps}, probe={probe})")
            worst = max(worst, dev)
    return worst


def check_linear_response(config: dict) -> dict:
    """Linear-response S11 against the order-2 Floquet S11 at X_C, epsilon =
    0.6, n_fock = 8, on the workload's drive frequencies: within
    REFLECTIVITY_TOL / 10 at the workload's b_in, and a gap at b_in = 0.03
    that is larger by about (0.03 / b_in)^2, i.e. drive nonlinearity."""
    import oracle
    from uscspec.gme import GmeConfig, qubit_channel
    from uscspec.model import OutputKind, SystemParams
    from uscspec.spectra import reflectivity_spectrum

    s = config["system"]
    port, qubit = _baths(config)
    omega_d = _grid(config)
    b_weak = config["drive"]["b_in"]
    m = oracle.Model(oracle.Point(s["delta"], 0.6, s["eta"], 8))
    lv = oracle.generator(m, "X_C", port, qubit)
    linear = oracle.s11_linear(m, lv, oracle.steady_state(lv), "X_C", port.gamma, omega_d)
    params = SystemParams(delta=s["delta"], epsilon=0.6, eta=s["eta"], n_fock=8)
    gaps = {}
    for b_in in (b_weak, 0.03):
        floquet = reflectivity_spectrum(
            params, OutputKind.CAPACITIVE_C, omega_d,
            qubit_channel(qubit.gamma, qubit.temperature, s["delta"]),
            port.gamma, port.temperature, b_in, 0.0, GmeConfig(filter_b=0.0),
            config["drive"]["floquet_order"])
        gaps[b_in] = float(np.abs(floquet - linear).max())
    scaling = gaps[0.03] / max(gaps[b_weak], 1e-300) / (0.03 / b_weak) ** 2
    if not gaps[b_weak] <= REFLECTIVITY_TOL / 10 or not 0.5 <= scaling <= 2.0:
        raise BenchError(f"linear response vs Floquet: gap {gaps[b_weak]:.3e} at "
                         f"b_in={b_weak}, {gaps[0.03]:.3e} at 0.03 (scaling {scaling:.2f})")
    return {"gap_weak": gaps[b_weak], "gap_0.03": gaps[0.03], "b2_scaling": scaling}


# ---------------------------------------------------------------------------
# child processes

def run_child(kind: str, config_path: Path, out_dir: Path, command: str) -> dict:
    """One child process, timed from outside and killed when the run's time
    budget is spent. ``kind`` is the child.py mode, ``command`` the CLI
    subcommand."""
    stamps_path = out_dir.parent / f"{out_dir.name}.stamps.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(stamps_path), kind,
           command, "--config", str(config_path), "--out", str(out_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    with open(out_dir.parent / f"{out_dir.name}.log", "w") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, STARTED + BUDGET_S - spawn), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        done = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"rc": proc.returncode, "spawn": spawn, "done": done,
              "run_s": done - spawn,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and stamps_path.exists():
        payload = json.loads(stamps_path.read_text())
        result["payload"] = payload
        result["setup_s"] = payload["stamps"]["config_loaded"] - spawn
    return result


# ---------------------------------------------------------------------------
# output checks

def _baths(config: dict):
    import oracle

    port = next(b for b in config["baths"] if b["which"] == "resonator")
    qubit = next(b for b in config["baths"] if b["which"] == "qubit")
    return (oracle.Bath(port["gamma"], port["temperature"]),
            oracle.Bath(qubit["gamma"], qubit["temperature"]))


def _grid(config: dict) -> np.ndarray:
    g = config["grid"]
    return np.linspace(g["start"], g["stop"], g["points"])


def _sweep(config: dict) -> np.ndarray:
    s = config["sweep"]
    return np.linspace(s["start"], s["stop"], s["points"])


def _point(config: dict, value: float):
    import oracle

    s = dict(config["system"])
    s[config["sweep"]["parameter"]] = float(value)
    return oracle.Point(s["delta"], s["epsilon"], s["eta"], s["n_fock"], s["omega_r"])


def read_rows(config: dict, out_dir: Path, probe: str) -> list[np.ndarray] | None:
    """Per sweep value, the CSV rows of one probe in grid order, or None per
    missing row; None for the whole map when the file is absent or malformed."""
    prefix = "emission" if config["mode"] == "emission" else "reflectivity"
    path = out_dir / f"{prefix}_{probe}.csv"
    try:
        with open(path) as fh:
            table = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    except (OSError, ValueError):
        return None
    grid, sweep = _grid(config), _sweep(config)
    sweep_col, grid_col = (0, 1) if config["mode"] == "emission" else (1, 0)
    rows = []
    for value in sweep:
        sel = table[table[:, sweep_col] == value] if table.size else table
        ok = sel.shape[0] == grid.size and np.array_equal(sel[:, grid_col], grid)
        rows.append(sel if ok else None)
    return rows


def emission_row_ok(row: np.ndarray, set_max: float, log_floor: float) -> bool:
    s_raw, s_norm, log_s = row[:, 2], row[:, 3], row[:, 4]
    if not (np.isfinite(row).all() and set_max > 0):
        return False
    if (s_raw < -NOISE_FLOOR * set_max).any():
        return False
    expect = s_raw / set_max
    if (np.abs(s_norm - expect) > 4 * np.finfo(float).eps * np.abs(expect)).any():
        return False
    return bool((np.abs(log_s - np.log10(np.maximum(s_norm, log_floor))) <= 1e-12).all())


class Checker:
    """Counts operations (one per sweep point and probe) and failures."""

    def __init__(self, config: dict, seed: int, oracle_rows: int):
        self.config = config
        self.oracle_rows = oracle_rows
        self.rng = np.random.default_rng(seed)
        self.samples: dict = {}  # (probe, row) -> (grid indices, oracle values)
        self.solved: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.deviations: list[float] = []

    def check_round(self, out_dir: Path, ran_ok: bool) -> None:
        config = self.config
        n_rows = len(_sweep(config))
        for probe in config["probes"]:
            self.attempted += n_rows
            rows = read_rows(config, out_dir, probe) if ran_ok else None
            if rows is None:
                self.failed += n_rows
                continue
            if probe not in self.solved:
                self._pick_and_solve(probe, rows)
                self.solved.add(probe)
            if config["mode"] == "emission":
                present = [r for r in rows if r is not None]
                set_max = max(float(np.abs(r[:, 2]).max()) for r in present) if present else 0.0
            for i, row in enumerate(rows):
                ok = row is not None
                if ok and config["mode"] == "emission":
                    ok = emission_row_ok(row, set_max, config["output"]["log_floor"])
                elif ok:
                    ok = bool(np.isfinite(row).all() and (row[:, 2] >= 0).all())
                if ok and (probe, i) in self.samples:
                    ok = self._matches(probe, i, row)
                self.failed += not ok

    def _pick_and_solve(self, probe: str, rows: list) -> None:
        """Oracle values of one probe's map: all of it for reflectivity; for
        emission, seeded rows at one seeded frequency and at the row's peak."""
        import oracle

        config = self.config
        sweep, grid = _sweep(config), _grid(config)
        port, qubit = _baths(config)
        emission = config["mode"] == "emission"
        picked = (sorted(self.rng.choice(len(sweep), self.oracle_rows, replace=False))
                  if emission else range(len(sweep)))
        for i in picked:
            m = oracle.Model(_point(config, sweep[i]))
            lv = oracle.generator(m, probe, port, qubit)
            rho = oracle.steady_state(lv)
            if emission:
                idx = [int(self.rng.integers(grid.size))]
                if rows[i] is not None:
                    idx.append(int(np.argmax(rows[i][:, 2])))
                values = oracle.emission(lv, rho, m.probe_rate(probe), grid[idx])
            else:
                idx = list(range(grid.size))
                values = oracle.s11_linear(m, lv, rho, probe, port.gamma, grid)
            self.samples[(probe, i)] = (np.array(idx), values)

    def _matches(self, probe: str, i: int, row: np.ndarray) -> bool:
        idx, want = self.samples[(probe, i)]
        got = row[idx, 2]
        if self.config["mode"] == "emission":
            peak = float(np.abs(want).max())
            dev = np.abs(got - want) / (EMISSION_RTOL * np.abs(want) + EMISSION_ATOL * peak)
        else:
            dev = np.abs(got - want) / REFLECTIVITY_TOL
        self.deviations.append(float(dev.max()))
        return bool((dev <= 1.0).all())


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(traced: dict, untraced_run_s: float) -> dict:
    from spans import layer_times

    payload = traced["payload"]
    stamps = payload["stamps"]
    times = layer_times(payload["spans"])
    metrics = {name: times.get(name, 0.0) for name, unit in PER_LAYER.items()
               if unit == "s" and not name.startswith("trace.")}
    metrics["cli.startup_s"] = stamps["main_start"] - traced["spawn"]
    metrics["cli.exit_s"] = traced["done"] - stamps["main_end"]
    names = [s["name"] for s in payload["spans"]]
    for metric, span in SPAN_COUNTS.items():
        metrics[metric] = names.count(span)
    counts, useful = payload["counts"], payload["useful"]
    metrics["spectra.eig_calls"] = counts.get("spectra.eig_calls", 0)
    metrics["spectra.solve_points"] = counts.get("spectra.solve_points", 0)
    metrics["cli.csv_mb"] = counts.get("cli.csv_mb", 0.0)
    metrics["gme.superop_mb"] = payload["maxima"].get("gme.superop_mb", 0.0)
    metrics["gme.build_useful_ratio"] = useful.get("gme.build", 1.0)
    metrics["steady.floquet_useful_ratio"] = useful.get("steady.floquet", 1.0)
    for name, unit in PER_LAYER.items():
        if unit == "count":
            metrics[name] = int(metrics[name])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - untraced_run_s
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "uscspec" / "cli.py").is_file():
        raise BenchError(f"no uscspec sources under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import uscspec

    if Path(uscspec.__file__).resolve().parent != (SRC / "uscspec").resolve():
        raise BenchError(f"imported uscspec from {uscspec.__file__}, not from {SRC}")

    config = WORKLOADS[args.workload]
    env = environment()
    for key, value in env.items():
        print(f"env {key}: {value}")

    import yaml

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))
    checker = Checker(config, args.seed, ORACLE_ROWS[args.workload])
    try:
        # set-up children first, while this process is still idle
        setups = []
        for k in range(SETUP_SAMPLES):
            out = run_dir / f"setup{k}"
            out.mkdir()
            child = run_child("setup", config_path, out, config["mode"])
            if child["rc"] != 0:
                raise BenchError(f"set-up child failed with exit code {child['rc']}")
            setups.append(child["setup_s"])

        selfcheck = {"generator_max_dev": check_generator(config)}
        if config["mode"] == "reflectivity":
            selfcheck.update(check_linear_response(config))
        for key, value in selfcheck.items():
            print(f"self-check {key}: {value:.3e}")

        rounds = []
        measured = 0.0
        while True:
            out = run_dir / f"round{len(rounds)}"
            out.mkdir()
            child = run_child("run", config_path, out, config["mode"])
            checker.check_round(out, child["rc"] == 0)
            rounds.append(child)
            if "setup_s" in child:
                setups.append(child["setup_s"])
            measured += child["run_s"]
            if (measured + statistics.median(r["run_s"] for r in rounds) > args.seconds
                    or time.perf_counter() - STARTED > BUDGET_S):
                break

        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        report = {"workload": args.workload, "seed": args.seed, "env": env,
                  "selfcheck": selfcheck, "config": config, "setups": setups,
                  "rounds": [{k: r[k] for k in ("rc", "run_s", "cpu_s", "peak_rss_mb")}
                             for r in rounds]}
        units = END_TO_END
        if args.trace:
            out = run_dir / "traced"
            out.mkdir()
            traced = run_child("trace", config_path, out, config["mode"])
            checker.check_round(out, traced["rc"] == 0)
            if "payload" not in traced:
                raise BenchError(f"traced run failed with exit code {traced['rc']}")
            report["untraced"] = metrics
            metrics = layer_metrics(traced, metrics["run_s"])
            layer_sum = sum(v for k, v in metrics.items() if k in PER_LAYER
                            and PER_LAYER[k] == "s" and not k.startswith("trace."))
            report["layer_sum_minus_run_s"] = layer_sum - traced["run_s"]
            units = PER_LAYER
        report["metrics"] = metrics
        report["oracle_max_scaled_dev"] = max(checker.deviations, default=0.0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    (OUT / f"{args.workload}.report.json").write_text(json.dumps(report, indent=2) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {units[name]}")
    print(f"{args.workload} operations: attempted {checker.attempted}, failed {checker.failed}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
