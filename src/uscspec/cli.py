"""Command-line front end: config parsing, sweep orchestration, CSV output.

Subcommands
-----------
eigen         transition table (and energy sweep) for the static Hamiltonian
emission      incoherent power-spectrum maps over an eta or epsilon sweep
reflectivity  |S11| maps over (drive frequency x flux offset)
matelems      |<i|O|j>|^2 of selected output operators along a sweep
audit         convergence re-run of a sampled subset at a larger cutoff

Every run writes a ``manifest.json`` recording the fully resolved
configuration (including every default the code filled in), so identical
configs reproduce byte-identical CSV files.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dressed import (
    DressedBasis,
    build_transition_table,
    dressed_basis,
    jc_initial_labels,
    label_states,
    plain_labels,
)
from .errors import ConfigInvalid, SolverFailure, UscSpecError
from .gme import (
    BathChannel,
    GmeConfig,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from .model import (
    ModelKind,
    OutputKind,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
    heisenberg_derivative,
)
from .spectra import (
    PROBE_COUPLING,
    Normalization,
    emission_probe,
    emission_spectrum,
    matrix_element_report,
    reflectivity_spectrum,
)
from .steady import liouvillian_blocks, steady_state

THREAD_ENV_VAR = "USCSPEC_THREADS"
ENERGY_AUDIT_TOL = 1e-7
SPECTRUM_AUDIT_TOL = 1e-6


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ConfigInvalid(f"grid points must be >= 1, got {self.points}")
        if self.start > self.stop:
            raise ConfigInvalid(f"grid start {self.start} > stop {self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # "eta" | "epsilon" | "none"
    start: float = 0.0
    stop: float = 0.0
    points: int = 1

    def __post_init__(self):
        if self.parameter not in ("eta", "epsilon", "none"):
            raise ConfigInvalid(f"unknown sweep parameter {self.parameter!r}")
        if self.points < 1:
            raise ConfigInvalid(f"sweep points must be >= 1, got {self.points}")
        if self.points > 1 and self.start > self.stop:
            raise ConfigInvalid(f"sweep start {self.start} > stop {self.stop}")

    def values(self) -> np.ndarray:
        if self.parameter == "none":
            return np.array([0.0])
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class DriveSpec:
    b_in: float
    phase: float = 0.0
    floquet_order: int = 2

    def __post_init__(self):
        if self.b_in <= 0:
            raise ConfigInvalid(f"drive b_in must be > 0, got {self.b_in}")
        if self.floquet_order < 1:
            raise ConfigInvalid("floquet_order must be >= 1")


@dataclass(frozen=True)
class OutputSpec:
    normalization: str = "max_of_set"
    log_floor: float = 1e-6

    def __post_init__(self):
        if self.normalization not in tuple(n.value for n in Normalization):
            raise ConfigInvalid(f"unknown normalization {self.normalization!r}")
        if not 0 < self.log_floor < 1:
            raise ConfigInvalid("log_floor must be in (0, 1)")


@dataclass(frozen=True)
class BathSpec:
    which: str  # "resonator" | "qubit"
    gamma: float
    temperature: float
    jump_kind: str | None = None  # resonator only; may be "match_probe"

    def __post_init__(self):
        if self.which not in ("resonator", "qubit"):
            raise ConfigInvalid(f"unknown bath kind {self.which!r}")
        if self.which == "resonator" and self.jump_kind is None:
            raise ConfigInvalid("resonator bath needs a jump_kind")

    def resolve(self, params: SystemParams, probe: OutputKind | None) -> BathChannel:
        if self.which == "qubit":
            return qubit_channel(self.gamma, self.temperature, params.delta)
        kind = self.jump_kind
        if kind == "match_probe":
            if probe is None:
                raise ConfigInvalid("jump_kind match_probe requires a probe")
            kind = PROBE_COUPLING.get(probe, (probe, 0))[0].value
        try:
            jump = OutputKind(kind)
        except ValueError as exc:
            raise ConfigInvalid(f"unknown jump_kind {kind!r}") from exc
        return resonator_channel(self.gamma, self.temperature, jump, params.omega_r)


@dataclass(frozen=True)
class MatElemSpec:
    operators: tuple = ()  # of (name, kind, derivative) triples
    transitions: tuple = ()  # of (label_i, label_j) pairs


@dataclass(frozen=True)
class RunConfig:
    mode: str
    system: SystemParams
    baths: tuple
    gme: GmeConfig = field(default_factory=GmeConfig)
    probes: tuple = ()
    grid: GridSpec | None = None
    sweep: SweepSpec = field(default_factory=lambda: SweepSpec("none"))
    drive: DriveSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)
    matelems: MatElemSpec = field(default_factory=MatElemSpec)
    labeling: str = "auto"  # "auto" | "jc" | "index"
    emission_method: str = "auto"  # "auto" | "solve" | "eig"

    def __post_init__(self):
        if self.mode not in ("eigen", "emission", "reflectivity", "matelems"):
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if self.mode == "reflectivity" and self.drive is None:
            raise ConfigInvalid("reflectivity mode requires a drive block")
        if self.mode in ("emission", "reflectivity"):
            if not self.probes:
                raise ConfigInvalid(f"{self.mode} mode requires at least one probe")
            if self.grid is None:
                raise ConfigInvalid(f"{self.mode} mode requires a grid block")
        if self.labeling not in ("auto", "jc", "index"):
            raise ConfigInvalid(f"unknown labeling {self.labeling!r}")
        if self.emission_method not in ("auto", "solve", "eig"):
            raise ConfigInvalid(f"unknown emission_method {self.emission_method!r}")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing required key {key!r} in {context}")
    return mapping[key]


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be a mapping")
    known = {"mode", "system", "baths", "gme", "probes", "grid", "sweep",
             "drive", "output", "matelems", "labeling", "emission_method"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")

    sysblock = dict(_require(raw, "system", "config"))
    kind = sysblock.pop("model_kind", "circuit")
    try:
        model_kind = ModelKind(kind)
    except ValueError as exc:
        raise ConfigInvalid(f"unknown model_kind {kind!r}") from exc
    try:
        system = SystemParams(model_kind=model_kind, **sysblock)
    except (TypeError, ValueError, UscSpecError) as exc:
        raise ConfigInvalid(f"invalid system block: {exc}") from exc

    baths = tuple(BathSpec(**b) for b in _require(raw, "baths", "config"))
    if not baths:
        raise ConfigInvalid("at least one bath is required")

    try:
        gme = GmeConfig(**raw.get("gme", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid gme block: {exc}") from exc

    probes = []
    for name in raw.get("probes", []):
        try:
            probes.append(OutputKind(name))
        except ValueError as exc:
            raise ConfigInvalid(f"unknown probe {name!r}") from exc

    grid = GridSpec(**raw["grid"]) if "grid" in raw else None
    sweep = SweepSpec(**raw["sweep"]) if "sweep" in raw else SweepSpec("none")
    drive = DriveSpec(**raw["drive"]) if "drive" in raw else None
    output = OutputSpec(**raw.get("output", {}))

    me_raw = raw.get("matelems", {})
    operators = tuple(
        (op["name"], OutputKind(op["kind"]), bool(op.get("derivative", True)))
        for op in me_raw.get("operators", [])
    )
    transitions = tuple((str(t[0]), str(t[1])) for t in me_raw.get("transitions", []))
    matelems = MatElemSpec(operators=operators, transitions=transitions)

    return RunConfig(
        mode=_require(raw, "mode", "config"),
        system=system,
        baths=baths,
        gme=gme,
        probes=tuple(probes),
        grid=grid,
        sweep=sweep,
        drive=drive,
        output=output,
        matelems=matelems,
        labeling=raw.get("labeling", "auto"),
        emission_method=raw.get("emission_method", "auto"),
    )


def load_config(name_or_path: str) -> RunConfig:
    """Load a YAML config from a path, or a bundled one by bare name."""
    path = Path(name_or_path)
    if path.exists():
        text = path.read_text()
    else:
        ref = resources.files("uscspec").joinpath(f"configs/{name_or_path}.yaml")
        if not ref.is_file():
            raise ConfigInvalid(
                f"config {name_or_path!r}: no such file and no bundled config"
            )
        text = ref.read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config is not valid YAML: {exc}") from exc
    return parse_config(raw)


def resolved_dict(config: RunConfig) -> dict:
    """Every parameter the run will use, defaults included, as plain JSON types."""
    def scrub(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: scrub(v) for k, v in dataclasses.asdict(obj).items()}
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [scrub(v) for v in obj]
        if isinstance(obj, (OutputKind, ModelKind)):
            return obj.value
        if isinstance(obj, np.generic):
            return obj.item()
        return obj

    out = scrub(config)
    out["version"] = __version__
    out["audit_tolerances"] = {
        "energy_abs": ENERGY_AUDIT_TOL,
        "spectrum_rel": SPECTRUM_AUDIT_TOL,
    }
    return out


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def write_manifest(out_dir: Path, config: RunConfig, extra: dict | None = None) -> None:
    payload = {"config": resolved_dict(config)}
    if extra:
        payload.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_error(out_dir: Path | None, exc: Exception, where: str | None = None) -> None:
    report = {"error": str(exc), "type": type(exc).__name__}
    if where is not None:
        report["grid_point"] = where
    if out_dir is not None and out_dir.exists():
        with open(out_dir / "error.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report), file=sys.stderr)


def resolve_threads(cli_value: int | None) -> int:
    env = os.environ.get(THREAD_ENV_VAR)
    if cli_value is not None:
        n = cli_value
    elif env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigInvalid(f"{THREAD_ENV_VAR} must be an integer, got {env!r}") from exc
    else:
        n = os.cpu_count() or 1
    if n < 1:
        raise ConfigInvalid(f"thread count must be >= 1, got {n}")
    return n


def _parallel_map(fn, items, threads: int) -> list:
    """Map preserving input order; results merged by index regardless of
    completion order so output files stay deterministic."""
    if threads == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# per-mode runners
# ---------------------------------------------------------------------------

def _sweep_params(config: RunConfig) -> tuple[np.ndarray, list[SystemParams]]:
    values = config.sweep.values()
    if config.sweep.parameter == "eta":
        return values, [replace(config.system, eta=float(v)) for v in values]
    if config.sweep.parameter == "epsilon":
        return values, [replace(config.system, epsilon=float(v)) for v in values]
    return values, [config.system] * len(values)


def _labeled_bases(config: RunConfig, params_list: list[SystemParams]) -> list[DressedBasis]:
    bases = [dressed_basis(p) for p in params_list]
    mode = config.labeling
    if mode == "auto":
        mode = "jc" if (config.sweep.parameter == "eta"
                        and config.system.epsilon == 0.0) else "index"
    if mode == "jc":
        initial = jc_initial_labels(params_list[0])
    else:
        initial = plain_labels(bases[0].dim)
    return label_states(bases, initial)


def run_eigen(config: RunConfig, out_dir: Path, threads: int) -> None:
    values, params_list = _sweep_params(config)
    bases = _labeled_bases(config, params_list)
    sweep_col = config.sweep.parameter if config.sweep.parameter != "none" else "point"

    rows = []
    for value, basis in zip(values, bases):
        table = build_transition_table(basis)
        for i, j, omega in zip(table.i, table.j, table.omega):
            rows.append((value, int(i), int(j), basis.labels[i], basis.labels[j], omega))
    write_csv(out_dir / "transitions.csv",
              [sweep_col, "i", "j", "label_i", "label_j", "omega_ji"],
              [(v, str(i), str(j), li, lj, w) for v, i, j, li, lj, w in rows])

    energy_rows = []
    for value, basis in zip(values, bases):
        for idx, (energy, label) in enumerate(zip(basis.energies, basis.labels)):
            energy_rows.append((value, _fmt(idx), label, energy))
    write_csv(out_dir / "energies.csv",
              [sweep_col, "index", "label", "energy_over_omega_r"], energy_rows)
    write_manifest(out_dir, config)


def _emission_one_point(config: RunConfig, params: SystemParams,
                        probe: OutputKind, grid: np.ndarray, method: str) -> np.ndarray:
    basis = dressed_basis(params)
    channels = [b.resolve(params, probe) for b in config.baths]
    lg = build_gme(basis, channels, config.gme, params)
    l_total = total_liouvillian(basis, lg)
    blocks = liouvillian_blocks(l_total)
    rho = steady_state(l_total, blocks=blocks)
    x_dot = emission_probe(params, probe, basis)
    series = emission_spectrum(l_total, rho, x_dot, grid, log_floor=config.output.log_floor,
                               method=method, blocks=blocks)
    return series.values


def run_emission(config: RunConfig, out_dir: Path, threads: int) -> None:
    values, params_list = _sweep_params(config)
    grid = config.grid.values()
    method = config.emission_method
    if method == "auto":
        method = "eig" if grid.size >= 4 * len(params_list) else "solve"
    sweep_col = (f"{config.sweep.parameter}_over_omega_r"
                 if config.sweep.parameter != "none" else "point")

    for probe in config.probes:
        def task(params, _probe=probe):
            return _emission_one_point(config, params, _probe, grid, method)

        maps = _parallel_map(task, params_list, threads)
        stack = np.vstack(maps)
        norm = Normalization(config.output.normalization)
        if norm == Normalization.MAX_OF_SET:
            ref = float(np.abs(stack).max())
        rows = []
        for value, spec_values in zip(values, stack):
            if norm == Normalization.PER_SPECTRUM:
                ref = float(np.abs(spec_values).max())
            elif norm == Normalization.RAW_ARBITRARY:
                ref = 1.0
            for omega, s_raw in zip(grid, spec_values):
                s_norm = s_raw / ref if ref else s_raw
                log_val = np.log10(max(s_norm, config.output.log_floor))
                rows.append((value, omega, s_raw, s_norm, log_val))
        write_csv(out_dir / f"emission_{probe.value}.csv",
                  [sweep_col, "omega_over_omega_r", "S_raw", "S_normalized", "log10_S"],
                  rows)
    write_manifest(out_dir, config, {"emission_method": method})


def run_reflectivity(config: RunConfig, out_dir: Path, threads: int) -> None:
    if config.sweep.parameter in ("eta",):
        raise ConfigInvalid("reflectivity sweeps run over epsilon (or none)")
    values, params_list = _sweep_params(config)
    omega_d = config.grid.values()
    drive = config.drive
    qubit_specs = [b for b in config.baths if b.which == "qubit"]
    port_specs = [b for b in config.baths if b.which == "resonator"]
    if len(qubit_specs) != 1 or len(port_specs) != 1:
        raise ConfigInvalid("reflectivity needs exactly one qubit and one resonator bath")
    port = port_specs[0]

    for probe in config.probes:
        if probe not in PROBE_COUPLING:
            raise ConfigInvalid(f"probe {probe.value!r} has no port coupling rule")

    def task(params):
        qb = qubit_specs[0].resolve(params, None)
        solved = {}  # probes sharing a port coupling share its Floquet solves
        rows = []
        for probe in config.probes:
            try:
                rows.append(reflectivity_spectrum(
                    params, probe, omega_d, qb, port.gamma, port.temperature,
                    drive.b_in, drive.phase, config.gme, drive.floquet_order,
                    solved=solved,
                ))
            except UscSpecError as exc:
                raise SolverFailure(
                    f"probe={probe.value} epsilon={params.epsilon}: {exc}"
                ) from exc
        return rows

    maps = _parallel_map(task, params_list, threads)
    for k, probe in enumerate(config.probes):
        rows = []
        for value, point_rows in zip(values, maps):
            for wd, s11 in zip(omega_d, point_rows[k]):
                rows.append((wd, value, s11))
        write_csv(out_dir / f"reflectivity_{probe.value}.csv",
                  ["omega_d_over_omega_r", "epsilon_over_omega_r", "S11"], rows)
    write_manifest(out_dir, config)


def run_matelems(config: RunConfig, out_dir: Path, threads: int) -> None:
    if not config.matelems.operators or not config.matelems.transitions:
        raise ConfigInvalid("matelems mode needs matelems.operators and .transitions")
    values, params_list = _sweep_params(config)
    bases = _labeled_bases(config, params_list)

    operators = {}
    for name, kind, derivative in config.matelems.operators:
        mats = []
        for params, basis in zip(params_list, bases):
            x = build_output_operator(kind, params)
            if derivative:
                x = heisenberg_derivative(x, build_static_hamiltonian(params))
            mats.append(basis.to_dressed(x))
        operators[name] = mats

    rows = matrix_element_report(values, bases, operators,
                                 list(config.matelems.transitions))
    write_csv(out_dir / "matrix_elements.csv",
              ["sweep_value", "i_label", "j_label", "operator", "abs_sq"],
              [(r.sweep_value, r.i_label, r.j_label, r.operator, r.abs_sq)
               for r in rows])
    write_manifest(out_dir, config)


# ---------------------------------------------------------------------------
# convergence audit
# ---------------------------------------------------------------------------

def _audit_sample(values: np.ndarray, max_points: int = 3) -> list[int]:
    if len(values) <= max_points:
        return list(range(len(values)))
    return sorted({0, len(values) // 2, len(values) - 1})


def run_audit(config: RunConfig, out_dir: Path, threads: int) -> None:
    """Re-run a sampled subset of sweep points at n_fock + 10 (and, for
    reflectivity, Floquet order + 2) and report the largest deviations."""
    values, params_list = _sweep_params(config)
    sample = _audit_sample(values)
    checks = []

    for idx in sample:
        params = params_list[idx]
        bigger = replace(params, n_fock=params.n_fock + 10)
        e_small = dressed_basis(params).energies
        e_big = dressed_basis(bigger).energies[: len(e_small)]
        # compare the lowest quarter of the spectrum; higher rungs of a
        # truncated Fock ladder are never converged and carry no population
        keep = max(2, len(e_small) // 4)
        energy_dev = float(np.abs(e_small[:keep] - e_big[:keep]).max())
        check = {
            "sweep_value": float(values[idx]),
            "n_fock": params.n_fock,
            "energy_dev": energy_dev,
            "energy_ok": bool(energy_dev <= ENERGY_AUDIT_TOL),
        }

        if config.mode == "emission" and config.probes:
            grid = config.grid.values()
            probe = config.probes[0]
            s_small = _emission_one_point(config, params, probe, grid, "solve")
            s_big = _emission_one_point(config, bigger, probe, grid, "solve")
            rel = float(np.abs(s_small - s_big).max() / np.abs(s_small).max())
            check["spectrum_rel_dev"] = rel
            check["spectrum_ok"] = bool(rel <= SPECTRUM_AUDIT_TOL)
        elif config.mode == "reflectivity" and config.probes:
            omega_d = config.grid.values()
            sub = omega_d[_audit_sample(omega_d)]
            probe = config.probes[0]
            drive = config.drive
            port = [b for b in config.baths if b.which == "resonator"][0]
            qb_spec = [b for b in config.baths if b.which == "qubit"][0]

            def refl(p, order):
                return reflectivity_spectrum(
                    p, probe, sub, qb_spec.resolve(p, probe), port.gamma,
                    port.temperature, drive.b_in, drive.phase, config.gme, order,
                )

            s_small = refl(params, drive.floquet_order)
            s_big = refl(bigger, drive.floquet_order + 2)
            rel = float(np.abs(s_small - s_big).max() / np.abs(s_small).max())
            check["spectrum_rel_dev"] = rel
            check["spectrum_ok"] = bool(rel <= SPECTRUM_AUDIT_TOL)

        checks.append(check)

    ok = all(c["energy_ok"] and c.get("spectrum_ok", True) for c in checks)
    report = {
        "result": "PASS" if ok else "FAIL",
        "tolerances": {"energy_abs": ENERGY_AUDIT_TOL, "spectrum_rel": SPECTRUM_AUDIT_TOL},
        "checks": checks,
    }
    with open(out_dir / "audit.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out_dir, config, {"audit": report["result"]})
    print(f"audit: {report['result']}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "eigen": run_eigen,
    "emission": run_emission,
    "reflectivity": run_reflectivity,
    "matelems": run_matelems,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uscspec",
        description="Emission and reflectivity spectra of a flux-qubit/LC "
                    "circuit at arbitrary coupling strength.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eigen", "emission", "reflectivity", "matelems", "audit"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="YAML config path or bundled name (fig2, fig6)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default: {THREAD_ENV_VAR} or cpu count)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = load_config(args.config)
        threads = resolve_threads(args.threads)
        if args.command != "audit" and config.mode != args.command:
            raise ConfigInvalid(
                f"config mode {config.mode!r} does not match subcommand {args.command!r}"
            )
        runner = run_audit if args.command == "audit" else RUNNERS[args.command]
        runner(config, out_dir, threads)
    except ConfigInvalid as exc:
        write_error(out_dir, exc)
        return 2
    except (SolverFailure, UscSpecError) as exc:
        write_error(out_dir, exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
