"""Command-line front end: config parsing, sweep orchestration, CSV output.

Modes
-----
eigen         transition table (and energy sweep) for the static Hamiltonian
emission      incoherent power-spectrum maps over an eta or epsilon sweep
reflectivity  |S11| maps over (drive frequency x flux offset)
matelems      |<i|O|j>|^2 of selected output operators along a sweep
audit         the sweep run again at n_fock + 10 (and Floquet order + 2) and
              checked at every point, probe and grid frequency; it costs
              one full run at each cutoff

Every run writes a ``manifest.json`` recording the fully resolved
configuration (including every default the code filled in), so identical
configs reproduce byte-identical CSV files.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
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
    ChannelKind,
    GmeConfig,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from .model import (
    UNDEFINED_OUTPUT,
    OutputKind,
    SystemParams,
    build_output_operator,
)
from .spectra import (
    PROBE_COUPLING,
    Normalization,
    emission_probe,
    emission_spectrum,
    reflectivity_spectrum,
)
from .steady import steady_state

SPECTRUM_MODES = ("emission", "reflectivity")
ENERGY_AUDIT_TOL = 1e-7
SPECTRUM_AUDIT_TOL = 1e-6
_INPUT_ERRORS = (KeyError, TypeError, ValueError, UscSpecError)  # what a malformed input raises


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _check_integer(what: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigInvalid(f"{what} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int

    def __post_init__(self):
        _check_integer("grid points", self.points)
        if self.start > self.stop or (self.points > 1 and self.start == self.stop):
            raise ConfigInvalid(
                f"grid start {self.start} must be below stop {self.stop} for {self.points} points"
            )

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
        _check_integer("sweep points", self.points)
        if self.parameter == "none" and self.points != 1:
            raise ConfigInvalid(f"a sweep over none has 1 point, got {self.points}")
        if self.points > 1 and self.start >= self.stop:
            raise ConfigInvalid(
                f"sweep start {self.start} must be below stop {self.stop} for {self.points} points"
            )

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
        if not (self.b_in > 0 and -np.inf < self.phase < np.inf):  # NaN fails both
            raise ConfigInvalid(f"drive b_in must be > 0 and phase finite, got b_in={self.b_in}, "
                                f"phase={self.phase!r}")
        _check_integer("drive floquet_order", self.floquet_order)


@dataclass(frozen=True)
class OutputSpec:
    normalization: Normalization = Normalization.MAX_OF_SET
    log_floor: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "normalization", Normalization(self.normalization))
        if not 0 < self.log_floor < 1:
            raise ConfigInvalid("log_floor must be in (0, 1)")


@dataclass(frozen=True)
class BathSpec:
    which: ChannelKind
    gamma: float
    temperature: float
    jump_kind: OutputKind | str | None = None  # resonator only; may be "match_probe"

    def __post_init__(self):
        object.__setattr__(self, "which", ChannelKind(self.which))
        # a port with no probe to match (eigen, matelems) never resolves: check its rates here
        resonator_channel(self.gamma, self.temperature, OutputKind.INDUCTIVE_M)
        if self.which == ChannelKind.QUBIT:
            if self.jump_kind is not None:
                raise ConfigInvalid("a qubit bath takes no jump_kind")
        elif self.jump_kind is None:
            raise ConfigInvalid("resonator bath needs a jump_kind")
        elif self.jump_kind != "match_probe":
            object.__setattr__(self, "jump_kind", OutputKind(self.jump_kind))

    def resolve(self, system: SystemParams, probe: OutputKind | None) -> BathChannel:
        """The channel for ``probe`` (read by a match_probe port only) at every
        point of a sweep of ``system``: no channel reads eta or epsilon."""
        if self.which == ChannelKind.QUBIT:
            return qubit_channel(self.gamma, self.temperature, system.delta)
        jump = self.jump_kind
        if jump == "match_probe":
            jump = PROBE_COUPLING.get(probe, probe)
        return resonator_channel(self.gamma, self.temperature, jump)


@dataclass(frozen=True)
class MatElemSpec:
    operators: tuple = ()  # of (name, kind, derivative) triples, read from mappings
    transitions: tuple = ()  # of (label_i, label_j) pairs

    def __post_init__(self):
        operators = []
        for op in self.operators:
            full = {"derivative": True, **op}  # a TypeError unless op is a mapping
            if (set(full) != {"name", "kind", "derivative"} or not isinstance(full["name"], str)
                    or not isinstance(full["derivative"], bool)):
                raise ValueError("a matelems operator has a name (a string), a kind and "
                                 f"derivative true or false (default true), got {op!r}")
            if any(full["name"] == name for name, _, _ in operators):
                raise ValueError(f"duplicate matelems operator name {full['name']!r}")
            operators.append((full["name"], OutputKind(full["kind"]), full["derivative"]))
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in self.transitions):
            raise ValueError(f"matelems transitions must be label pairs, got {self.transitions!r}")
        object.__setattr__(self, "operators", tuple(operators))
        object.__setattr__(self, "transitions",
                           tuple(tuple(map(str, pair)) for pair in self.transitions))


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
    emission_method: str = "auto"  # "auto" | "solve" | "eig"; whole-L emission path only

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in RUNNERS:
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if not isinstance(self.probes, (list, tuple)):
            raise ConfigInvalid(f"probes must be a list, got {self.probes!r}")
        try:
            object.__setattr__(self, "probes", tuple(map(OutputKind, self.probes)))
        except ValueError as exc:
            raise ConfigInvalid(f"unknown probe: {exc}") from exc
        if self.mode == "reflectivity" and self.drive is None:
            raise ConfigInvalid("reflectivity mode requires a drive block")
        if self.mode in ("emission", "reflectivity"):
            if not self.probes:
                raise ConfigInvalid(f"{self.mode} mode requires at least one probe")
            if self.grid is None:
                raise ConfigInvalid(f"{self.mode} mode requires a grid block")
        if self.mode == "matelems" and not (self.matelems.operators and self.matelems.transitions):
            raise ConfigInvalid("matelems mode needs matelems.operators and .transitions")
        if len(set(self.probes)) < len(self.probes):
            raise ConfigInvalid(f"duplicate probe in {[p.value for p in self.probes]}")
        if self.emission_method not in ("auto", "solve", "eig"):
            raise ConfigInvalid(f"unknown emission_method {self.emission_method!r}")
        if self.mode == "reflectivity":
            if self.sweep.parameter == "eta":
                raise ConfigInvalid("reflectivity sweeps run over epsilon (or none)")
            if not self.grid.start > 0:
                raise ConfigInvalid(
                    f"reflectivity drive frequencies must be > 0, grid starts at {self.grid.start}"
                )
            kinds = [b.which for b in self.baths]
            if kinds.count(ChannelKind.QUBIT) != 1 or kinds.count(ChannelKind.RESONATOR) != 1:
                raise ConfigInvalid("reflectivity needs exactly one qubit and one resonator bath")
            port = self.baths[kinds.index(ChannelKind.RESONATOR)]
            if port.jump_kind != "match_probe":
                raise ConfigInvalid(f"reflectivity port jump_kind {port.jump_kind.value!r} must "
                                    "be match_probe: the port couples through its probe")
            for probe in self.probes:
                if probe not in PROBE_COUPLING:
                    raise ConfigInvalid(f"probe {probe.value!r} has no port coupling rule")
        try:
            _sweep_params(self)
        except _INPUT_ERRORS as exc:
            raise ConfigInvalid(f"invalid sweep point: {exc}") from exc
        outputs = [*self.probes, *(kind for _, kind, _ in self.matelems.operators)]
        for bath in self.baths:
            for probe in self.probes if bath.jump_kind == "match_probe" else [None]:
                try:
                    outputs.append(bath.resolve(self.system, probe).jump_kind)
                except _INPUT_ERRORS as exc:
                    raise ConfigInvalid(f"invalid {bath.which.value} bath: {exc}") from exc
        model_kind = self.system.model_kind
        if UNDEFINED_OUTPUT[model_kind] in outputs:
            raise ConfigInvalid(f"{UNDEFINED_OUTPUT[model_kind].value} is not defined for the "
                                f"{model_kind.value} model: no probe, bath or matelems operator "
                                "may couple through it")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing required key {key!r} in {context}")
    return mapping[key]


def _block(cls, block, context: str):
    """``cls(**block)`` for one config block; any malformed block, or one
    holding a boolean or a NaN or infinite number, is a ConfigInvalid."""
    if not isinstance(block, dict):
        raise ConfigInvalid(f"{context} must be a mapping, got {block!r}")
    for key, value in block.items():
        if isinstance(value, bool):  # YAML reads yes, no, on and off as booleans
            raise ConfigInvalid(f"{context} {key} must not be a boolean, got {value!r}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigInvalid(f"{context} {key} must be finite, got {value!r}")
    try:
        return cls(**block)
    except _INPUT_ERRORS as exc:
        raise ConfigInvalid(f"invalid {context}: {exc}") from exc


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be a mapping")
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")

    sysblock = _require(raw, "system", "config")
    if not isinstance(sysblock, dict):
        raise ConfigInvalid(f"system block must be a mapping, got {sysblock!r}")
    unit = sysblock.get("omega_r", 1.0)
    if isinstance(unit, bool) or unit != 1.0:
        raise ConfigInvalid(f"omega_r is the frequency unit and must be 1.0, got {unit!r}")
    sysblock = {k: v for k, v in sysblock.items() if k != "omega_r"}
    system = _block(SystemParams, sysblock, "system block")

    bath_blocks = _require(raw, "baths", "config")
    if not isinstance(bath_blocks, list) or not bath_blocks:
        raise ConfigInvalid("baths must be a non-empty list")
    baths = tuple(_block(BathSpec, b, "bath") for b in bath_blocks)

    blocks = {key: _block(cls, raw[key], f"{key} block") for key, cls in
              {"gme": GmeConfig, "grid": GridSpec, "sweep": SweepSpec, "drive": DriveSpec,
               "output": OutputSpec, "matelems": MatElemSpec}.items() if key in raw}
    return RunConfig(mode=_require(raw, "mode", "config"), system=system, baths=baths,
                     probes=raw.get("probes", ()),
                     emission_method=raw.get("emission_method", "auto"), **blocks)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML 1.1, except that, as in YAML 1.2, a float may be written without a
    dot (1e-3) and a mapping may not repeat a key. Parsed by libyaml if PyYAML has it."""

    def construct_mapping(self, node, deep=False):
        keys = [(k.tag, k.value) for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
        repeated = [value for tag, value in keys if keys.count((tag, value)) > 1]
        if repeated:
            raise yaml.constructor.ConstructorError(
                None, None, f"repeated key {repeated[0]!r}", node.start_mark)
        return super().construct_mapping(node, deep)


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_config(name_or_path: str) -> RunConfig:
    """Load a YAML config from a path, or a bundled one by bare name."""
    path = Path(name_or_path)
    if path.exists() and not path.is_dir():
        text = path.read_text()
    else:
        ref = resources.files("uscspec").joinpath(f"configs/{name_or_path}.yaml")
        if not ref.is_file():
            raise ConfigInvalid(
                f"config {name_or_path!r}: no such file and no bundled config"
            )
        text = ref.read_text()
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config is not valid YAML: {exc}") from exc
    return parse_config(raw)


def resolved_dict(config: RunConfig) -> dict:
    """Every parameter the run will use, defaults included, as plain JSON types."""
    out = dataclasses.asdict(config)  # json writes the str enums as their values
    out["version"] = __version__
    out["audit_tolerances"] = {
        "energy_abs": ENERGY_AUDIT_TOL,
        "spectrum_rel": SPECTRUM_AUDIT_TOL,
    }
    return out


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: Path, config: RunConfig, extra: dict | None = None) -> None:
    _write_json(out_dir / "manifest.json", {"config": resolved_dict(config), **(extra or {})})


def write_error(out_dir: Path | None, exc: Exception) -> None:
    report = {"error": str(exc), "type": type(exc).__name__}
    if out_dir is not None and out_dir.is_dir():
        _write_json(out_dir / "error.json", report)
    print(json.dumps(report), file=sys.stderr)


def _parallel_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on min(threads, len(items)) forked
    processes when threads > 1, so ``fn`` must pickle: a module-level function
    or a functools.partial of one. Results keep the input order, and the first
    failing item in that order raises, so outputs do not depend on timing."""
    if threads == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import multiprocessing  # here, so that importing the CLI loads no multiprocessing

    with multiprocessing.get_context("fork").Pool(min(threads, len(items))) as pool:
        return list(pool.imap(fn, items))


# ---------------------------------------------------------------------------
# per-mode runners
# ---------------------------------------------------------------------------

def _sweep_params(config: RunConfig) -> tuple[np.ndarray, list[SystemParams]]:
    values = config.sweep.values()
    if config.sweep.parameter == "none":
        return values, [config.system] * len(values)
    return values, [replace(config.system, **{config.sweep.parameter: float(v)})
                    for v in values]


def _labeled_bases(config: RunConfig, params_list: list[SystemParams]) -> list[DressedBasis]:
    """The sweep's dressed bases, labeled by continuation from JC labels on an
    eta sweep at epsilon = 0 and from plain indices otherwise. In matelems
    mode every transition label must name a state of the first point:
    continuation only permutes labels, so every point carries the first's."""
    bases = [dressed_basis(p) for p in params_list]
    if config.sweep.parameter == "eta" and config.system.epsilon == 0.0:
        labels = jc_initial_labels(params_list[0], bases[0])
    else:
        labels = plain_labels(bases[0].dim)
    unknown = [lab for pair in config.matelems.transitions for lab in pair if lab not in labels]
    if config.mode == "matelems" and unknown:
        raise ConfigInvalid(f"matelems transition label {unknown[0]!r} names no state")
    return label_states(bases, labels)


def run_eigen(config: RunConfig, out_dir: Path, threads: int) -> None:
    values, params_list = _sweep_params(config)
    bases = _labeled_bases(config, params_list)
    sweep_col = config.sweep.parameter if config.sweep.parameter != "none" else "point"

    rows = [(value, str(i), str(j), li, lj, w)
            for value, basis in zip(values, bases)
            for i, j, li, lj, w in build_transition_table(basis)]
    write_csv(out_dir / "transitions.csv",
              [sweep_col, "i", "j", "label_i", "label_j", "omega_ji"], rows)

    energy_rows = [(value, str(idx), label, energy) for value, basis in zip(values, bases)
                   for idx, (energy, label) in enumerate(zip(basis.energies, basis.labels))]
    write_csv(out_dir / "energies.csv",
              [sweep_col, "index", "label", "energy_over_omega_r"], energy_rows)
    write_manifest(out_dir, config)


@contextmanager
def _point_failure(config: RunConfig, params: SystemParams, probe: OutputKind):
    """Re-raise a solver error of one (sweep point, probe) as a SolverFailure
    that names the probe and the sweep coordinate."""
    try:
        yield
    except UscSpecError as exc:
        where = f"probe={probe.value}"
        if config.sweep.parameter != "none":
            where += f" {config.sweep.parameter}={getattr(params, config.sweep.parameter)}"
        raise SolverFailure(f"{where}: {exc}") from exc


def _point_rows(config: RunConfig, params: SystemParams, grid: np.ndarray,
                method: str) -> list[np.ndarray]:
    """The row of each probe at one sweep point: the emission spectrum over
    the frequencies ``grid`` (by ``method``), or |S11| over the drive
    frequencies ``grid``. Emission probes share one dressed basis;
    reflectivity probes that share a port coupling share its Floquet solves."""
    reflectivity = config.mode == "reflectivity"
    if reflectivity:
        qubit = next(b for b in config.baths
                     if b.which == ChannelKind.QUBIT).resolve(config.system, None)
        port = next(b for b in config.baths if b.which == ChannelKind.RESONATOR)
    rows, basis, solved = [], None, {}
    for probe in config.probes:
        with _point_failure(config, params, probe):
            if reflectivity:
                row = reflectivity_spectrum(
                    params, probe, grid, qubit, port.gamma, port.temperature,
                    config.drive.b_in, config.drive.phase, config.gme,
                    config.drive.floquet_order, solved=solved,
                )
            else:
                if basis is None:
                    basis = dressed_basis(params)
                channels = [b.resolve(config.system, probe) for b in config.baths]
                lg = build_gme(basis, channels, config.gme, params)
                l_total = total_liouvillian(basis, lg)
                rho = steady_state(l_total)
                x_dot = emission_probe(params, probe, basis)
                row = emission_spectrum(l_total, rho, x_dot, grid, method=method)
        rows.append(row)
    return rows


def _grid_and_method(config: RunConfig) -> tuple[np.ndarray, str]:
    """The frequency grid of a spectrum-mode config and its emission method."""
    grid = config.grid.values()
    method = config.emission_method
    if method == "auto":  # one eig of a dense L costs 20-31 solves (n_fock 8-20)
        method = "eig" if grid.size >= 32 else "solve"
    return grid, method


def _emission_rows(config: RunConfig, values: np.ndarray, grid: np.ndarray,
                   stack: np.ndarray) -> list[list]:
    norm = config.output.normalization
    if norm == Normalization.MAX_OF_SET:
        ref = float(np.abs(stack).max())
    rows = []
    for value, s_raw in zip(values, stack):
        if norm == Normalization.PER_SPECTRUM:
            ref = float(np.abs(s_raw).max())
        elif norm == Normalization.RAW_ARBITRARY:
            ref = 1.0
        s_norm = s_raw / ref if ref else s_raw
        log_val = np.log10(np.maximum(s_norm, config.output.log_floor))
        rows += np.column_stack(
            [np.full(grid.size, value), grid, s_raw, s_norm, log_val]).tolist()
    return rows


def run_spectra(config: RunConfig, out_dir: Path, threads: int) -> None:
    """Emission or reflectivity: every sweep point is evaluated before any
    CSV is written, so a failing point leaves no partial output."""
    values, params_list = _sweep_params(config)
    grid, method = _grid_and_method(config)
    maps = _parallel_map(partial(_point_rows, config, grid=grid, method=method),
                         params_list, threads)
    sweep_col = (f"{config.sweep.parameter}_over_omega_r"
                 if config.sweep.parameter != "none" else "point")
    for k, probe in enumerate(config.probes):
        stack = np.vstack([point[k] for point in maps])
        if config.mode == "emission":
            header = [sweep_col, "omega_over_omega_r", "S_raw", "S_normalized", "log10_S"]
            rows = _emission_rows(config, values, grid, stack)
        else:
            header = ["omega_d_over_omega_r", "epsilon_over_omega_r", "S11"]
            rows = [(wd, params.epsilon, s11) for params, row in zip(params_list, stack)
                    for wd, s11 in zip(grid, row)]
        write_csv(out_dir / f"{config.mode}_{probe.value}.csv", header, rows)
    write_manifest(out_dir, config,
                   {"emission_method": method} if config.mode == "emission" else None)


def run_matelems(config: RunConfig, out_dir: Path, threads: int) -> None:
    """|<i|O|j>|^2 of each operator at each sweep point, for each transition."""
    values, params_list = _sweep_params(config)
    bases = _labeled_bases(config, params_list)
    rows = []
    for name, kind, derivative in config.matelems.operators:
        for value, params, basis in zip(values, params_list, bases):
            op = (emission_probe(params, kind, basis) if derivative
                  else basis.to_dressed(build_output_operator(kind, params)))
            rows += [(float(value), li, lj, name,
                      float(abs(op[basis.index_of(li), basis.index_of(lj)]) ** 2))
                     for li, lj in config.matelems.transitions]
    write_csv(out_dir / "matrix_elements.csv",
              ["sweep_value", "i_label", "j_label", "operator", "abs_sq"], rows)
    write_manifest(out_dir, config)


# ---------------------------------------------------------------------------
# convergence audit
# ---------------------------------------------------------------------------

def _audit_point(config: RunConfig, bigger: RunConfig, grid: np.ndarray | None,
                 method: str | None, point: tuple[float, SystemParams, SystemParams]) -> dict:
    """The check of one (sweep value, params, params in ``bigger``) point: its
    low energies and, in the spectrum modes, every probe's row over the grid."""
    value, params, params_big = point
    e_small = dressed_basis(params).energies
    e_big = dressed_basis(params_big).energies[: len(e_small)]
    # compare the lowest quarter of the spectrum; higher rungs of a
    # truncated Fock ladder are never converged and carry no population
    keep = max(2, len(e_small) // 4)
    dev = float(np.abs(e_small[:keep] - e_big[:keep]).max())
    check = {"sweep_value": float(value), "n_fock": params.n_fock, "energy_dev": dev,
             "energy_ok": bool(dev <= ENERGY_AUDIT_TOL)}
    if config.mode in SPECTRUM_MODES:
        small, big = (_point_rows(c, p, grid, method)
                      for c, p in ((config, params), (bigger, params_big)))
        # np.max, not max: a NaN deviation on any probe must FAIL. A row that
        # is zero at both cutoffs deviates by 0, and by inf against a nonzero one
        devs = [np.abs(s - b).max() for s, b in zip(small, big)]
        with np.errstate(divide="ignore"):
            rel = float(np.max([d / np.abs(s).max() if d else 0.0 for d, s in zip(devs, small)]))
        check["spectrum_rel_dev"] = rel
        check["spectrum_ok"] = bool(rel <= SPECTRUM_AUDIT_TOL)
    return check


def run_audit(config: RunConfig, out_dir: Path, threads: int) -> None:
    """Run the config again at n_fock + 10 (and, for reflectivity, Floquet
    order + 2) and check every sweep point, one ``_audit_point`` task each."""
    bigger = replace(config, system=replace(config.system, n_fock=config.system.n_fock + 10))
    if config.mode == "reflectivity":
        bigger = replace(bigger, drive=replace(config.drive,
                                               floquet_order=config.drive.floquet_order + 2))
    values, params_list = _sweep_params(config)
    if config.mode == "matelems":  # reject a transition label as run_matelems does
        _labeled_bases(config, params_list[:1])
    grid, method = _grid_and_method(config) if config.mode in SPECTRUM_MODES else (None, None)
    checks = _parallel_map(partial(_audit_point, config, bigger, grid, method),
                           list(zip(values, params_list, _sweep_params(bigger)[1])), threads)

    ok = all(c["energy_ok"] and c.get("spectrum_ok", True) for c in checks)
    report = {
        "result": "PASS" if ok else "FAIL",
        "tolerances": {"energy_abs": ENERGY_AUDIT_TOL, "spectrum_rel": SPECTRUM_AUDIT_TOL},
        "checks": checks,
    }
    _write_json(out_dir / "audit.json", report)
    write_manifest(out_dir, config, {"audit": report["result"]})
    print(f"audit: {report['result']}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "eigen": run_eigen,
    "emission": run_spectra,
    "reflectivity": run_spectra,
    "matelems": run_matelems,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is reported like any other config error
        raise ConfigInvalid(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="uscspec",
        description="Emission and reflectivity spectra of a flux-qubit/LC "
                    "circuit at arbitrary coupling strength.",
    )
    parser.add_argument("mode", choices=[*RUNNERS, "audit"])
    parser.add_argument("--config", help="YAML config path or bundled name (fig2, fig5, fig6)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", default=1, help="worker processes for the sweep (default: 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    out_dir = None  # until --out is read, an error is reported on stderr only
    try:
        args, extra = build_parser().parse_known_args(argv)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"--out {args.out!r} is not a usable directory: {exc}") from exc
        if extra:
            raise ConfigInvalid(f"unrecognized arguments: {' '.join(extra)}")
        if args.config is None:
            raise ConfigInvalid("the --config argument is required")
        threads = int(args.threads) if str(args.threads).isdecimal() else 0
        if threads < 1:
            raise ConfigInvalid(f"--threads must be an integer >= 1, got {args.threads!r}")
        config = load_config(args.config)
        if args.mode != "audit" and config.mode != args.mode:
            raise ConfigInvalid(f"config mode {config.mode!r} does not match mode {args.mode!r}")
        runner = run_audit if args.mode == "audit" else RUNNERS[args.mode]
        runner(config, out_dir, threads)
    except ConfigInvalid as exc:
        write_error(out_dir, exc)
        return 2
    except UscSpecError as exc:
        write_error(out_dir, exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
