"""Run the uscspec CLI once in this process and write its time stamps.

    python3 child.py STAMPS_JSON MODE CLI_ARGS...

MODE is ``setup`` (import the package, load the config, stop), ``run`` (a
plain CLI run) or ``trace`` (a CLI run with every layer's public functions
wrapped by a span recorder). Time stamps are ``time.perf_counter`` values,
which on Linux read CLOCK_MONOTONIC and so compare with the parent's.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

MODEL_FUNCTIONS = ("build_static_hamiltonian", "build_output_operator",
                   "heisenberg_derivative", "annihilation", "qubit_op",
                   "sigma_tilde_x")


def _hashable_args(args: dict, skip=()) -> tuple:
    """The arguments that identify a call, as a hashable tuple: lists become
    tuples, and arrays or other unhashable values are left out."""
    out = []
    for name, value in args.items():
        if name in skip:
            continue
        if isinstance(value, list):
            value = tuple(value)
        try:
            hash(value)
        except TypeError:
            continue
        out.append((name, value))
    return tuple(out)


def install_tracing(rec) -> None:
    from oracle import port_of
    from uscspec import cli, dressed, gme, model, spectra, steady

    for mod in (cli, spectra, dressed, gme):
        for attr in MODEL_FUNCTIONS:
            if hasattr(mod, attr):
                rec.wrap(mod, attr, "model.s")
    rec.wrap(model, "parity_operator", "model.s")

    for mod in (cli, spectra):
        rec.wrap(mod, "dressed_basis", "dressed.basis_s")
    for mod, attr in ((cli, "label_states"), (cli, "jc_initial_labels"),
                      (cli, "plain_labels"), (cli, "build_transition_table"),
                      (spectra, "frequency_components")):
        rec.wrap(mod, attr, "dressed.label_s")

    def after_build(args, result):
        rec.key("gme.build", _hashable_args(args))
        rec.maximum("gme.superop_mb", getattr(result, "matrix", result).nbytes / 1e6)

    for mod in (cli, spectra):
        rec.wrap(mod, "build_gme", "gme.build_s", after=after_build)
        rec.wrap(mod, "total_liouvillian", "gme.liouvillian_s")
    rec.wrap(spectra, "build_drive_superoperators", "gme.drive_s")

    rec.wrap(cli, "steady_state", "steady.solve_s")
    rec.wrap(steady, "steady_state", "steady.solve_s")

    # a Floquet solve is identified by the reflectivity call it serves, with
    # the probe replaced by the port coupling it implies, plus w_d and order
    current = threading.local()

    def before_reflectivity(args):
        probe = getattr(args["probe"], "value", args["probe"])
        current.key = (_hashable_args(args, skip=("probe", "omega_d_grid")),
                       port_of(probe))

    def before_floquet(args):
        rec.key("steady.floquet", (getattr(current, "key", None),
                                   float(args["omega_d"]), args["order"]))

    rec.wrap(spectra, "floquet_harmonics", "steady.floquet_s", before=before_floquet)
    rec.wrap(cli, "reflectivity_spectrum", "spectra.reflectivity_self_s",
             before=before_reflectivity)

    def after_emission(args, result):
        if args["method"] == "eig":
            rec.count("spectra.eig_calls")
        else:
            rec.count("spectra.solve_points", len(args["grid"]))

    rec.wrap(cli, "emission_spectrum", "spectra.emission_s", after=after_emission)
    rec.wrap(cli, "emission_probe", "spectra.probe_s")

    def after_csv(args, result):
        rec.count("cli.csv_mb", os.path.getsize(args["path"]) / 1e6)

    rec.wrap(cli, "write_csv", "cli.csv_s", after=after_csv)
    rec.wrap(cli, "write_manifest", "cli.csv_s")
    rec.wrap(cli, "load_config", "cli.config_s")
    rec.wrap(cli, "_parallel_map", "cli.self_s", pool=True)
    rec.wrap(cli, "main", "cli.self_s")


def main() -> int:
    stamps_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from uscspec import cli

    stamps = {"start": START, "imported": time.perf_counter()}
    payload = {"stamps": stamps}
    if mode == "setup":
        cli.load_config(argv[argv.index("--config") + 1])
        stamps["config_loaded"] = time.perf_counter()
        rc = 0
    else:
        rec = None
        if mode == "trace":
            from spans import Recorder

            rec = Recorder()
            install_tracing(rec)
        load_config = cli.load_config

        def stamped_load_config(*args, **kwargs):
            config = load_config(*args, **kwargs)
            stamps["config_loaded"] = time.perf_counter()
            return config

        cli.load_config = stamped_load_config
        stamps["main_start"] = time.perf_counter()
        rc = cli.main(argv)
        stamps["main_end"] = time.perf_counter()
        if rec is not None:
            payload.update(spans=rec.spans, counts=rec.counts, maxima=rec.maxima,
                           useful={name: len(set(keys)) / len(keys)
                                   for name, keys in rec.keys.items()})
    payload["rc"] = rc
    with open(stamps_path, "w") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
