"""Emission and reflectivity spectra of a flux-qubit/LC circuit at arbitrary
coupling strength: static model, dressed basis, generalized master equation,
Floquet steady states, and spectral observables."""

import os
import sys

if "numpy" not in sys.modules:
    # d <= 48 in the bundled configs, where OpenBLAS's second thread only spins; use --threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .model import (
    ModelKind,
    OutputKind,
    QubitFrame,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
    parity_operator,
    qubit_frequency,
    sigma_tilde_x,
)
from .dressed import (
    DressedBasis,
    build_transition_table,
    diagonalize,
    dressed_basis,
    frequency_components,
    jc_initial_labels,
    label_states,
    plain_labels,
)
from .gme import (
    BathChannel,
    ChannelKind,
    Commutator,
    GmeConfig,
    SecularGenerator,
    build_drive_superoperators,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from .steady import (
    floquet_harmonics,
    steady_state,
)
from .spectra import (
    Normalization,
    emission_probe,
    emission_spectrum,
    reflectivity_spectrum,
)
from .errors import UscSpecError

__version__ = "0.1.0"

__all__ = [
    "BathChannel",
    "ChannelKind",
    "Commutator",
    "DressedBasis",
    "GmeConfig",
    "ModelKind",
    "Normalization",
    "OutputKind",
    "QubitFrame",
    "SecularGenerator",
    "SystemParams",
    "UscSpecError",
    "build_drive_superoperators",
    "build_gme",
    "build_output_operator",
    "build_static_hamiltonian",
    "build_transition_table",
    "diagonalize",
    "dressed_basis",
    "emission_probe",
    "emission_spectrum",
    "floquet_harmonics",
    "frequency_components",
    "jc_initial_labels",
    "label_states",
    "parity_operator",
    "plain_labels",
    "qubit_channel",
    "qubit_frequency",
    "reflectivity_spectrum",
    "resonator_channel",
    "sigma_tilde_x",
    "steady_state",
    "total_liouvillian",
    "__version__",
]
