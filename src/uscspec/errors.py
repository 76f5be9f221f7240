"""Exception types raised by the uscspec solvers and builders."""


class UscSpecError(Exception):
    """Base class for all package-specific errors."""


class DegenerateQubit(UscSpecError):
    """Both the tunnel splitting and the flux offset are zero; the mixing angle is undefined."""


class CutoffTooSmall(UscSpecError):
    """Fock-space cutoff below the minimum of 2."""


class KindMismatch(UscSpecError):
    """Requested output operator is inconsistent with the model kind."""


class DimensionMismatch(UscSpecError):
    """Operators of different Hilbert-space dimensions were combined."""


class NotHermitian(UscSpecError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonPositiveFrequency(UscSpecError):
    """A frequency that must be positive, such as a thermal occupation's or a
    drive's, is not."""


class EmptyChannels(UscSpecError):
    """A master equation was requested without any dissipation channel."""


class InconsistentBasis(UscSpecError):
    """Dressed basis and channel operators live in different Hilbert spaces."""


class DegenerateSteadyState(UscSpecError):
    """The Liouvillian null space has dimension above one (e.g. parity doublets at T=0)."""


class NoConvergence(UscSpecError):
    """An iterative or truncated solve failed to meet its tolerance."""


class SingularHarmonicSolve(UscSpecError):
    """A shifted harmonic block was singular (drive frequency hit a Liouvillian eigenvalue)."""


class ZeroDrive(UscSpecError):
    """Reflectivity requested with zero input amplitude, or one whose inverse overflows."""


class UnknownLabel(UscSpecError):
    """A transition referenced a state label absent from the basis."""


class ResolventSingular(UscSpecError):
    """A resolvent solve hit an undamped Liouvillian eigenvalue."""


class ConfigInvalid(UscSpecError):
    """Run configuration failed validation (CLI exit code 2)."""


class SolverFailure(UscSpecError):
    """A grid-point solve failed during a sweep (CLI exit code 3)."""


class AmbiguousContinuation(UserWarning):
    """Best continuation overlap fell below 0.5 while labeling a sweep (reported, not fatal)."""
