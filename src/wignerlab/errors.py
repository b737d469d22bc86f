"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so the distinctions are part
of the public surface: invalid quantum states, unparseable files, undefined
photon subtraction and Fock-space cutoff failures must stay tellable apart.
"""


class DimensionError(ValueError):
    """A vector or matrix has the wrong shape for phase space."""


class ModeValidationError(ValueError):
    """A mode vector is too far from unit norm to be trusted."""


class CovarianceError(ValueError):
    """A covariance matrix is asymmetric, singular or unphysical."""


class MixedStateError(CovarianceError):
    """A computation defined for pure states was given a mixed one."""


class SymplecticError(ValueError):
    """A matrix expected to preserve the symplectic form does not."""


class SubtractionUndefinedError(ValueError):
    """Photon subtraction requested from a mode with zero mean photons."""


class CapacityError(ValueError):
    """A combinatorial enumeration exceeds its hard-coded order bound."""


class CutoffError(RuntimeError):
    """A truncated Fock-space construction leaks too much norm.

    Carries ``suggested_cutoff`` when a larger truncation would succeed.
    """

    def __init__(self, message, suggested_cutoff=None):
        super().__init__(message)
        self.suggested_cutoff = suggested_cutoff


class ParseError(ValueError):
    """A state file is malformed or declares unsupported conventions."""
