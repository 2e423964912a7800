"""Exception types shared across the package."""


class AolabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AolabError):
    """Malformed or out-of-contract input (non-finite entries, bad shapes,
    precondition violations)."""


class SizeError(InvalidInputError):
    """Matrix dimension beyond the supported desk scale."""


class IllConditionedSpectrumError(AolabError):
    """The roots or indices of the minimal polynomial cannot be decided: a
    rank decision found no singular-value gap, or the kernels at a root do
    not add up to its multiplicity.  The message gives the root, the
    staircase step, the deciding number and the threshold."""


class DecompositionError(AolabError):
    """Generalized eigenspace decomposition failed (kernel dimensions do not
    fill the space; usually signals a non-minimal polynomial or inconsistent
    tolerances)."""


class InconsistencyError(AolabError):
    """A structural prediction and its empirical cross-check disagree beyond
    tolerance."""


class OutOfScopeError(AolabError):
    """Request outside the supported parameter regime (e.g. spectral radius
    above 1 for the growth bound)."""
