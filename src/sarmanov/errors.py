"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from modelling failures
(inadmissible dependence, degenerate kernels).
"""


class SarmanovError(Exception):
    """Base class for all library errors."""


# --- kernel construction ---------------------------------------------------


class UnknownKernel(SarmanovError, KeyError):
    """Requested catalog id does not exist."""


class ParamOutOfRange(SarmanovError, ValueError):
    """Kernel parameter violates the catalog's validity range."""


class NotAnchored(SarmanovError, ValueError):
    """Kernel does not satisfy g(0) = g(1) = 0."""


class UnboundedDerivative(SarmanovError, ValueError):
    """Numeric slope estimates diverge under grid refinement."""


class DegenerateKernel(SarmanovError, ValueError):
    """Kernel is zero, not finite, or has one-signed slopes; no mixture exists."""


class NoDerivative(SarmanovError, ValueError):
    """Operation requires a derivative the kernel does not carry."""


class UnboundedAtOrigin(SarmanovError, ValueError):
    """g(u)/u has no finite limit at 0; no multiplicative kernel form."""


# --- calibrated pairs ------------------------------------------------------


class NotCalibrated(SarmanovError, ValueError):
    """Mixture of the two component cdfs is not the uniform cdf."""


class NotMonotone(SarmanovError, ValueError):
    """Candidate component cdf decreases somewhere on [0, 1]."""


# --- Bernoulli specifications ----------------------------------------------


class DimensionTooLarge(SarmanovError, ValueError):
    """Operation requires enumerating 2^d states and d exceeds the cap."""


class SubsetTooSmall(SarmanovError, ValueError):
    """Mixed moments are defined for subsets of size >= 2 only."""


class MarginsNotHalf(SarmanovError, ValueError):
    """Operation requires all Bernoulli margins equal to 1/2."""


class MomentOverflow(SarmanovError, OverflowError):
    """A mixed moment lies beyond the float range."""


class NotAdmissible(SarmanovError, ValueError):
    """Bernoulli law has a negative pmf entry; sampling refused."""


# --- batches / measurement -------------------------------------------------


class BatchTooSmall(SarmanovError, ValueError):
    """Empirical measures need at least 1000 rows."""


# --- configuration ---------------------------------------------------------


class ConfigError(SarmanovError, ValueError):
    """Configuration file violates the documented JSON schema."""
