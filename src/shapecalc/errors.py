"""Exception types raised by shapecalc.

Everything derives from ShapecalcError so callers can catch the whole
family at once; the CLI maps ConfigError to exit code 2.
"""


class ShapecalcError(Exception):
    """Base class for all shapecalc errors."""


class InvariantViolation(ShapecalcError):
    """A construction-time consistency check failed (bad callables, broken
    periodicity, inconsistent analytic derivatives, ...)."""


class DegenerateImmersion(ShapecalcError):
    """Zero speed / rank-deficient parametrization on the sampled grid."""


class IllConditioned(ShapecalcError):
    """A tangent Gram system is numerically singular (condition > 1e10)."""


class SupportViolation(ShapecalcError):
    """Requested field support escapes the hold-all domain."""


class NonFinite(ShapecalcError):
    """A flow or quotient produced NaN/inf."""


class NoConvergence(ShapecalcError):
    """Finite-difference quotient sequence diverges (ratio test), a
    nearest-point Newton search reaches its iteration cap, or the
    Richardson table of an invariance flow would need a level of more than
    MAX_FLOW_STEPS steps to meet its budget."""


class CrackNotInterior(ShapecalcError):
    """Crack curve too close to the boundary of the surrounding region."""


class ProbeOverlap(ShapecalcError):
    """Crack endpoint probes overlap each other."""


class ConfigError(ShapecalcError):
    """Malformed experiment configuration."""
