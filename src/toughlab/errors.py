"""Exception hierarchy shared across the package: one class per remedy."""


class ToughlabError(Exception):
    """Base class for all toughlab errors."""


class GraphError(ToughlabError, ValueError):
    """The input is not a simple graph on at most 64 vertices."""


class InvalidParams(ToughlabError, ValueError):
    """Bad parameters for a graph family generator."""


class PreconditionViolated(ToughlabError, ValueError):
    """The operation is not defined on this input."""


class GraphTooLarge(ToughlabError, ValueError):
    """Graph exceeds the configured size cap for an exhaustive operation."""


class NoConvergence(ToughlabError, RuntimeError):
    """Eigensolver failed to converge within the sweep cap (solver bug)."""


class RetriesExhausted(ToughlabError, RuntimeError):
    """Random generator gave up after the configured number of attempts."""
