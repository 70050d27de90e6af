"""Exception hierarchy shared across the package."""


class ToughlabError(Exception):
    """Base class for all toughlab errors."""


class GraphError(ToughlabError, ValueError):
    """Invalid graph construction or parsing input."""


class EndpointOutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class TooManyVertices(GraphError):
    pass


class MalformedGraph6(GraphError):
    pass


class MalformedEdgeList(GraphError):
    pass


class InvalidParams(ToughlabError, ValueError):
    """Bad parameters for a graph family generator."""


class DisconnectedGraph(ToughlabError, ValueError):
    """Operation requires a connected graph."""


class NotRegularGraph(ToughlabError, ValueError):
    """Operation requires a regular graph."""


class TooFewVertices(ToughlabError, ValueError):
    pass


class GraphTooLarge(ToughlabError, ValueError):
    """Graph exceeds the configured size cap for an exhaustive operation."""


class NoConvergence(ToughlabError, RuntimeError):
    """Eigensolver failed to converge within the sweep cap (solver bug)."""


class RetriesExhausted(ToughlabError, RuntimeError):
    """Random generator gave up after the configured number of attempts."""


class PreconditionViolated(ToughlabError, ValueError):
    """A combinatorial construction was called outside its guarantees."""


class SNotProper(ToughlabError, ValueError):
    """Cut set must be a proper subset of the vertex set."""
