"""Exception types shared by the engine and the reference oracle.

The engine and the oracle validate batches independently but raise the same
classes, so differential tests can compare rejections by type.
"""


class GraphError(ValueError):
    """Base class for batch validation failures."""


class InvalidVertexError(GraphError):
    """Vertex id outside [0, n)."""


class MalformedEdgeError(GraphError):
    """Batch item that is not a (u, v) pair."""


class SelfLoopError(GraphError):
    """Edge with equal endpoints."""


class DuplicateEdgeError(GraphError):
    """Edge already present, or repeated within one batch."""


class MissingEdgeError(GraphError):
    """Edge not present where the operation requires it."""


class CycleError(GraphError):
    """Forest link that would close a cycle."""


class BatchConflictError(GraphError):
    """More than one mutation for the same key in a single dictionary batch."""
