"""Batch-dynamic graph connectivity over a level structure of Euler tour forests."""

from .connectivity import LevelStructure
from .errors import (
    DuplicateEdgeError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
    SelfLoopError,
)
from .oracle import OracleGraph
from .workload import ScriptError, WorkloadScript, generate, parse_script

__all__ = [
    "DuplicateEdgeError",
    "GraphError",
    "InvalidVertexError",
    "LevelStructure",
    "MalformedEdgeError",
    "MissingEdgeError",
    "OracleGraph",
    "ScriptError",
    "SelfLoopError",
    "WorkloadScript",
    "generate",
    "parse_script",
]

__version__ = "0.1.0"
