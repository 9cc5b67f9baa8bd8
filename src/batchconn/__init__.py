"""Batch-dynamic graph connectivity over a level structure of Euler tour forests."""

from .adjstore import AdjacencyStore
from .connectivity import AuditReport, EdgeRecord, LevelStructure, WorkCounters
from .errors import (
    BatchConflictError,
    CycleError,
    DuplicateEdgeError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
    SelfLoopError,
)
from .etforest import EulerTourForest
from .oracle import OracleGraph
from .primitives import BatchDictionary, semisort, spanning_forest
from .workload import ScriptError, WorkloadScript, generate, parse_script

__all__ = [
    "AdjacencyStore",
    "AuditReport",
    "BatchConflictError",
    "BatchDictionary",
    "CycleError",
    "DuplicateEdgeError",
    "EdgeRecord",
    "EulerTourForest",
    "GraphError",
    "InvalidVertexError",
    "LevelStructure",
    "MalformedEdgeError",
    "MissingEdgeError",
    "OracleGraph",
    "ScriptError",
    "SelfLoopError",
    "WorkCounters",
    "WorkloadScript",
    "generate",
    "parse_script",
    "semisort",
    "spanning_forest",
]

__version__ = "0.1.0"
