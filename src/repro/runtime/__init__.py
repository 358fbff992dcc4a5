"""The VM substrate: simulated heap, cache simulator, cost model, interpreter."""

from .builtins import BuiltinError, call_builtin
from .cache import CacheConfig, CacheSimulator, CacheStats, LabelStats, LocalityStats
from .costmodel import CostModel, ExecutionStats
from .heap import ARRAY_HEADER, Heap, HeapError, HeapStats, OBJECT_HEADER, SLOT_SIZE
from .interp import (
    MAX_CALL_DEPTH,
    CallDepthExceeded,
    HeapLimitExceeded,
    Interpreter,
    ReproRuntimeError,
    ResourceLimitError,
    RunResult,
    StepLimitExceeded,
    run_program,
)
from .profiler import CallableProfile, ProfileReport, ProfilingInterpreter, profile_program
from .values import ArrayRef, ObjectRef, Value, ViewRef, format_value, is_truthy

__all__ = [
    "ARRAY_HEADER",
    "ArrayRef",
    "BuiltinError",
    "CacheConfig",
    "CacheSimulator",
    "CacheStats",
    "CallableProfile",
    "CallDepthExceeded",
    "profile_program",
    "ProfileReport",
    "ProfilingInterpreter",
    "call_builtin",
    "CostModel",
    "ExecutionStats",
    "format_value",
    "Heap",
    "HeapError",
    "HeapLimitExceeded",
    "HeapStats",
    "Interpreter",
    "is_truthy",
    "LabelStats",
    "LocalityStats",
    "MAX_CALL_DEPTH",
    "OBJECT_HEADER",
    "ObjectRef",
    "ReproRuntimeError",
    "ResourceLimitError",
    "RunResult",
    "run_program",
    "SLOT_SIZE",
    "StepLimitExceeded",
    "Value",
    "ViewRef",
]
