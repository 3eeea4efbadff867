"""Cost-minimizing power sector dispatch and investment model.

The package builds an hourly linear program from plain-data system
descriptions, sweeps scenario tables against one compiled instance (or many,
in parallel), and post-processes the results as dimension-labeled symbols.
"""

from .system import (
    FeatureMatrix,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
)
from .model import LinearProgram, apply_dispatch_only, assemble_objective, build_model
from .solver import (
    Delta,
    ModelInstance,
    Solution,
    certify,
    compile,
    solve,
    update_and_resolve,
)
from .scenarios import ScenarioSpec, SymbolRef, expand_overrides, parse_iteration_table, parse_symbol_ref
from .sweep import RunResult, run_scenarios
from .store import SymbolStore, extract_symbols, read_store, write_store
from .symbols import Symbol, SymbolsHandler, aggregate, binop

__all__ = [
    "Delta",
    "FeatureMatrix",
    "Line",
    "LinearProgram",
    "ModelConfig",
    "ModelInstance",
    "Node",
    "RunResult",
    "ScenarioSpec",
    "Solution",
    "StorageTech",
    "Symbol",
    "SymbolRef",
    "SymbolStore",
    "SymbolsHandler",
    "SystemData",
    "Technology",
    "TimeSeries",
    "ValidationError",
    "aggregate",
    "apply_dispatch_only",
    "assemble_objective",
    "binop",
    "build_model",
    "certify",
    "compile",
    "expand_overrides",
    "extract_symbols",
    "parse_iteration_table",
    "parse_symbol_ref",
    "read_store",
    "run_scenarios",
    "solve",
    "update_and_resolve",
    "write_store",
]

__version__ = "0.1.0"
