"""Deterministic simulator and verification harness for wait-free coloring
protocols on asynchronous, crash-prone cycles and bounded-degree graphs."""

from .cointoss import cv_reduce, logstar_steps
from .engine import (
    Execution,
    StepRecord,
    Trace,
    TraceHeader,
    default_horizon,
    new_execution,
    read_trace,
    run,
    write_trace,
)
from .model import (
    Graph,
    IdAssignment,
    cycle,
    explicit_ids,
    monotone_chain_ids,
    proper_coloring_ids,
    random_connected_graph,
    random_unique_ids,
)
from .protocols import (
    ACTIVATE,
    Continue,
    Decision,
    INFINITE,
    ProtocolState,
    Return,
    deltasq_activate,
    fast5_activate,
    initial_state,
    mex,
    slow5_activate,
    slow6_activate,
)
from .schedulers import (
    Scheduler,
    exhaustive_check,
    make_scheduler,
    parse_descriptor,
    worst_case_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
