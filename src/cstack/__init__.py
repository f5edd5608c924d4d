"""Space-bounded stack for one-pass stack algorithms.

The package pairs a classic in-memory stack with a drop-in replacement that
keeps only O(p log_p n) entries resident and rebuilds folded regions by
replaying the algorithm's own hooks over the input.  A runner executes
hook-defined algorithms against either stack, two sample problems and three
input generators are included, and a CLI benchmarks time and memory across
sizes and space parameters.
"""

from .checker import DivergenceError, TwinStack, run_checked
from .core import (
    AccountingError,
    ClassicStack,
    ContractError,
    Data,
    DeterminismError,
    EmptyStackError,
    StackError,
    StackInterface,
)
from .compressed import BlockSignature, CompressedStack, PartitionGeometry
from .generators import GenSpec, generate
from .metrics import MemoryMeter, RunMetrics, resolve_p
from .problems import Point2D, TestRun, UpperHull, orientation
from .runner import LineSource, ParseError, Runner, RunResult, StackAlgorithm

__all__ = [
    "AccountingError",
    "BlockSignature",
    "ClassicStack",
    "CompressedStack",
    "ContractError",
    "Data",
    "DeterminismError",
    "DivergenceError",
    "EmptyStackError",
    "GenSpec",
    "LineSource",
    "MemoryMeter",
    "ParseError",
    "PartitionGeometry",
    "Point2D",
    "Runner",
    "RunResult",
    "RunMetrics",
    "StackAlgorithm",
    "StackError",
    "StackInterface",
    "TestRun",
    "TwinStack",
    "UpperHull",
    "generate",
    "orientation",
    "resolve_p",
    "run_checked",
]
