"""rotatlas: exact partition of the rotation-parameter interval (-2,2).

For an integer initial pair, every rational parameter in (-2,2) drives a
round-off rotation on the integer lattice; the parameters sharing one
periodic cycle form an exact rational interval, and finitely many such
intervals plus an explicit infinite tail near -2 cover the whole range.
This package computes, verifies and renders those partitions with exact
rational arithmetic end to end.
"""

from .certificate import PartitionAtlas, VerificationReport
from .constraints import interval_for_cycle
from .dynamics import DEFAULT_ORBIT_CAP, OrbitResult, ParamSpec, detect_cycle
from .intervals import Interval, parse_rational
from .partition import BudgetExceeded, MarchError, compute_atlas, sweep, verify_atlas
from .report import PointSummary, ShellStats, SweepReport, summarize_atlas
from .tail import (
    Label,
    TailDescription,
    label_of,
    tail_of,
    triangular,
    triangular_cycle,
    z_interval,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORBIT_CAP",
    "BudgetExceeded",
    "Interval",
    "Label",
    "MarchError",
    "OrbitResult",
    "ParamSpec",
    "PartitionAtlas",
    "PointSummary",
    "ShellStats",
    "SweepReport",
    "TailDescription",
    "VerificationReport",
    "compute_atlas",
    "detect_cycle",
    "interval_for_cycle",
    "label_of",
    "parse_rational",
    "summarize_atlas",
    "sweep",
    "tail_of",
    "triangular",
    "triangular_cycle",
    "verify_atlas",
    "z_interval",
]
