"""The HYBRID network model substrate (Augustine et al. SODA'20, Section 1 of the paper).

Exports the simulation engine (:class:`HybridNetwork`) and its global
exchange schedule (:class:`ExchangeSchedule`), its configuration
(:class:`ModelConfig`), the accounting object (:class:`RoundMetrics`) and the
engine's exception types.
"""

from repro.hybrid.batch import MessageBatch
from repro.hybrid.config import ModelConfig
from repro.hybrid.errors import (
    CapacityExceededError,
    FaultToleranceExceededError,
    HybridModelError,
    ProtocolError,
    StaleContextError,
)
from repro.hybrid.faults import FaultModel
from repro.hybrid.metrics import PhaseBreakdown, RoundMetrics
from repro.hybrid.network import ExchangeSchedule, HybridNetwork

__all__ = [
    "ModelConfig",
    "HybridNetwork",
    "ExchangeSchedule",
    "MessageBatch",
    "RoundMetrics",
    "PhaseBreakdown",
    "FaultModel",
    "CapacityExceededError",
    "FaultToleranceExceededError",
    "HybridModelError",
    "ProtocolError",
    "StaleContextError",
]
