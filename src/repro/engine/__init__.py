"""Engine façade: Database + the three engine APIs with accounting,
fault injection and the resilience layer."""

from .api import (
    ApiAccounting,
    EngineAPI,
    EngineCounters,
    EngineWrapper,
    ResilienceCounters,
)
from .database import Database
from .faults import (
    EngineFault,
    EngineTimeoutError,
    FaultConfig,
    FaultInjector,
    FaultProfile,
    NoisyEngine,
    TransientEngineError,
)
from .resilience import (
    BreakerState,
    CircuitBreaker,
    OptimizeUnavailableError,
    ResiliencePolicy,
    ResilientEngineAPI,
    RetryPolicy,
    SelectivityUnavailableError,
    resilient_engine_factory,
)

__all__ = [
    "ApiAccounting",
    "BreakerState",
    "CircuitBreaker",
    "Database",
    "EngineAPI",
    "EngineCounters",
    "EngineFault",
    "EngineTimeoutError",
    "EngineWrapper",
    "FaultConfig",
    "FaultInjector",
    "FaultProfile",
    "NoisyEngine",
    "OptimizeUnavailableError",
    "ResilienceCounters",
    "ResiliencePolicy",
    "ResilientEngineAPI",
    "RetryPolicy",
    "SelectivityUnavailableError",
    "TransientEngineError",
    "resilient_engine_factory",
]
