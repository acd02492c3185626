"""The paper's contribution: the SCR online PQO technique."""

from .bounds import (
    BoundingFunction,
    LINEAR_BOUND,
    QUADRATIC_BOUND,
    adversarial_corner,
    compute_g,
    compute_gl,
    compute_l,
    cost_bounds,
    recost_suboptimality_bound,
    suboptimality_bound,
)
from .dynamic_lambda import DynamicLambda
from .get_plan import (
    CandidateOrder,
    CheckKind,
    CheckMode,
    GetPlan,
    GetPlanDecision,
    certificate_kind,
)
from .manage_cache import (
    EvictionPolicy,
    ManageCache,
    ManageCacheStats,
    default_lambda_r,
)
from .coverage import CoverageReport, sample_coverage
from .persistence import (
    CacheCorruptionError,
    CacheSnapshot,
    dump_cache,
    load_cache,
)
from .seeding import SeedingReport, grid_points, random_points, seed_cache
from .plan_cache import CachedPlan, InstanceEntry, PlanCache
from .regions import RecostRegion, SelectivityRegion
from .scr import SCR
from .technique import OnlinePQOTechnique, PlanChoice
from .violations import ViolationDetector, ViolationReport

__all__ = [
    "BoundingFunction",
    "CandidateOrder",
    "EvictionPolicy",
    "CacheCorruptionError",
    "CacheSnapshot",
    "CoverageReport",
    "sample_coverage",
    "dump_cache",
    "load_cache",
    "SeedingReport",
    "grid_points",
    "random_points",
    "seed_cache",
    "CachedPlan",
    "CheckKind",
    "CheckMode",
    "DynamicLambda",
    "GetPlan",
    "GetPlanDecision",
    "InstanceEntry",
    "LINEAR_BOUND",
    "ManageCache",
    "ManageCacheStats",
    "OnlinePQOTechnique",
    "PlanCache",
    "PlanChoice",
    "QUADRATIC_BOUND",
    "RecostRegion",
    "SCR",
    "SelectivityRegion",
    "ViolationDetector",
    "ViolationReport",
    "adversarial_corner",
    "certificate_kind",
    "compute_g",
    "compute_gl",
    "compute_l",
    "cost_bounds",
    "default_lambda_r",
    "recost_suboptimality_bound",
    "suboptimality_bound",
]
