"""Model-order reduction from partial observations.

Build reduced spaces for a solution manifold that is only known through (a) a
degenerate-ellipsoid prior — or an intersection of several — and (b) finitely
many linear observations per state.  The package characterizes the set of
states consistent with both, samples it, reduces the samples greedily,
provides the deterministic point-estimate baseline, and evaluates matching
Kolmogorov-width bounds.
"""

from .bases import DecomposedVector, SuitableBases, compute_suitable_bases, decompose
from .bounds import (
    INF,
    BoundCurve,
    empirical_width,
    format_extended,
    posterior_width_bounds,
    proof_subspace,
    width_degenerate_ellipsoid,
)
from .errors import (
    ConfigError,
    ContractViolation,
    EmptySliceError,
    InfeasibleGeometry,
    PartialSampleWarning,
    UnsupportedPriorError,
)
from .estimate import estimate_manifold, point_estimate
from .experiment import (
    CurveRecord,
    ExperimentResult,
    RunConfig,
    run_experiment,
    synthetic_defaults,
    thermal_defaults,
)
from .geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    direct_sum,
    dist,
    ellipsoid_contains,
    orthonormalize,
    prior_contains,
    project,
)
from .greedy import GreedyResult, StoppingRule, greedy
from .rng import derived_rng, derived_seed
from .sampling import (
    EllipsoidSlice,
    MultiSliceResult,
    Observation,
    PiDistribution,
    build_slice,
    observe,
    observe_cloud,
    sample_posterior,
    sample_slice,
    sample_slice_multi,
    union_set_contains,
)
from .thermal import ThermalBlockModel
from .worlds import (
    SyntheticWorld,
    ThermalWorld,
    build_synthetic_world,
    build_thermal_world,
    check_nested_prior,
    nested_prior,
    random_subspace,
    uniform_ball,
)

__version__ = "0.1.0"
