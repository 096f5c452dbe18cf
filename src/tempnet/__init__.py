"""Temporal-graph analysis toolkit: journeys, closures, classes, windows."""

from .errors import ContractError, InputError, RangeError
from .core import (
    Discretization,
    Edge,
    IntervalGraph,
    SnapshotSequence,
    StaticGraph,
    TemporalGraph,
    Time,
    TraceStats,
    as_time,
    characteristic_dates,
    discretize,
    edge,
    footprint,
    intersection_graph,
    lifetime,
    snapshot_at,
    stats,
    supports_hop,
    temporal_subgraph,
    to_intervals,
    to_snapshots,
)
from .journeys import (
    Journey,
    ReachabilityTable,
    earliest_arrival,
    eccentricity,
    fastest_journey,
    foremost_tree_intervals,
    latest_departure,
    max_disjoint_journeys,
    min_temporal_separator,
    shortest_journey,
    steady_progress_alpha,
    temporal_diameter_at,
    temporal_distance,
    validate_journey,
)
from .closure import (
    Closure,
    RoundTripClosure,
    concat_roundtrip,
    is_roundtrip_connected,
    maximal_temporal_components,
    nonstrict_closure,
    roundtrip_closure,
    roundtrip_lift,
    semaphore_transform,
    strict_closure,
)
from .classes import (
    ClassReport,
    bounded_realization_delta,
    classify,
    find_robust_mis,
    finite_class_membership,
    is_robust_mis,
    smallest_period,
    verify_covering,
)
from .hierarchy import (
    DecideResult,
    HierarchyResult,
    IncrementalDecide,
    WindowAlgebra,
    decide,
    extremal,
    footprint_realization,
    rt_tdiameter,
    tdiameter,
    tinterval,
)
from .windows import WindowSeries, sliding_metric
from . import io, relabel, simforest

__version__ = "0.1.0"
