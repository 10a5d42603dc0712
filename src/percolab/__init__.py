"""percolab: a laboratory for supercritical bond percolation on Z^d.

Core objects: seeded bond configurations on finite boxes, chemical-distance
balls, space-time cut-point events with configuration surgery, macroscopic
good/bad block analysis, exact combinatorial constructions, and Monte Carlo
estimators for the distance constant and event decay rates.
"""

__version__ = "0.1.0"  # before the imports: harness records it in manifests

from .cutpoints import (
    CutPointRecord,
    EventGrid,
    EventOutcome,
    EventResult,
    SurgeryPlan,
    apply_surgery,
    detect_cutpoints,
    event_A,
    event_A_free,
    force_cutpoint,
    line_count,
)
from .combinatorics import (
    ExteriorBoundary,
    ParallelGeometry,
    PathBundle,
    PerpendicularGeometry,
    PointSet,
    SeparatedMatching,
    axis_avoiding_paths,
    count_lattice_animals,
    disjoint_path_bundle,
    distinct_coordinate_subset,
    exterior_boundary,
    isoperimetry_holds,
    projection_best,
    segment_distance,
    separated_matching,
    staircase_path,
)
from .errors import PercolabError
from .estimators import (
    JEstimate,
    RateEstimate,
    RateSurface,
    Tally,
    estimate_J,
    estimate_mu,
    estimate_rate_surface,
    upper_tail_vs_cutpoint_experiment,
    wilson_interval,
)
from .harness import cli_dispatch, main
from .lattice import (
    BoxSpec,
    PercolationSample,
    sample_configuration,
)
from .metric import (
    BallGrowth,
    constrained_distance,
    geodesic,
    grow_ball,
)
from .renorm import (
    MacroClassification,
    MacroLattice,
    classify_boxes,
    dependency_range,
    route_through_good,
    slab_experiment,
)
