"""percolab: a laboratory for supercritical bond percolation on Z^d.

Core objects: seeded bond configurations on finite boxes, chemical-distance
balls, space-time cut-point events with configuration surgery, macroscopic
good/bad block analysis, and Monte Carlo estimators for the distance
constant and event decay rates.

The library of exact combinatorial constructions behind the paper's lemmas
is not re-exported here: import it as ``percolab.combinatorics``. Only the
``lemma-check`` command loads it.
"""

__version__ = "0.1.0"  # before the imports: harness records it in manifests

from .cutpoints import (
    CutPointRecord,
    EventGrid,
    EventOutcome,
    EventResult,
    apply_surgery,
    detect_cutpoints,
    event_A,
    event_A_free,
    force_cutpoint,
    line_count,
)
from .errors import PercolabError
from .estimators import (
    JEstimate,
    RateEstimate,
    Tally,
    estimate_J,
    estimate_mu,
    scan_rates,
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
