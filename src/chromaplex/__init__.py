"""Random models on edge-colored bipartite graphs and ribbon maps, their
combinatorial-topological observables, and a Monte Carlo verification
harness with exact small-instance oracles."""

from .perm import (
    Permutation,
    sample_fixed_point_free_involution,
    sample_uniform_permutation,
)
from .colored_graph import (
    Bubble,
    ColoredGraph,
    JacketSpec,
    build,
    bubble_census,
    bubbles,
    component_count,
    gurau_degree_via_faces,
    gurau_degree_via_jackets,
    is_connected,
    jacket_faces,
)
from .models import (
    BaseGraph,
    QuarticWitness,
    RibbonMap,
    ribbon_genus,
    ribbon_trim,
    sample_quartic_model,
    sample_ribbon_map,
    sample_uncolored_model,
    sample_uniform_model,
)
from .dual_complex import DualComplex, build_dual_complex, distance
from .config_digraph import (
    CycleCensus,
    Digraph,
    ModelConstants,
    analyze,
    model_constants,
    quartic_constants,
    quotient_digraph,
    sample_directed_config_model,
)
from .predictions import Prediction, harmonic, harmonic_var, predict
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ks_normality,
    run,
    substream,
)
from .oracles import exhaustive_oracle, exhaustive_ribbon_oracle

__version__ = "0.1.0"
