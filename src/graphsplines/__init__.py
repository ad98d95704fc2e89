"""Polyharmonic spline interpolation and Lagrange bases on finite weighted graphs."""

__version__ = "0.1.0"

from . import errors
from .diagnostics import (
    DecayFit,
    DecayProfile,
    MLCoverReport,
    ZerosLemmaReport,
    bulk_ratio,
    cycle_cover_constant,
    decay_profile,
    decay_scale,
    fit_exponential_decay,
    ml_cover_constant,
    zeros_bound_ratio,
    zeros_lemma_check,
)
from .graphs import (
    GraphMetrics,
    WeightedGraph,
    ball,
    build_graph,
    complement,
    cycle_graph,
    fill_distance,
    graph_metrics,
    knn_graph,
    lattice_graph,
    random_connected_graph,
)
from .interpolation import (
    Interpolant,
    InterpolationProblem,
    LagrangeBasis,
    dirichlet_lagrange,
    evaluate,
    lagrange_basis,
    local_lagrange,
    native_semi_inner_product,
    solve_interpolant,
    spline_regress,
    truncated_lagrange,
)
from .ml import (
    CVConfig,
    Dataset,
    RegressionReport,
    cross_validate,
    load_dataset,
    normalize,
    smoothness_experiment,
    wendland_bump,
)
from .spectral import (
    KernelMatrix,
    LaplacianKind,
    SpectralDecomposition,
    decompose_graph,
    dirichlet_eigenvalue,
    eigendecompose,
    laplacian,
    laplacian_power,
    pseudo_inverse_power,
    sobolev_seminorm,
)
