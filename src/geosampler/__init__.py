"""Budget-aware selection of spatial sampling units for training-set augmentation."""

from .data import (
    Cluster,
    CostModel,
    Dataset,
    DatasetError,
    ExpectedCounts,
    SampleState,
    cluster_cost,
    expected_counts,
    load_dataset,
    load_sample_state,
    save_dataset,
    save_sample_state,
    set_cost,
)
from .groups import GroupModel, admin_groups, auxiliary_kmeans_groups, feature_kmeans_groups
from .learner import (
    KMeansResult,
    RidgeModel,
    evaluate_sample,
    kmeans_groups,
    predict,
    r2_score,
    ridge_fit_cv,
    spearman_rho,
)
from .optimizer import (
    InfeasibleError,
    SolveOptions,
    SolveResult,
    lmo_knapsack,
    round_inclusion,
    solve_relaxation,
)
from .samplers import (
    ConvenienceConfig,
    SamplerConfig,
    convenience_sample,
    default_cluster_augment,
    draw_initial_sample,
    greedy_size_augment,
    optimized_augment,
    random_cluster_augment,
    random_point_sample,
)
from .synth import SynthConfig, generate
from .utility import (
    InclusionVector,
    UtilitySpec,
    utility_of_sample,
    utility_value,
)

__version__ = "0.1.0"
