"""Initial-sample simulation and augmentation strategies.

The initial sample mimics a clustered survey: N strata are fixed by a
dedicated seed, clusters are drawn within them with probability proportional
to size (PPS, without replacement), and up to k points per cluster are
labeled uniformly at random. Augmentation strategies extend a sample under
the budget of its cost model (``cm.budget``): status-quo cluster sampling,
cheapest-first, uniform random, and utility-optimized selection. Each takes
``(ds, state, cm, rng)``, the optimized ones a utility spec before the rng.
A convenience sampler draws points with probability concentrated near
anchor locations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import (
    CostModel,
    Dataset,
    SampleState,
    cluster_costs,
    expected_counts,
    set_cost,
)
from .optimizer import (
    SolveOptions,
    SolveResult,
    affordable_prefix,
    bind_costs,
    remaining_budget,
    round_inclusion,
    solve_relaxation,
)
from .utility import UtilitySpec


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    n_strata: int
    k: int
    initial_size: int       # target number of labeled points
    strata_seed: int = 0

    def __post_init__(self):
        if self.n_strata < 1:
            raise SamplingError("n_strata must be >= 1")
        if self.k < 1:
            raise SamplingError("k must be >= 1")
        if self.initial_size < 1:
            raise SamplingError(f"initial_size must be >= 1, got {self.initial_size}")


@dataclass(frozen=True)
class ConvenienceConfig:
    anchors: tuple[tuple[float, float], ...]
    temperature: float
    size: int

    def __post_init__(self):
        if not self.anchors:
            raise SamplingError("convenience sampling needs at least one anchor")
        if not (self.temperature > 0):
            raise SamplingError("temperature must be positive")
        if self.size < 1:
            raise SamplingError("sample size must be >= 1")


def _label_in_cluster(ds: Dataset, j: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of up to k points of source cluster j (all labeled), drawn
    uniformly without replacement."""
    rows = ds.rows_of_cluster(j)
    return rows[rng.permutation(len(rows))[:k]]


def _by_cluster(picks: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The drawn clusters ascending, and their labeled rows concatenated in that order."""
    clusters = np.array(sorted(picks), dtype=np.int64)
    return clusters, np.concatenate([np.empty(0, dtype=np.int64)] + [picks[j] for j in clusters])


def _pps_draw(rng: np.random.Generator, ds: Dataset, ids: np.ndarray) -> int:
    """Draw one of the clusters ``ids`` with probability proportional to size."""
    w = ds.cluster_sizes[ids].astype(np.float64)
    return int(ids[rng.choice(len(ids), p=w / w.sum())])


def gumbel_topk(rng: np.random.Generator, logits: np.ndarray, size: int) -> np.ndarray:
    """Draw `size` indices without replacement, proportional to exp(logits).

    Perturbing logits with Gumbel noise and taking the top entries realizes
    exactly the successive-sampling distribution (draw proportional to the
    remaining weights, remove, repeat) while staying safe in log space for
    extreme weight ratios.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if size > len(logits):
        raise SamplingError(f"cannot draw {size} from population of {len(logits)}")
    finite = np.isfinite(logits)
    if int(finite.sum()) < size:
        raise SamplingError(
            f"only {int(finite.sum())} entries have positive weight, need {size}"
        )
    keys = np.where(finite, logits + rng.gumbel(size=len(logits)), -np.inf)
    order = np.argsort(-keys, kind="stable")
    return order[:size]


def draw_initial_sample(
    ds: Dataset, cfg: SamplerConfig, rng: np.random.Generator
) -> SampleState:
    """Draw the initial clustered sample.

    Strata are chosen uniformly without replacement under the dedicated
    strata seed, so reruns with a different cluster rng resample clusters
    within the same strata. Cluster draws are PPS without replacement and
    stop at the first draw that meets the labeled-point target; the final
    cluster's labeled points are trimmed to hit the target exactly.
    """
    n_strata = len(ds.stratum_ids)
    if cfg.n_strata > n_strata:
        raise SamplingError(
            f"requested {cfg.n_strata} strata but dataset has {n_strata}"
        )
    strata_rng = np.random.default_rng(cfg.strata_seed)
    chosen = strata_rng.choice(n_strata, size=cfg.n_strata, replace=False)
    initial_strata = frozenset(ds.stratum_ids[i] for i in sorted(chosen))

    in_initial = ds.stratum_flags(initial_strata)[ds.cluster_stratum]
    cand = np.flatnonzero(ds.cluster_is_source & in_initial)
    reachable = int(np.minimum(cfg.k, ds.cluster_sizes[cand]).sum())
    if reachable < cfg.initial_size:
        raise SamplingError(
            f"target of {cfg.initial_size} labeled points unreachable within the "
            f"chosen strata (at most {reachable})"
        )

    picks: dict[int, np.ndarray] = {}
    total = 0
    while total < cfg.initial_size:
        j = _pps_draw(rng, ds, cand)
        cand = cand[cand != j]
        picks[j] = _label_in_cluster(ds, j, cfg.k, rng)[: cfg.initial_size - total]
        total += len(picks[j])

    initial, labeled = _by_cluster(picks)
    return SampleState(
        initial=initial,
        augment=(),
        labeled=labeled,
        k=cfg.k,
        spent=0.0,
        initial_strata=initial_strata,
        lineage=(f"initial:pps(n_strata={cfg.n_strata},k={cfg.k},"
                 f"target={cfg.initial_size},strata_seed={cfg.strata_seed})",),
    )


def _priced(
    ds: Dataset, state: SampleState, cm: CostModel
) -> tuple[CostModel, np.ndarray, float, np.ndarray]:
    """The cost model priced by the sample's strata, every cluster's cost, the
    budget left, and the unsampled source clusters ascending."""
    cm = bind_costs(cm, state)
    available = ds.cluster_is_source.copy()
    available[state.clusters] = False
    return cm, cluster_costs(cm, ds), remaining_budget(ds, cm, state), np.flatnonzero(available)


def _extend(
    ds: Dataset,
    cm: CostModel,
    state: SampleState,
    picks: dict[int, np.ndarray],
    tag: str,
    infeasible: bool = False,
) -> SampleState:
    """``state`` plus one augmentation step; ``picks`` maps each cluster drawn,
    in draw order, to its labeled rows. Costs are added in draw order."""
    added, labeled = _by_cluster(picks)
    return replace(
        state,
        augment=np.concatenate((state.augment, added)),
        labeled=np.concatenate((state.labeled, labeled)),
        spent=state.spent + set_cost(cm, ds, list(picks)),
        infeasible=state.infeasible or infeasible,
        lineage=state.lineage + (tag,),
    )


def default_cluster_augment(
    ds: Dataset, state: SampleState, cm: CostModel, rng: np.random.Generator
) -> SampleState:
    """Status-quo augmentation: PPS cluster draws restricted to the initial
    strata until the budget is exhausted. Flagged infeasible when the strata
    run out of clusters while the budget could still buy one."""
    cm, costs, rem, cand = _priced(ds, state, cm)
    ids = cand[ds.stratum_flags(state.initial_strata)[ds.cluster_stratum[cand]]]
    picks: dict[int, np.ndarray] = {}
    while ids.size:
        affordable = ids[costs[ids] <= rem]
        if not affordable.size:
            break
        j = _pps_draw(rng, ds, affordable)
        ids = ids[ids != j]
        picks[j] = _label_in_cluster(ds, j, state.k, rng)
        rem -= float(costs[j])
    infeasible = not ids.size and rem >= cm.c1
    return _extend(ds, cm, state, picks, "augment:default", infeasible)


def greedy_size_augment(
    ds: Dataset, state: SampleState, cm: CostModel, rng: np.random.Generator
) -> SampleState:
    """Cheapest-first augmentation (ties to larger ``min(k, size)``, then
    cluster index); ``rng`` draws only the labeled points."""
    cm, costs, rem, cand = _priced(ds, state, cm)
    keyed = cand[np.lexsort((cand, -np.minimum(state.k, ds.cluster_sizes[cand]), costs[cand]))]
    k, _ = affordable_prefix(costs[keyed], rem)
    picks = {j: _label_in_cluster(ds, j, state.k, rng) for j in keyed[:k]}
    return _extend(ds, cm, state, picks, "augment:greedy")


def random_cluster_augment(
    ds: Dataset, state: SampleState, cm: CostModel, rng: np.random.Generator
) -> SampleState:
    """Uniformly permute all unsampled clusters and add every one that still
    fits the remaining budget."""
    cm, costs, rem, cand = _priced(ds, state, cm)
    drawn: list[int] = []
    for j in cand[rng.permutation(len(cand))]:
        if costs[j] <= rem:
            drawn.append(j)
            rem -= float(costs[j])
    picks = {j: _label_in_cluster(ds, j, state.k, rng) for j in drawn}
    return _extend(ds, cm, state, picks, "augment:random")


def solve_and_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    spec: UtilitySpec,
    rng: np.random.Generator,
    opts: SolveOptions | None = None,
) -> tuple[SampleState, SolveResult, tuple[str, ...]]:
    """Utility-optimized augmentation: relax, solve, round, label. Returns the
    augmented state with the relaxed solution and the rounded selection."""
    cm, _, rem, _ = _priced(ds, state, cm)
    counts = expected_counts(ds, spec.groups, state.k)
    result = solve_relaxation(ds, counts, cm, spec, state, opts)
    selected = round_inclusion(ds, result.inclusion, cm, rem, rng)
    # round_inclusion returns ids for its callers outside the package
    picks = {j: _label_in_cluster(ds, j, state.k, rng) for j in ds.cluster_indices(selected)}
    augmented = _extend(ds, cm, state, picks, f"augment:optimized({spec.kind})")
    return augmented, result, selected


def optimized_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    spec: UtilitySpec,
    rng: np.random.Generator,
    opts: SolveOptions | None = None,
) -> SampleState:
    """The augmented state of :func:`solve_and_augment`."""
    return solve_and_augment(ds, state, cm, spec, rng, opts)[0]


def convenience_sample(
    ds: Dataset, cfg: ConvenienceConfig, rng: np.random.Generator
) -> SampleState:
    """Point-level convenience sample concentrated near the anchors.

    Candidates are the points of source clusters, the clusters the cluster
    samplers draw from. Per-point weight is a softmax over the negative
    max-min-normalized distance to the nearest anchor; points are drawn
    without replacement."""
    cand = np.flatnonzero(ds.cluster_is_source[ds.point_cluster])
    if cfg.size > len(cand):
        raise SamplingError(
            f"requested {cfg.size} points but only {len(cand)} are available"
        )
    anchors = np.asarray(cfg.anchors, dtype=np.float64)
    diffs = ds.coords[cand][:, None, :] - anchors[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)
    span = dist.max() - dist.min()
    norm = (dist - dist.min()) / span if span > 0 else np.zeros_like(dist)
    # softmax weights enter through their logits so extreme temperatures
    # cannot underflow
    picks = cand[gumbel_topk(rng, -norm / cfg.temperature, cfg.size)]
    return _point_sample_state(ds, picks, f"convenience(tau={cfg.temperature})")


def random_point_sample(
    ds: Dataset, size: int, rng: np.random.Generator
) -> SampleState:
    """Uniform point-level sample over the points of source clusters, without
    replacement."""
    cand = np.flatnonzero(ds.cluster_is_source[ds.point_cluster])
    if size > len(cand):
        raise SamplingError(f"requested {size} points but only {len(cand)} are available")
    picks = cand[rng.choice(len(cand), size=size, replace=False)]
    return _point_sample_state(ds, picks, "random-points")


def _point_sample_state(ds: Dataset, rows: np.ndarray, tag: str) -> SampleState:
    """A point-level sample as a state: its clusters and their rows ascending."""
    owner = ds.point_cluster[rows]
    clusters = np.flatnonzero(np.bincount(owner, minlength=ds.n_clusters))
    strata = frozenset(ds.stratum_ids[s] for s in ds.cluster_stratum[clusters])
    return SampleState(
        initial=clusters,
        augment=(),
        labeled=rows[np.lexsort((rows, owner))],
        k=int(ds.cluster_sizes.max()),
        spent=0.0,
        initial_strata=strata,
        lineage=(tag,),
    )
