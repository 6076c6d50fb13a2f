"""Initial-sample simulation and augmentation strategies.

The initial sample mimics a clustered survey: N strata are fixed by a
dedicated seed, clusters are drawn within them with probability proportional
to size (PPS, without replacement), and up to k points per cluster are
labeled uniformly at random. Augmentation strategies extend a sample under a
monetary budget: status-quo cluster sampling, cheapest-first, uniform random,
and utility-optimized selection. A convenience sampler draws points with
probability concentrated near anchor locations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .data import (
    CostModel,
    Dataset,
    SampleState,
    cluster_cost,
    expected_counts,
    set_cost,
)
from .optimizer import (
    SolveOptions,
    SolveResult,
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
            raise SamplingError("initial_size must be >= 1")


@dataclass(frozen=True)
class ConvenienceConfig:
    anchors: tuple[tuple[float, float], ...]
    temperature: float
    size: int

    def __post_init__(self):
        if not self.anchors:
            raise SamplingError("convenience sampling needs at least one anchor")
        if self.temperature <= 0:
            raise SamplingError("temperature must be positive")
        if self.size < 1:
            raise SamplingError("sample size must be >= 1")


def _labelable_ids(ds: Dataset, cluster_id: str) -> tuple[str, ...]:
    rows = ds.point_rows_by_cluster[cluster_id]
    return tuple(
        ds.point_ids[i] for i in rows if not np.isnan(ds.labels[i])
    )


def _label_in_cluster(
    ds: Dataset, cluster_id: str, k: int, rng: np.random.Generator | None
) -> tuple[str, ...]:
    candidates = _labelable_ids(ds, cluster_id)
    take = min(k, len(candidates))
    if rng is None:
        return candidates[:take]
    perm = rng.permutation(len(candidates))
    return tuple(candidates[i] for i in perm[:take])


def _pps_pop(rng: np.random.Generator, ids: list[str], weights: list[float]) -> str:
    """Draw one id with probability proportional to weight and remove it."""
    w = np.asarray(weights, dtype=np.float64)
    j = int(rng.choice(len(ids), p=w / w.sum()))
    cid = ids.pop(j)
    weights.pop(j)
    return cid


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


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> np.ndarray:
    """Weighted draws without replacement; returns drawn indices."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise SamplingError("weights must be non-negative")
    with np.errstate(divide="ignore"):
        logits = np.log(w)
    return gumbel_topk(rng, logits, size)


def _source_cluster_indices(ds: Dataset) -> list[int]:
    return [
        j
        for j in range(ds.n_clusters)
        if ds.cluster_is_source[j] and _labelable_ids(ds, ds.clusters[j].cluster_id)
    ]


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
    all_sids = [s.stratum_id for s in ds.strata]
    if cfg.n_strata > len(all_sids):
        raise SamplingError(
            f"requested {cfg.n_strata} strata but dataset has {len(all_sids)}"
        )
    strata_rng = np.random.default_rng(cfg.strata_seed)
    chosen = strata_rng.choice(len(all_sids), size=cfg.n_strata, replace=False)
    initial_strata = frozenset(all_sids[i] for i in sorted(chosen))

    cand = [
        j
        for j in _source_cluster_indices(ds)
        if ds.clusters[j].stratum_id in initial_strata
    ]
    reachable = sum(
        min(cfg.k, len(_labelable_ids(ds, ds.clusters[j].cluster_id))) for j in cand
    )
    if reachable < cfg.initial_size:
        raise SamplingError(
            f"target of {cfg.initial_size} labeled points unreachable within the "
            f"chosen strata (at most {reachable})"
        )

    ids = [ds.clusters[j].cluster_id for j in cand]
    weights = [float(ds.clusters[j].size) for j in cand]
    labeled: dict[str, tuple[str, ...]] = {}
    drawn: list[str] = []
    total = 0
    while total < cfg.initial_size:
        cid = _pps_pop(rng, ids, weights)
        pts = _label_in_cluster(ds, cid, cfg.k, rng)
        if not pts:
            continue
        if total + len(pts) > cfg.initial_size:
            pts = pts[: cfg.initial_size - total]
        drawn.append(cid)
        labeled[cid] = pts
        total += len(pts)

    return SampleState(
        initial_cluster_ids=tuple(sorted(drawn)),
        augment_cluster_ids=(),
        labeled_points=labeled,
        k=cfg.k,
        spent=0.0,
        initial_strata=initial_strata,
        lineage=(f"initial:pps(n_strata={cfg.n_strata},k={cfg.k},"
                 f"target={cfg.initial_size},strata_seed={cfg.strata_seed})",),
    )


def _augment_candidates(ds: Dataset, state: SampleState) -> list[int]:
    sampled = set(state.all_cluster_ids())
    return [
        j
        for j in _source_cluster_indices(ds)
        if ds.clusters[j].cluster_id not in sampled
    ]


def _bind(cm: CostModel, state: SampleState, budget: float) -> CostModel:
    if cm.initial_strata is None:
        cm = cm.with_initial_strata(state.initial_strata)
    return cm.with_budget(budget)


def _extend(
    state: SampleState,
    added: list[str],
    labeled: Mapping[str, tuple[str, ...]],
    cost: float,
    tag: str,
    infeasible: bool = False,
) -> SampleState:
    merged = dict(state.labeled_points)
    merged.update(labeled)
    return replace(
        state,
        augment_cluster_ids=tuple(state.augment_cluster_ids) + tuple(sorted(added)),
        labeled_points=merged,
        spent=state.spent + cost,
        infeasible=state.infeasible or infeasible,
        lineage=state.lineage + (tag,),
    )


def default_cluster_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    rng: np.random.Generator,
) -> SampleState:
    """Status-quo augmentation: PPS cluster draws restricted to the initial
    strata until the budget is exhausted. Flagged infeasible when the strata
    run out of clusters while the budget could still buy one."""
    cm = _bind(cm, state, budget)
    rem = remaining_budget(ds, cm, state)
    cand = [
        j
        for j in _augment_candidates(ds, state)
        if ds.clusters[j].stratum_id in state.initial_strata
    ]
    ids = [ds.clusters[j].cluster_id for j in cand]
    weights = [float(ds.clusters[j].size) for j in cand]
    added: list[str] = []
    labeled: dict[str, tuple[str, ...]] = {}
    cost_total = 0.0
    while ids:
        affordable = [
            i for i, cid in enumerate(ids)
            if cluster_cost(cm, ds.cluster(cid)) <= rem
        ]
        if not affordable:
            break
        sub_ids = [ids[i] for i in affordable]
        sub_w = [weights[i] for i in affordable]
        cid = _pps_pop(rng, sub_ids, sub_w)
        i = ids.index(cid)
        ids.pop(i)
        weights.pop(i)
        c = cluster_cost(cm, ds.cluster(cid))
        added.append(cid)
        labeled[cid] = _label_in_cluster(ds, cid, state.k, rng)
        rem -= c
        cost_total += c
    infeasible = not ids and rem >= cm.c1
    return _extend(state, added, labeled, cost_total, "augment:default", infeasible)


def greedy_size_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    rng: np.random.Generator | None = None,
) -> SampleState:
    """Cheapest-first augmentation (ties to larger labelable count, then
    cluster index). With no rng, labels the lexicographically first points."""
    cm = _bind(cm, state, budget)
    rem = remaining_budget(ds, cm, state)
    cand = _augment_candidates(ds, state)
    keyed = sorted(
        cand,
        key=lambda j: (
            cluster_cost(cm, ds.clusters[j]),
            -min(state.k, ds.clusters[j].size),
            j,
        ),
    )
    added: list[str] = []
    labeled: dict[str, tuple[str, ...]] = {}
    cost_total = 0.0
    for j in keyed:
        c = cluster_cost(cm, ds.clusters[j])
        if c > rem:
            break
        cid = ds.clusters[j].cluster_id
        added.append(cid)
        labeled[cid] = _label_in_cluster(ds, cid, state.k, rng)
        rem -= c
        cost_total += c
    return _extend(state, added, labeled, cost_total, "augment:greedy")


def random_cluster_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    rng: np.random.Generator,
) -> SampleState:
    """Uniformly permute all unsampled clusters and add every one that still
    fits the remaining budget."""
    cm = _bind(cm, state, budget)
    rem = remaining_budget(ds, cm, state)
    cand = _augment_candidates(ds, state)
    order = rng.permutation(len(cand))
    added: list[str] = []
    labeled: dict[str, tuple[str, ...]] = {}
    cost_total = 0.0
    for pos in order:
        j = cand[pos]
        c = cluster_cost(cm, ds.clusters[j])
        if c > rem:
            continue
        cid = ds.clusters[j].cluster_id
        added.append(cid)
        labeled[cid] = _label_in_cluster(ds, cid, state.k, rng)
        rem -= c
        cost_total += c
    return _extend(state, added, labeled, cost_total, "augment:random")


def solve_and_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    spec: UtilitySpec,
    opts: SolveOptions | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[SampleState, SolveResult, tuple[str, ...]]:
    """Utility-optimized augmentation: relax, solve, round, label. Returns the
    augmented state with the relaxed solution and the rounded selection."""
    rng = rng if rng is not None else np.random.default_rng(0)
    cm = _bind(cm, state, budget)
    counts = expected_counts(ds, spec.groups, state.k)
    result = solve_relaxation(ds, counts, cm, spec, state, opts)
    rem = remaining_budget(ds, cm, state)
    selected = round_inclusion(ds, result.inclusion, cm, rem, rng)
    labeled = {cid: _label_in_cluster(ds, cid, state.k, rng) for cid in selected}
    cost_total = set_cost(cm, ds, selected)
    tag = f"augment:optimized({spec.kind})"
    return _extend(state, list(selected), labeled, cost_total, tag), result, selected


def optimized_augment(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    spec: UtilitySpec,
    opts: SolveOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SampleState:
    """The augmented state of :func:`solve_and_augment`."""
    return solve_and_augment(ds, state, cm, budget, spec, opts, rng)[0]


def convenience_sample(
    ds: Dataset, cfg: ConvenienceConfig, rng: np.random.Generator
) -> SampleState:
    """Point-level convenience sample concentrated near the anchors.

    Per-point weight is a softmax over the negative max-min-normalized
    distance to the nearest anchor; points are drawn without replacement."""
    cand = np.flatnonzero(ds.train_mask & ds.labeled_mask)
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
    """Uniform point-level sample over the source set, without replacement."""
    cand = np.flatnonzero(ds.train_mask & ds.labeled_mask)
    if size > len(cand):
        raise SamplingError(f"requested {size} points but only {len(cand)} are available")
    picks = cand[rng.choice(len(cand), size=size, replace=False)]
    return _point_sample_state(ds, picks, "random-points")


def _point_sample_state(ds: Dataset, rows: np.ndarray, tag: str) -> SampleState:
    labeled: dict[str, list[str]] = {}
    for i in rows:
        labeled.setdefault(ds.point_cluster[i], []).append(ds.point_ids[i])
    clusters = tuple(sorted(labeled))
    strata = frozenset(ds.stratum_of_cluster(cid) for cid in clusters)
    return SampleState(
        initial_cluster_ids=clusters,
        augment_cluster_ids=(),
        labeled_points={cid: tuple(sorted(pids)) for cid, pids in labeled.items()},
        k=int(ds.cluster_sizes.max()),
        spent=0.0,
        initial_strata=strata,
        lineage=(tag,),
    )
