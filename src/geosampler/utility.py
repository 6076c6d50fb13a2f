"""Proxy utility functions over (possibly fractional) cluster inclusion vectors.

Two utilities are provided: expected dataset size, and a group-representation
score that trades balanced group coverage against overall size,

    U(s) = -lam * sum_g gamma_g * (n_g(s) + eps)^(-1/2)
           - (1 - lam) * (n(s) + eps)^(-1/2)

with n_g(s) = sum_i s_i * e_{i,g} and n(s) = sum_i s_i * e_i. The group term
is weighted by ``lam``: at lam = 0 the expression collapses to the pure
overall-size term, and at lam = 1 only group coverage matters. The eps > 0
smoothing keeps the expression bounded when a group count is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, ExpectedCounts, SampleState
from .groups import GroupModel

UTILITY_KINDS = ("size", "group_rep")


class UtilityError(ValueError):
    pass


@dataclass(frozen=True)
class InclusionVector:
    """Per-cluster value in [0, 1], aligned with Dataset.clusters.

    Binary entries denote committed/selected clusters; fractional entries are
    sampling probabilities. ``committed`` marks clusters fixed at 1.
    """

    values: np.ndarray
    committed: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != self.committed.shape:
            raise UtilityError("values and committed mask must have equal length")
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise UtilityError("inclusion values must lie in [0, 1]")
        if np.any(np.abs(v[self.committed] - 1.0) > 1e-12):
            raise UtilityError("committed clusters must have inclusion value 1")

    @classmethod
    def from_committed(cls, n_clusters: int, committed_idx: np.ndarray) -> "InclusionVector":
        committed = np.zeros(n_clusters, dtype=bool)
        committed[committed_idx] = True
        return cls(values=committed.astype(np.float64), committed=committed)


@dataclass(frozen=True)
class UtilitySpec:
    """Which utility to optimize and its parameters."""

    kind: str = "group_rep"
    lam: float = 0.5
    epsilon: float = 1e-6
    groups: GroupModel | None = None

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise UtilityError(f"unknown utility kind {self.kind!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise UtilityError("lambda must lie in [0, 1]")
        if self.epsilon <= 0:
            raise UtilityError("epsilon must be positive")
        if self.kind == "group_rep" and self.groups is None:
            raise UtilityError("group_rep utility requires a group model")


def _check_dims(s: InclusionVector, counts: ExpectedCounts) -> None:
    if len(s.values) != len(counts.e):
        raise UtilityError(
            f"inclusion vector has {len(s.values)} clusters, counts have {len(counts.e)}"
        )


def _check_group_model(counts: ExpectedCounts, spec: UtilitySpec) -> None:
    if spec.groups is None:
        raise UtilityError("group_rep utility requires a group model")
    if counts.e_group.shape[1] != spec.groups.n_groups:
        raise UtilityError("expected counts were built with a different group model")


_SIZE = UtilitySpec(kind="size")


def size_utility(s: InclusionVector, counts: ExpectedCounts) -> float:
    """Relaxed expected labeled-point count, sum_i s_i * e_i."""
    _check_dims(s, counts)
    return utility_value_raw(s.values, counts, _SIZE)


def group_rep_utility(s: InclusionVector, counts: ExpectedCounts, spec: UtilitySpec) -> float:
    _check_dims(s, counts)
    _check_group_model(counts, spec)
    return utility_value_raw(s.values, counts, spec)


def group_rep_gradient(
    s: InclusionVector, counts: ExpectedCounts, spec: UtilitySpec
) -> np.ndarray:
    """Gradient of the group-representation utility; strictly positive wherever
    e_i > 0, zero where e_i = 0."""
    _check_dims(s, counts)
    _check_group_model(counts, spec)
    return utility_gradient_raw(s.values, counts, spec)


def utility_value(s: InclusionVector, counts: ExpectedCounts, spec: UtilitySpec) -> float:
    if spec.kind == "size":
        return size_utility(s, counts)
    return group_rep_utility(s, counts, spec)


def utility_gradient(
    s: InclusionVector, counts: ExpectedCounts, spec: UtilitySpec
) -> np.ndarray:
    if spec.kind == "size":
        _check_dims(s, counts)
        return utility_gradient_raw(s.values, counts, spec)
    return group_rep_gradient(s, counts, spec)


def utility_value_raw(values: np.ndarray, counts: ExpectedCounts, spec: UtilitySpec) -> float:
    """Evaluate on a bare value vector, skipping InclusionVector validation.

    The one implementation of both utilities; callers guarantee values lie in
    the box and match the counts."""
    if spec.kind == "size":
        return float(values @ counts.e)
    n_g = values @ counts.e_group
    n = float(values @ counts.e)
    eps = spec.epsilon
    group_term = float(np.sum(spec.groups.gamma * (n_g + eps) ** -0.5))
    return -spec.lam * group_term - (1.0 - spec.lam) * (n + eps) ** -0.5


def utility_gradient_raw(
    values: np.ndarray, counts: ExpectedCounts, spec: UtilitySpec
) -> np.ndarray:
    """Gradient counterpart of :func:`utility_value_raw`."""
    if spec.kind == "size":
        return counts.e.astype(np.float64).copy()
    n_g = values @ counts.e_group
    n = float(values @ counts.e)
    eps = spec.epsilon
    grad_groups = counts.e_group @ (spec.groups.gamma * 0.5 * (n_g + eps) ** -1.5)
    grad_size = 0.5 * (n + eps) ** -1.5 * counts.e
    return spec.lam * grad_groups + (1.0 - spec.lam) * grad_size


def utility_of_sample(ds: Dataset, state: SampleState, spec: UtilitySpec) -> float:
    """Evaluate the utility on a realized sample, using the actual labeled
    points per group rather than expectations: the sample enters as a single
    fully included unit carrying those counts."""
    rows = np.array(
        [ds.point_index[pid] for pid in state.labeled_point_ids()], dtype=np.int64
    )
    if spec.kind == "size":
        e_group = np.zeros((1, 0))
    else:
        gm = spec.groups
        if gm is None:
            raise UtilityError("group_rep utility requires a group model")
        e_group = np.bincount(gm.assignment[rows], minlength=gm.n_groups)[None, :]
    counts = ExpectedCounts(
        cluster_ids=("sample",),
        e=np.array([float(len(rows))]),
        e_group=e_group.astype(np.float64),
        k=state.k,
    )
    return utility_value_raw(np.ones(1), counts, spec)
