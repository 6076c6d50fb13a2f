"""Group assignments used by the representation utility.

Groups come from administrative units (strata), from k-means over the
feature space, or from k-means over an auxiliary per-point matrix (e.g.
land-cover composition vectors). Serialized as ``groups.csv``
(point_id, group_id) plus ``gamma.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, write_csv, write_json
from .learner import kmeans_groups

GROUP_KINDS = ("admin", "feature-kmeans", "auxiliary-kmeans")


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupModel:
    """Assignment of every point to one group, with population shares gamma."""

    kind: str
    group_ids: tuple[str, ...]
    assignment: np.ndarray   # (n,) int, aligned with Dataset.point_ids
    gamma: np.ndarray        # (G,) shares summing to 1

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise GroupError(f"unknown group kind {self.kind!r}")
        G = len(self.group_ids)
        if self.gamma.shape != (G,):
            raise GroupError("gamma must have one share per group")
        if abs(float(self.gamma.sum()) - 1.0) > 1e-9:
            raise GroupError("gamma shares must sum to 1 (within 1e-9)")
        if np.any(self.gamma < 0):
            raise GroupError("gamma shares must be non-negative")
        if self.assignment.ndim != 1:
            raise GroupError("assignment must be a flat vector")
        if len(self.assignment) and (
            self.assignment.min() < 0 or self.assignment.max() >= G
        ):
            raise GroupError("assignment indexes outside the group list")

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)


def _shares_from_assignment(assignment: np.ndarray, G: int) -> np.ndarray:
    counts = np.bincount(assignment, minlength=G).astype(np.float64)
    return counts / counts.sum()


def admin_groups(ds: Dataset) -> GroupModel:
    """One group per stratum; shares are population proportions."""
    assignment = ds.cluster_stratum[ds.point_cluster]
    gamma = _shares_from_assignment(assignment, len(ds.stratum_ids))
    return GroupModel(kind="admin", group_ids=ds.stratum_ids, assignment=assignment, gamma=gamma)


def _kmeans_model(kind: str, X: np.ndarray, n_groups: int, seed: int) -> GroupModel:
    """Groups g0, g1, ... from k-means over the rows of X; shares are population proportions."""
    assignment = kmeans_groups(X, n_groups, seed=seed)
    gamma = _shares_from_assignment(assignment, n_groups)
    return GroupModel(kind, tuple(f"g{j}" for j in range(n_groups)), assignment, gamma)


def feature_kmeans_groups(ds: Dataset, n_groups: int, seed: int = 0) -> GroupModel:
    """Groups from k-means clustering of the points in feature space."""
    return _kmeans_model("feature-kmeans", ds.features, n_groups, seed)


def auxiliary_kmeans_groups(
    ds: Dataset, auxiliary: np.ndarray, n_groups: int, seed: int = 0
) -> GroupModel:
    """Groups from k-means over an externally supplied per-point matrix."""
    aux = np.asarray(auxiliary, dtype=np.float64)
    if aux.shape[0] != ds.n_points:
        raise GroupError(f"auxiliary matrix has {aux.shape[0]} rows for {ds.n_points} points")
    return _kmeans_model("auxiliary-kmeans", aux, n_groups, seed)


def save_group_model(gm: GroupModel, ds: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    write_csv(out / "groups.csv", ["point_id", "group_id"],
              ([pid, gm.group_ids[int(gi)]] for pid, gi in zip(ds.point_ids, gm.assignment)))
    doc = {
        "kind": gm.kind,
        "gamma": {gid: float(s) for gid, s in zip(gm.group_ids, gm.gamma)},
        "group_ids": list(gm.group_ids),
    }
    write_json(out / "gamma.json", doc)
