"""Group assignments used by the representation utility.

Groups come from administrative units (strata), from k-means over the
feature space, or from k-means over an auxiliary per-point matrix (e.g.
land-cover composition vectors). Serialized as ``groups.csv``
(point_id, group_id) plus ``gamma.json``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
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


def admin_groups(ds: Dataset, gamma: np.ndarray | None = None) -> GroupModel:
    """One group per stratum; shares default to population proportions."""
    assignment = ds.cluster_stratum[ds.point_cluster]
    group_ids = ds.stratum_ids
    g = _shares_from_assignment(assignment, len(group_ids)) if gamma is None else np.asarray(gamma, dtype=np.float64)
    return GroupModel(kind="admin", group_ids=group_ids, assignment=assignment, gamma=g)


def feature_kmeans_groups(
    ds: Dataset,
    n_groups: int,
    seed: int = 0,
    gamma: np.ndarray | None = None,
) -> GroupModel:
    """Groups from k-means clustering of the points in feature space."""
    result = kmeans_groups(ds.features, n_groups, seed=seed)
    group_ids = tuple(f"g{j}" for j in range(n_groups))
    g = _shares_from_assignment(result.assignment, n_groups) if gamma is None else np.asarray(gamma, dtype=np.float64)
    return GroupModel(
        kind="feature-kmeans", group_ids=group_ids, assignment=result.assignment, gamma=g
    )


def auxiliary_kmeans_groups(
    ds: Dataset,
    auxiliary: np.ndarray,
    n_groups: int,
    seed: int = 0,
    gamma: np.ndarray | None = None,
) -> GroupModel:
    """Groups from k-means over an externally supplied per-point matrix."""
    aux = np.asarray(auxiliary, dtype=np.float64)
    if aux.shape[0] != ds.n_points:
        raise GroupError(
            f"auxiliary matrix has {aux.shape[0]} rows for {ds.n_points} points"
        )
    result = kmeans_groups(aux, n_groups, seed=seed)
    group_ids = tuple(f"g{j}" for j in range(n_groups))
    g = _shares_from_assignment(result.assignment, n_groups) if gamma is None else np.asarray(gamma, dtype=np.float64)
    return GroupModel(
        kind="auxiliary-kmeans", group_ids=group_ids, assignment=result.assignment, gamma=g
    )


def save_group_model(gm: GroupModel, ds: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "groups.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["point_id", "group_id"])
        for pid, gi in zip(ds.point_ids, gm.assignment):
            w.writerow([pid, gm.group_ids[int(gi)]])
    doc = {
        "kind": gm.kind,
        "gamma": {gid: float(s) for gid, s in zip(gm.group_ids, gm.gamma)},
        "group_ids": list(gm.group_ids),
    }
    (out / "gamma.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_group_model(in_dir: str | Path, ds: Dataset) -> GroupModel:
    root = Path(in_dir)
    doc = json.loads((root / "gamma.json").read_text(encoding="utf-8"))
    group_ids = tuple(doc["group_ids"])
    gid_index = {gid: i for i, gid in enumerate(group_ids)}
    gamma = np.array([doc["gamma"][gid] for gid in group_ids], dtype=np.float64)

    by_point: dict[str, str] = {}
    with (root / "groups.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["point_id", "group_id"]:
            raise GroupError("groups.csv must have header point_id,group_id")
        for pid, gid in reader:
            by_point[pid] = gid
    try:
        assignment = np.array(
            [gid_index[by_point[pid]] for pid in ds.point_ids], dtype=np.int64
        )
    except KeyError as exc:
        raise GroupError(f"groups.csv does not cover point/group {exc}") from None
    return GroupModel(
        kind=doc["kind"], group_ids=group_ids, assignment=assignment, gamma=gamma
    )
