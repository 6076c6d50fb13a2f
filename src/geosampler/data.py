"""Population data model: strata contain clusters, clusters contain points.

In memory a :class:`Dataset` is columnar and integer-indexed. Points,
clusters and strata are rows of the sorted id tuples ``point_ids``,
``cluster_ids`` and ``stratum_ids``; the structure is two index arrays,
``point_cluster`` (a ``cluster_ids`` row per point) and ``cluster_stratum``
(a ``stratum_ids`` row per cluster). The train/test split masks are not
stored: they are derived from the labels, ``split_seed`` and
``test_fraction``. A :class:`SampleState` holds cluster and point rows too.
String ids are translated only at the I/O boundaries: ``build_dataset``,
bundle load/save and ``sample.json`` (``save_sample_state``/
``load_sample_state``). The one id-keyed record left is :class:`Cluster`,
built on demand by ``Dataset.cluster(cid)`` for :func:`cluster_cost`,
because ``perfbench/`` prices the cluster ids that rounding returns that
way.

A dataset is stored on disk as a bundle directory:

    meta.json      feature_dim, counts, split seed/fraction, strata list
    points.csv     point_id, x, y, label|NA, cluster_id, stratum_id
    features.csv   point_id, f0..f{d-1}        (or features.bin, see below)
    costs.json     c1, c2, budget, overrides   (written by save_cost_model)

``features.bin`` is little-endian float32, row-major, preceded by a 16-byte
header: magic ``GSOF``, u32 rows, u32 dim, u32 reserved.

The CSV files are UTF-8 with a header row. Fields are comma-separated and
may be quoted with ``"`` (a quote inside a quoted field is doubled); no
line is a comment, so ``#`` is an ordinary character; lines end in LF or
CRLF; and every row has exactly the header's field count. ``save_dataset``
writes ``csv`` module rows with CRLF endings. ``load_dataset`` checks each
header and then parses the rows with ``np.loadtxt`` (numbers straight to
float64, ids as str); a malformed row raises :class:`DatasetError` naming
its file and line.

All ordering is lexicographic by identifier so that identical seeds give
identical runs across platforms.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

FEATURES_BIN_MAGIC = b"GSOF"


class DatasetError(ValueError):
    """Raised when a dataset bundle or in-memory dataset violates an invariant."""


class CostError(ValueError):
    """Raised for invalid cost models or cost queries."""


@dataclass(frozen=True)
class Cluster:
    """A sampling unit: selecting it permits labeling up to k of its points."""

    cluster_id: str
    stratum_id: str
    point_ids: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.point_ids)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable population over which sampling and prediction happen.

    Per-point arrays are aligned with ``point_ids``, per-cluster arrays with
    ``cluster_ids`` and per-stratum arrays with ``stratum_ids``; all three id
    tuples are sorted lexicographically. ``labels`` uses NaN for unknown
    (prediction-only) points. The train/test split is assigned at the cluster
    level so that the source set is a set of sampling units: ``train_mask``
    and ``test_mask`` are computed on first use by
    :func:`split_masks_from_seed` from ``split_seed`` and ``test_fraction``,
    so they are reproducible from the bundle alone. Only labeled points are
    in either mask, so every source cluster is fully labeled. ``==`` is
    identity; :func:`datasets_equal` compares contents.
    """

    point_ids: tuple[str, ...]
    cluster_ids: tuple[str, ...]
    stratum_ids: tuple[str, ...]
    coords: np.ndarray          # (n, 2) float64
    features: np.ndarray        # (n, d) float64
    labels: np.ndarray          # (n,) float64, NaN = unknown
    point_cluster: np.ndarray   # (n,) int64, row of cluster_ids
    cluster_stratum: np.ndarray # (m,) int64, row of stratum_ids
    split_seed: int = 0
    test_fraction: float = 0.2

    def __post_init__(self):
        _validate_dataset(self)

    # -- basic shape -----------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.point_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    # -- derived arrays and lookups (cached, the dataset is immutable) ----

    @cached_property
    def point_index(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.point_ids)}

    @cached_property
    def cluster_index(self) -> dict[str, int]:
        return {cid: j for j, cid in enumerate(self.cluster_ids)}

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.point_cluster, minlength=self.n_clusters)

    @cached_property
    def cluster_rows(self) -> np.ndarray:
        """Point rows grouped by cluster (CSR column array); rows of cluster j
        are ``cluster_rows[cluster_ptr[j]:cluster_ptr[j + 1]]``, ascending."""
        return np.argsort(self.point_cluster, kind="stable")

    @cached_property
    def cluster_ptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.cluster_sizes)))

    @cached_property
    def train_mask(self) -> np.ndarray:
        """(n,) bool: the labeled points outside the test clusters."""
        return split_masks_from_seed(self.point_cluster, self.n_clusters, self.labels,
                                     self.split_seed, self.test_fraction)[0]

    @cached_property
    def test_mask(self) -> np.ndarray:
        """(n,) bool: the labeled points not in ``train_mask``."""
        return ~self.train_mask & ~np.isnan(self.labels)

    @cached_property
    def cluster_is_source(self) -> np.ndarray:
        """True for clusters whose points all belong to the train split."""
        outside = np.bincount(self.point_cluster[~self.train_mask], minlength=self.n_clusters)
        return outside == 0

    def rows_of_cluster(self, j: int) -> np.ndarray:
        return self.cluster_rows[self.cluster_ptr[j]:self.cluster_ptr[j + 1]]

    def cluster_indices(self, cluster_ids: Iterable[str]) -> np.ndarray:
        """Rows of ``cluster_ids`` for the given ids, in order."""
        return _indices(self.cluster_index, cluster_ids, "cluster")

    def point_indices(self, point_ids: Iterable[str]) -> np.ndarray:
        """Rows of ``point_ids`` for the given ids, in order."""
        return _indices(self.point_index, point_ids, "point")

    def stratum_flags(self, stratum_ids: Iterable[str]) -> np.ndarray:
        """(S,) bool: True for the named strata; unknown ids are ignored."""
        chosen = frozenset(stratum_ids)
        return np.array([sid in chosen for sid in self.stratum_ids], dtype=bool)

    # -- the one id-keyed record (see the module docstring) ----------------

    def cluster(self, cluster_id: str) -> Cluster:
        j = int(self.cluster_indices([cluster_id])[0])
        return Cluster(
            cluster_id=cluster_id,
            stratum_id=self.stratum_ids[self.cluster_stratum[j]],
            point_ids=tuple(self.point_ids[i] for i in self.rows_of_cluster(j)),
        )


def _indices(index: Mapping[str, int], ids: Iterable[str], kind: str) -> np.ndarray:
    try:
        return np.array([index[i] for i in ids], dtype=np.int64)
    except KeyError as exc:
        raise DatasetError(f"unknown {kind} id {exc.args[0]!r}") from None


def _validate_dataset(ds: Dataset) -> None:
    """Check what outside input can break: shapes and empty clusters.
    :func:`build_dataset` makes the id tuples sorted and unique and the index
    arrays in range."""
    n, m = len(ds.point_ids), len(ds.cluster_ids)
    if ds.features.ndim != 2 or ds.features.shape[0] != n:
        raise DatasetError("feature matrix shape inconsistent with point count")
    if ds.features.shape[1] < 1:
        raise DatasetError("feature dimension must be >= 1")
    if ds.coords.shape != (n, 2):
        raise DatasetError("coords must have shape (n, 2)")
    if ds.labels.shape != (n,):
        raise DatasetError("labels must have shape (n,)")
    if (ds.point_cluster.shape, ds.cluster_stratum.shape) != ((n,), (m,)):
        raise DatasetError("index arrays must align with the id tuples")
    empty = np.flatnonzero(ds.cluster_sizes == 0)
    if empty.size:
        raise DatasetError(f"cluster {ds.cluster_ids[empty[0]]!r} is empty")


def split_masks_from_seed(
    point_cluster: np.ndarray,
    n_clusters: int,
    labels: np.ndarray,
    split_seed: int,
    test_fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign whole clusters to the test side until it holds ~``test_fraction``
    of the labeled points; everything else is train. Deterministic in the seed.

    Clusters are taken in a seeded random order while the labeled points
    already on the test side fall short of the target.
    """
    labeled = ~np.isnan(labels)
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(n_clusters)
    target = test_fraction * int(labeled.sum())
    in_order = np.bincount(point_cluster[labeled], minlength=n_clusters)[order]
    before = np.cumsum(in_order) - in_order
    test_cluster = np.zeros(n_clusters, dtype=bool)
    test_cluster[order[before < target]] = True
    on_test_side = test_cluster[point_cluster]
    # prediction-only points (unknown label) stay out of both masks
    return ~on_test_side & labeled, on_test_side & labeled


def build_dataset(
    point_ids: Iterable[str],
    coords: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    point_cluster: Iterable[str],
    cluster_stratum: Mapping[str, str],
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> Dataset:
    """Assemble a validated Dataset from per-point rows, sorting everything
    by identifier and deriving the index arrays.

    Rows whose point ids are already strictly ascending (every bundle
    :func:`save_dataset` writes) are not re-indexed: float64 ``coords``,
    ``features`` and ``labels`` arrays are then held as given, not copied.
    """
    pids = np.array(list(point_ids), dtype=str)
    pcl = np.array(list(point_cluster), dtype=str)
    if pcl.shape != pids.shape:
        raise DatasetError("point_cluster must name one cluster per point")
    order = (
        slice(None) if np.all(pids[1:] > pids[:-1]) else np.argsort(pids, kind="stable")
    )
    pids, pcl = pids[order], pcl[order]
    dup = np.flatnonzero(pids[1:] == pids[:-1])
    if dup.size:
        raise DatasetError(f"duplicate point id {str(pids[dup[0]])!r}")

    table = np.array(list(cluster_stratum), dtype=str)
    by_id = np.argsort(table, kind="stable")
    cids = table[by_id]
    sids, cluster_strat = np.unique(
        np.array(list(cluster_stratum.values()), dtype=str)[by_id], return_inverse=True
    )
    pos = np.minimum(np.searchsorted(cids, pcl), max(len(cids) - 1, 0))
    unknown = np.flatnonzero(cids[pos] != pcl) if cids.size else np.arange(len(pcl))
    if unknown.size:
        i = unknown[0]
        raise DatasetError(f"point {str(pids[i])!r} references unknown cluster {str(pcl[i])!r}")

    return Dataset(
        point_ids=tuple(pids.tolist()),
        cluster_ids=tuple(cids.tolist()),
        stratum_ids=tuple(sids.tolist()),
        coords=np.asarray(coords, dtype=np.float64)[order],
        features=np.asarray(features, dtype=np.float64)[order],
        labels=np.asarray(labels, dtype=np.float64)[order],
        point_cluster=pos.astype(np.int64),
        cluster_stratum=cluster_strat.astype(np.int64),
        split_seed=split_seed,
        test_fraction=test_fraction,
    )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Field-by-field equality (arrays compared exactly, NaN == NaN)."""
    return (
        a.point_ids == b.point_ids
        and a.cluster_ids == b.cluster_ids
        and a.stratum_ids == b.stratum_ids
        and a.split_seed == b.split_seed
        and a.test_fraction == b.test_fraction
        and np.array_equal(a.point_cluster, b.point_cluster)
        and np.array_equal(a.cluster_stratum, b.cluster_stratum)
        and np.array_equal(a.coords, b.coords)
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels, equal_nan=True)
    )


# -- cost model -----------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Per-cluster monetary costs plus a total budget.

    ``c1`` applies to clusters inside the initial strata, ``c2`` outside;
    ``per_cluster_override`` wins over both. ``initial_strata`` must be bound
    (via :meth:`with_initial_strata`) before stratum-dependent costs can be
    queried, unless ``c1 == c2``.
    """

    c1: float
    c2: float
    budget: float
    per_cluster_override: Mapping[str, float] | None = None
    initial_strata: frozenset[str] | None = None
    budget_scope: str = "augmentation"  # or "total"

    def __post_init__(self):
        if not (self.c2 >= self.c1 > 0):
            raise CostError("cost model requires c2 >= c1 > 0")
        if not (self.budget >= 0):
            raise CostError("budget must be non-negative")
        if self.budget_scope not in ("augmentation", "total"):
            raise CostError(f"unknown budget_scope {self.budget_scope!r}")
        if self.per_cluster_override:
            for cid, v in self.per_cluster_override.items():
                if not (v > 0):
                    raise CostError(f"override for {cid!r} must be positive")

    def with_initial_strata(self, stratum_ids: Iterable[str]) -> "CostModel":
        return replace(self, initial_strata=frozenset(stratum_ids))

    def with_budget(self, budget: float) -> "CostModel":
        return replace(self, budget=float(budget))


def cluster_cost(cm: CostModel, cluster: Cluster) -> float:
    """Monetary cost of adding one cluster: override, else c1 in-strata, c2 out."""
    if cm.per_cluster_override and cluster.cluster_id in cm.per_cluster_override:
        return float(cm.per_cluster_override[cluster.cluster_id])
    if cm.c1 == cm.c2:
        return float(cm.c1)
    if cm.initial_strata is None:
        raise CostError(
            "initial strata not fixed; bind the cost model with with_initial_strata()"
        )
    return float(cm.c1 if cluster.stratum_id in cm.initial_strata else cm.c2)


def cluster_costs(cm: CostModel, ds: Dataset) -> np.ndarray:
    """(m,) cost of every cluster, priced as :func:`cluster_cost` prices one."""
    if cm.c1 == cm.c2:
        costs = np.full(ds.n_clusters, float(cm.c1))
    elif cm.initial_strata is None:
        raise CostError(
            "initial strata not fixed; bind the cost model with with_initial_strata()"
        )
    else:
        in_initial = ds.stratum_flags(cm.initial_strata)[ds.cluster_stratum]
        costs = np.where(in_initial, float(cm.c1), float(cm.c2))
    for cid, value in (cm.per_cluster_override or {}).items():
        if cid in ds.cluster_index:
            costs[ds.cluster_index[cid]] = float(value)
    return costs


def set_cost(cm: CostModel, ds: Dataset, clusters: np.ndarray) -> float:
    """Sum of the costs of the given cluster rows, added in the given order."""
    costs = cluster_costs(cm, ds)[clusters]
    return float(np.cumsum(costs)[-1]) if costs.size else 0.0


def save_cost_model(cm: CostModel, bundle: str | Path) -> None:
    path = Path(bundle) / "costs.json"
    doc = {
        "c1": cm.c1,
        "c2": cm.c2,
        "budget": cm.budget,
        "overrides": dict(cm.per_cluster_override) if cm.per_cluster_override else {},
        "budget_scope": cm.budget_scope,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_cost_model(bundle: str | Path) -> CostModel:
    path = Path(bundle) / "costs.json"
    if not path.exists():
        raise CostError(f"missing costs.json in {bundle}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("c1", "c2", "budget"):
        if key not in doc:
            raise CostError(f"costs.json missing field {key!r}")
    return CostModel(
        c1=float(doc["c1"]),
        c2=float(doc["c2"]),
        budget=float(doc["budget"]),
        per_cluster_override=dict(doc.get("overrides") or {}) or None,
        budget_scope=doc.get("budget_scope", "augmentation"),
    )


# -- sample state ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleState:
    """The realized labeled set: chosen clusters and the points labeled in them.

    ``initial`` (ascending) and ``augment`` (ascending within each
    augmentation step) are rows of ``Dataset.cluster_ids``; ``labeled`` holds
    rows of ``Dataset.point_ids`` grouped by cluster in that order, each
    cluster's points in draw order. The int64 arrays are read-only copies, so
    one state can be shared by every arm that augments it. ``spent`` counts
    augmentation clusters only (the initial sample is sunk cost under the
    default budget convention).
    """

    initial: np.ndarray
    augment: np.ndarray
    labeled: np.ndarray
    k: int
    spent: float
    initial_strata: frozenset[str]
    infeasible: bool = False
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("initial", "augment", "labeled"):
            rows = np.array(getattr(self, name), dtype=np.int64)
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        overlap = set(self.initial.tolist()) & set(self.augment.tolist())
        if overlap:
            raise DatasetError(f"cluster row {min(overlap)} is in both the initial and augment sets")
        if self.k < 1:
            raise DatasetError("k must be >= 1")

    @property
    def clusters(self) -> np.ndarray:
        """Every selected cluster row: ``initial`` then ``augment``."""
        return np.concatenate((self.initial, self.augment))

    @property
    def n_labeled(self) -> int:
        return len(self.labeled)


def save_sample_state(ds: Dataset, state: SampleState, path: str | Path) -> None:
    """Write ``state`` as sample.json, translating rows to ids. Each selected
    cluster lists its labeled points in the order ``state.labeled`` holds them."""
    owner = ds.point_cluster[state.labeled]
    doc = {
        "initial_cluster_ids": [ds.cluster_ids[j] for j in state.initial],
        "augment_cluster_ids": [ds.cluster_ids[j] for j in state.augment],
        "labeled_points": {
            ds.cluster_ids[j]: [ds.point_ids[i] for i in state.labeled[owner == j]]
            for j in state.clusters
        },
        "k": state.k,
        "spent": state.spent,
        "initial_strata": sorted(state.initial_strata),
        "infeasible": state.infeasible,
        "lineage": list(state.lineage),
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require_fields(doc, fields: tuple[str, ...], source: str) -> None:
    """Raise DatasetError naming the first of ``fields`` that ``doc`` lacks."""
    if not isinstance(doc, dict):
        raise DatasetError(f"{source} must be a JSON object")
    for field in fields:
        if field not in doc:
            raise DatasetError(f"{source} missing field {field!r}")


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_IDS = (_is_id_list, "a list of ids")
# sample.json field -> (type check, what it must hold); the first six are required
_SAMPLE_FIELDS = {
    "initial_cluster_ids": _IDS,
    "augment_cluster_ids": _IDS,
    "labeled_points": (
        lambda v: isinstance(v, dict) and all(map(_is_id_list, v.values())), "an object of id lists"
    ),
    "k": (lambda v: type(v) is int, "an integer"),
    "spent": (lambda v: type(v) in (int, float), "a number"),
    "initial_strata": _IDS,
    "lineage": _IDS,
}


def load_sample_state(ds: Dataset, path: str | Path) -> SampleState:
    """Read a sample.json against ``ds``, translating ids to rows. A missing or
    mistyped field, an unknown or repeated id, points recorded for an
    unselected cluster or under the wrong cluster, and more than
    ``min(k, size)`` points in a cluster raise :class:`DatasetError`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"sample file {path} does not exist")
    doc = json.loads(path.read_text(encoding="utf-8"))
    _require_fields(doc, tuple(_SAMPLE_FIELDS)[:6], "sample.json")
    for field, (ok, what) in _SAMPLE_FIELDS.items():
        if field in doc and not ok(doc[field]):
            raise DatasetError(f"sample.json field {field!r} must be {what}")

    cluster_ids = doc["initial_cluster_ids"] + doc["augment_cluster_ids"]
    listed = doc["labeled_points"]
    unselected = sorted(set(listed) - set(cluster_ids))
    if unselected:
        raise DatasetError(f"labeled points recorded for unselected cluster {unselected[0]!r}")
    per_cluster = [listed.get(cid, []) for cid in cluster_ids]
    point_ids = [pid for pids in per_cluster for pid in pids]
    clusters = ds.cluster_indices(cluster_ids)
    labeled = ds.point_indices(point_ids)
    owner = np.repeat(clusters, [len(pids) for pids in per_cluster])
    wrong = np.flatnonzero(ds.point_cluster[labeled] != owner)
    if wrong.size:
        i = int(wrong[0])
        raise DatasetError(
            f"point {point_ids[i]!r} labeled under wrong cluster {ds.cluster_ids[owner[i]]!r}"
        )
    for kind, ids in (("cluster", cluster_ids), ("point", point_ids)):
        repeated = [i for i, n in Counter(ids).items() if n > 1]
        if repeated:
            raise DatasetError(f"{kind} id {repeated[0]!r} listed twice in sample.json")
    for cid, j, pids in zip(cluster_ids, clusters, per_cluster):
        cap = min(doc["k"], int(ds.cluster_sizes[j]))
        if len(pids) > cap:
            raise DatasetError(f"cluster {cid!r} has {len(pids)} labeled points, cap is {cap}")
    n_initial = len(doc["initial_cluster_ids"])
    return SampleState(
        initial=clusters[:n_initial],
        augment=clusters[n_initial:],
        labeled=labeled,
        k=doc["k"],
        spent=float(doc["spent"]),
        initial_strata=frozenset(doc["initial_strata"]),
        infeasible=bool(doc.get("infeasible", False)),
        lineage=tuple(doc.get("lineage", ())),
    )


# -- expected labeled-point counts ----------------------------------------


@dataclass(frozen=True)
class ExpectedCounts:
    """Per-cluster expected labeled points under uniform within-cluster choice.

    ``e[i] = min(k, size_i)`` and ``e_group[i, g]`` splits ``e[i]``
    proportionally to the cluster's group composition, so the group marginals
    sum back to ``e[i]`` exactly.
    """

    e: np.ndarray           # (m,), rows of Dataset.cluster_ids
    e_group: np.ndarray     # (m, G); G = 0 when built without groups


def expected_counts(ds: Dataset, gm, k: int) -> ExpectedCounts:
    """Expected labeled points per cluster (and per group) when labeling
    ``min(k, size)`` points uniformly at random within each selected cluster.

    ``gm`` may be None for group-free (size-only) uses.
    """
    if k < 1:
        raise DatasetError("k must be >= 1")
    m = ds.n_clusters
    sizes = ds.cluster_sizes.astype(np.float64)
    e = np.minimum(float(k), sizes)
    if gm is None:
        e_group = np.zeros((m, 0))
    else:
        G = len(gm.gamma)
        counts = np.bincount(ds.point_cluster * G + gm.assignment, minlength=m * G)
        e_group = e[:, None] * counts.reshape(m, G).astype(np.float64) / sizes[:, None]
    return ExpectedCounts(e=e, e_group=e_group)


# -- bundle I/O -----------------------------------------------------------

# the bundle CSV dialect (see the module docstring) as np.loadtxt options
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "encoding": "utf-8"}
_POINTS_COLUMNS = ["point_id", "x", "y", "label", "cluster_id", "stratum_id"]
_POINTS_DTYPE = np.dtype([
    ("point_id", object), ("x", np.float64), ("y", np.float64),
    ("label", np.float64), ("cluster_id", object), ("stratum_id", object),
])
# a label is a number or NA (unknown)
_LABEL_CONVERTER = {3: lambda text: float("nan" if text == "NA" else text)}
# features.bin is read into the float64 matrix this many bytes at a time
_BIN_BLOCK_BYTES = 1 << 22


def save_dataset(ds: Dataset, path: str | Path, features_format: str = "csv") -> None:
    """Write a dataset bundle; ``load_dataset`` reproduces it exactly.

    ``features_format='bin'`` stores features as float32 and is only lossless
    when the feature values are float32-representable. Rows are streamed:
    floats are written as their shortest round-trip ``repr``, one row's
    values converted at a time.
    """
    if features_format not in ("csv", "bin"):
        raise DatasetError(f"unknown features format {features_format!r}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    features_file = "features.csv" if features_format == "csv" else "features.bin"
    members: list[list[str]] = [[] for _ in ds.stratum_ids]   # cluster ids per stratum
    for cid, sj in zip(ds.cluster_ids, ds.cluster_stratum.tolist()):
        members[sj].append(cid)
    meta = {
        "feature_dim": ds.feature_dim,
        "n_points": ds.n_points,
        "n_clusters": ds.n_clusters,
        "n_strata": len(ds.stratum_ids),
        "split_seed": ds.split_seed,
        "test_fraction": ds.test_fraction,
        "features_file": features_file,
        "strata": [
            {"stratum_id": sid, "cluster_ids": cids}
            for sid, cids in zip(ds.stratum_ids, members)
        ],
    }
    (out / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # csv.writer writes a float field as its repr
    cluster_stratum_ids = [ds.stratum_ids[s] for s in ds.cluster_stratum]
    with (out / "points.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_POINTS_COLUMNS)
        w.writerows(
            (pid, *xy.tolist(), "NA" if math.isnan(label) else label,
             ds.cluster_ids[j], cluster_stratum_ids[j])
            for pid, xy, label, j in zip(
                ds.point_ids, ds.coords, ds.labels.tolist(), ds.point_cluster.tolist()
            )
        )

    if features_format == "csv":
        with (out / "features.csv").open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["point_id"] + [f"f{j}" for j in range(ds.feature_dim)])
            w.writerows([pid, *row.tolist()] for pid, row in zip(ds.point_ids, ds.features))
    else:
        with (out / "features.bin").open("wb") as fh:
            fh.write(FEATURES_BIN_MAGIC + struct.pack("<III", ds.n_points, ds.feature_dim, 0))
            ds.features.astype("<f4").tofile(fh)


def _csv_header(path: Path) -> tuple[list[str] | None, bool]:
    """The header row of a bundle CSV, and whether a data row follows it."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader, None), any(reader)


def _read_rows(path: Path, n_fields: int, **options) -> np.ndarray:
    """``np.loadtxt`` of the rows below a bundle CSV's header. A row it
    rejects raises :class:`DatasetError` naming the file and the line."""
    try:
        return np.loadtxt(path, skiprows=1, **_CSV, **options)
    except ValueError as exc:
        # loadtxt's row number is not the file's line number; drop it
        reason = str(exc).partition(" at row")[0]
    # read the file again a line at a time: the failing row is the last line fed
    line, text = 0, ""

    def counted(fh):
        nonlocal line, text
        for line, text in enumerate(fh, 1):
            yield text

    with path.open(newline="", encoding="utf-8") as fh:
        try:
            np.loadtxt(counted(fh), skiprows=1, **_CSV, **options)
        except ValueError:
            pass
    fields = np.loadtxt([text], dtype=object, ndmin=2, **_CSV).shape[1]
    if fields != n_fields:
        raise DatasetError(
            f"{path.name} line {line} has {fields} fields; rows must have {n_fields} fields"
        )
    raise DatasetError(f"{path.name} line {line}: {reason}")


def _read_features_csv(path: Path, d: int, pids: np.ndarray) -> np.ndarray:
    """(n, d) features of ``path`` in the row order of ``pids``."""
    header, has_rows = _csv_header(path)
    if header != ["point_id"] + [f"f{j}" for j in range(d)]:
        raise DatasetError(f"features.csv header mismatch: expected {d + 1} columns")
    if has_rows:
        # one pass; the structured dtype makes loadtxt require d + 1 fields per row
        rows = _read_rows(path, d + 1, dtype=[("point_id", object), ("f", np.float64, (d,))],
                          ndmin=1)
        ids, features = rows["point_id"], np.ascontiguousarray(rows["f"])
    else:
        ids, features = np.empty(0, dtype=object), np.empty((0, d))
    if len(ids) == len(pids) and np.all(ids == pids):
        return features     # the order save_dataset writes
    if set(ids) != set(pids):
        orphan = sorted(set(pids) ^ set(ids))[0]
        raise DatasetError(f"feature table does not match points ({orphan!r})")
    if len(ids) != len(pids):
        # equal id sets, so the longer table repeats an id
        longer, name = (ids, "features.csv") if len(ids) > len(pids) else (pids, "points.csv")
        ordered = np.sort(longer)
        dup = ordered[1:][ordered[1:] == ordered[:-1]][0]
        raise DatasetError(f"duplicate point id {dup!r} in {name}")
    by_point = np.empty(len(pids), dtype=np.int64)
    by_point[np.argsort(pids)] = np.argsort(ids)
    return features[by_point]


def _read_features_bin(path: Path, n: int, d: int) -> np.ndarray:
    """(n, d) float64 features of ``path``, filled block by block."""
    size = path.stat().st_size
    expected = 16 + 4 * n * d
    with path.open("rb") as fh:
        header = fh.read(16)
        if header[:4] != FEATURES_BIN_MAGIC:
            raise DatasetError("features.bin has wrong magic")
        if size != expected:
            raise DatasetError(
                f"features.bin holds {size} bytes; {n} x {d} float32 "
                f"features and the 16-byte header take {expected}"
            )
        nrows, dim, _reserved = struct.unpack("<III", header[4:])
        if nrows != n or dim != d:
            raise DatasetError(
                f"features.bin header ({nrows} x {dim}) disagrees with meta ({n} x {d})"
            )
        features = np.empty((n, d))
        step = max(1, _BIN_BLOCK_BYTES // (4 * d))
        for lo in range(0, n, step):
            rows = min(step, n - lo)
            features[lo:lo + rows] = np.fromfile(fh, dtype="<f4", count=rows * d).reshape(rows, d)
    return features


def load_dataset(path: str | Path) -> Dataset:
    """Load and fully validate a dataset bundle written by :func:`save_dataset`."""
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"missing meta.json in {root}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    _require_fields(meta, ("feature_dim",), "meta.json")
    for entry in meta.get("strata", []):
        _require_fields(entry, ("stratum_id",), "meta.json strata entry")
    d = int(meta["feature_dim"])

    points_path = root / "points.csv"
    if not points_path.exists():
        raise DatasetError(f"missing points.csv in {root}")
    header, has_rows = _csv_header(points_path)
    if header != _POINTS_COLUMNS:
        missing = [c for c in _POINTS_COLUMNS if header is None or c not in header]
        raise DatasetError(f"points.csv missing columns {missing}")
    if has_rows:
        points = _read_rows(points_path, len(_POINTS_COLUMNS), dtype=_POINTS_DTYPE,
                            converters=_LABEL_CONVERTER, ndmin=1)
    else:
        points = np.empty(0, dtype=_POINTS_DTYPE)
    pids = points["point_id"]
    point_cluster = points["cluster_id"].tolist()

    # the strata list in meta.json is the authoritative cluster table
    listed = [
        (cid, entry["stratum_id"])
        for entry in meta.get("strata", [])
        for cid in entry.get("cluster_ids", [])
    ]
    cluster_stratum = dict(listed)
    if len(cluster_stratum) < len(listed):
        cid = min(c for c, n in Counter(c for c, _ in listed).items() if n > 1)
        raise DatasetError(f"cluster {cid!r} listed under two strata")
    if not cluster_stratum:
        raise DatasetError("meta.json strata list carries no cluster rosters")
    stray = set(zip(point_cluster, points["stratum_id"].tolist())) - set(listed)
    if stray:
        cid, sid = min(stray)
        if cid not in cluster_stratum:
            pid = pids[point_cluster.index(cid)]
            raise DatasetError(
                f"point {pid!r} references cluster {cid!r} absent from the cluster table"
            )
        raise DatasetError(
            f"cluster {cid!r} stratum mismatch: table says "
            f"{cluster_stratum[cid]!r}, points.csv says {sid!r}"
        )
    if len(cluster_stratum) != int(meta.get("n_clusters", len(cluster_stratum))):
        raise DatasetError("meta.json n_clusters disagrees with the cluster table")

    features_file = meta.get("features_file")
    if features_file is None:
        if (root / "features.csv").exists():
            features_file = "features.csv"
        elif (root / "features.bin").exists():
            features_file = "features.bin"
        else:
            raise DatasetError(f"no features.csv or features.bin in {root}")
    fpath = root / features_file
    if not fpath.exists():
        raise DatasetError(f"missing {features_file} in {root}")
    if features_file.endswith(".csv"):
        features = _read_features_csv(fpath, d, pids)
    else:
        features = _read_features_bin(fpath, len(pids), d)

    return build_dataset(
        point_ids=pids,
        coords=np.column_stack((points["x"], points["y"])),
        features=features,
        labels=points["label"].copy(),   # not a view that keeps the table alive
        point_cluster=point_cluster,
        cluster_stratum=cluster_stratum,
        split_seed=int(meta.get("split_seed", 0)),
        test_fraction=float(meta.get("test_fraction", 0.2)),
    )
