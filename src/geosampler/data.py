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
    features.bin   float64 features, see below (or features.csv: point_id, f0..f{d-1})

A bundle holds no costs: each command builds its :class:`CostModel` from its
flags, and per-cluster overrides are set only through the library.

``features.bin`` is little-endian float64, row-major, preceded by a 16-byte
header: magic ``GSOF``, u32 rows, u32 dim, u32 value width in bytes (8). A
width of 0 marks a file written before the width was stored: its values are
float32, and it is still read.

The CSV files are UTF-8 with a header row. Fields are comma-separated and
may be quoted with ``"`` (a quote inside a quoted field is doubled); no
line is a comment, so ``#`` is an ordinary character; lines end in LF or
CRLF; and every row has exactly the header's field count. Every CSV and
JSON output of the package, in a bundle or not, is written by
:func:`write_csv` (``csv`` module rows with CRLF endings) or
:func:`write_json` (indent 2, sorted keys, one trailing newline); each makes
its file's directory, so a directory appears only with its first file. The
one exception is points.csv, which :func:`save_dataset` writes a block of
columns at a time, with the same bytes: the csv module still formats every
id that it would quote, so it decides every quoted field. Only
``geosampler evaluate``'s ``results.csv``, one row per run, is appended to.
``load_dataset`` checks each header and then parses the rows with
``np.loadtxt`` (numbers straight to float64, point ids as str, and the
cluster and stratum ids of points.csv as fixed-width numpy strings where
those hold them exactly); a malformed row raises :class:`DatasetError`
naming its file and line.

All ordering is lexicographic by identifier so that identical seeds give
identical runs across platforms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

FEATURES_BIN_MAGIC = b"GSOF"
# the features formats of save_dataset, its default first
FEATURES_FORMATS = ("bin", "csv")


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
    """Check what outside input can break: shapes, empty clusters and the
    test fraction. :func:`build_dataset` makes the id tuples sorted and
    unique and the index arrays in range."""
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
    # 0 keeps every cluster on the train side; 1 or more leaves no source
    # cluster, and a NaN fails the comparison too
    if not 0.0 <= ds.test_fraction < 1.0:
        raise DatasetError(f"test_fraction must lie in [0, 1), got {ds.test_fraction!r}")


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
    point_cluster: Iterable[str] | np.ndarray,
    cluster_stratum: Mapping[str, str],
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> Dataset:
    """Assemble a validated Dataset from per-point rows, sorting everything
    by identifier and deriving the index arrays. ``point_cluster`` names
    each point's cluster, as str objects or as a numpy string array.

    Rows whose point ids are already strictly ascending (every bundle
    :func:`save_dataset` writes, and :func:`geosampler.synth.generate`) are
    not re-indexed: float64 ``coords``, ``features`` and ``labels`` arrays
    are then held as given, not copied, and ids that are plain ``str``
    objects are held as given too. Otherwise the ids are stored as new
    plain ``str`` (never ``np.str_``) in sorted order.
    """
    given = list(point_ids)
    pids = np.array(given, dtype=str)
    if not isinstance(point_cluster, np.ndarray):
        point_cluster = list(point_cluster)
    pcl = np.array(point_cluster, dtype=str)
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

    # the given objects are the ids when the rows need no reordering and the
    # str array above lost nothing: numpy drops NUL characters at an id's end
    keep = (isinstance(order, slice) and set(map(type, given)) <= {str}
            and "\0" not in "".join(given))
    return Dataset(
        point_ids=tuple(given) if keep else tuple(pids.tolist()),
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
        and np.array_equal(a.coords, b.coords, equal_nan=True)
        and np.array_equal(a.features, b.features, equal_nan=True)
        and np.array_equal(a.labels, b.labels, equal_nan=True)
    )


# -- cost model -----------------------------------------------------------

BUDGET_SCOPES = ("augmentation", "total")


@dataclass(frozen=True)
class CostModel:
    """Per-cluster monetary costs plus a total budget.

    ``c1`` applies to clusters inside the initial strata, ``c2`` outside;
    ``per_cluster_override`` (cluster id to cost) wins over both. It is a
    library-only setting: no command or file sets it. Every cost must be
    positive and finite. ``initial_strata`` must be bound
    (via :meth:`with_initial_strata`) before stratum-dependent costs can be
    queried, unless ``c1 == c2``. ``budget`` is the one budget every
    augmentation spends: new clusters only under the default
    ``budget_scope="augmentation"``, the whole sample under ``"total"``. It
    may be infinite.
    """

    c1: float
    c2: float
    budget: float
    per_cluster_override: Mapping[str, float] | None = None
    initial_strata: frozenset[str] | None = None
    budget_scope: str = BUDGET_SCOPES[0]

    def __post_init__(self):
        if not (self.c2 >= self.c1 > 0):
            raise CostError("cost model requires c2 >= c1 > 0")
        if self.c2 == math.inf:   # c1 <= c2, so this covers c1 too
            raise CostError("cost model requires finite c1 and c2")
        if not (self.budget >= 0):
            raise CostError("budget must be non-negative")
        if self.budget_scope not in BUDGET_SCOPES:
            raise CostError(f"unknown budget_scope {self.budget_scope!r}")
        if self.per_cluster_override:
            for cid, v in self.per_cluster_override.items():
                if not (0 < v < math.inf):
                    raise CostError(f"override for {cid!r} must be positive and finite")

    def with_initial_strata(self, stratum_ids: Iterable[str]) -> "CostModel":
        return replace(self, initial_strata=frozenset(stratum_ids))


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


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as JSON: indent 2, sorted keys, non-ASCII characters as
    ``\\u`` escapes, one trailing newline. Makes the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 ``csv`` module rows with
    CRLF endings; the csv module writes a float field as its repr. Makes the
    parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as a field of a row: unchanged
    unless it holds a character of ``_NEEDS_QUOTES``, else as the csv module
    formats it (a field followed by an empty one, less the trailing ``,\\r\\n``)."""
    if not _NEEDS_QUOTES.search(text):
        return text
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


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
    write_json(path, doc)


def _check_fields(doc, table: Mapping[str, tuple], n_required: int, source: str) -> None:
    """Raise DatasetError unless ``doc`` is a JSON object that holds the first
    ``n_required`` fields of ``table`` and whose every field in ``table``
    passes its type check. ``table`` maps a field to (type check, what the
    field must hold); the error names the field."""
    if not isinstance(doc, dict):
        raise DatasetError(f"{source} must be a JSON object")
    for field in tuple(table)[:n_required]:
        if field not in doc:
            raise DatasetError(f"{source} missing field {field!r}")
    for field, (ok, what) in table.items():
        if field in doc and not ok(doc[field]):
            raise DatasetError(f"{source} field {field!r} must be {what}")


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_IDS = (_is_id_list, "a list of ids")
_INT = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
# sample.json's fields for _check_fields; the first six are required
_SAMPLE_FIELDS = {
    "initial_cluster_ids": _IDS,
    "augment_cluster_ids": _IDS,
    "labeled_points": (
        lambda v: isinstance(v, dict) and all(map(_is_id_list, v.values())), "an object of id lists"
    ),
    "k": _INT,
    "spent": _NUMBER,
    "initial_strata": _IDS,
    "lineage": _IDS,
}
# the fields load_dataset reads of meta.json, and of each of its strata
# entries; the first of each is required
_META_FIELDS = {
    "feature_dim": _INT,
    "n_points": _INT,
    "n_clusters": _INT,
    "n_strata": _INT,
    "split_seed": _INT,
    "test_fraction": _NUMBER,
    "strata": (lambda v: isinstance(v, list), "a list"),
}
_STRATUM_FIELDS = {"stratum_id": (lambda v: type(v) is str, "an id"), "cluster_ids": _IDS}


def load_sample_state(ds: Dataset, path: str | Path) -> SampleState:
    """Read a sample.json against ``ds``, translating ids to rows. A missing or
    mistyped field, an unknown or repeated id, points recorded for an
    unselected cluster or under the wrong cluster, and more than
    ``min(k, size)`` points in a cluster raise :class:`DatasetError`."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"sample file {path} does not exist or is not a file")
    doc = json.loads(path.read_text(encoding="utf-8"))
    _check_fields(doc, _SAMPLE_FIELDS, 6, "sample.json")

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
    unknown = [sid for sid in doc["initial_strata"] if sid not in ds.stratum_ids]
    if unknown:
        raise DatasetError(f"unknown stratum id {unknown[0]!r}")
    for kind, ids in (("cluster", cluster_ids), ("point", point_ids),
                      ("stratum", doc["initial_strata"])):
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

    ``e[i] = min(k, size_i)``. Its split over the G groups, proportional to
    the cluster's group composition so that the group marginals sum back to
    ``e[i]``, is kept as nonzero triples sorted by (row, col): cluster
    ``rows[j]`` expects ``vals[j]`` labeled points in group ``cols[j]``. A
    cluster has one triple per group it holds points of, so nnz = m for admin
    groups and a product with the split costs O(nnz + m).
    """

    e: np.ndarray           # (m,), rows of Dataset.cluster_ids
    rows: np.ndarray        # (nnz,) int, cluster row of each triple
    cols: np.ndarray        # (nnz,) int, group of each triple
    vals: np.ndarray        # (nnz,) expected labeled points
    n_groups: int           # G; 0 when built without groups

    def restrict(self, rows: np.ndarray) -> ExpectedCounts:
        """The counts of the clusters ``rows`` (increasing), renumbered 0, 1,
        ... in that order. A kept cluster keeps its triples in their order,
        so a product with the split adds the same terms per cluster."""
        renumber = np.full(len(self.e), -1, dtype=np.int64)
        renumber[rows] = np.arange(len(rows))
        new_rows = renumber[self.rows]
        keep = new_rows >= 0
        return ExpectedCounts(e=self.e[rows], rows=new_rows[keep], cols=self.cols[keep],
                              vals=self.vals[keep], n_groups=self.n_groups)


def expected_counts(ds: Dataset, gm, k: int) -> ExpectedCounts:
    """Expected labeled points per cluster (and per group) when labeling
    ``min(k, size)`` points uniformly at random within each selected cluster.

    ``gm`` may be None for group-free (size-only) uses.
    """
    if k < 1:
        raise DatasetError("k must be >= 1")
    sizes = ds.cluster_sizes.astype(np.float64)
    e = np.minimum(float(k), sizes)
    if gm is None:
        none = np.zeros(0, dtype=np.int64)
        return ExpectedCounts(e=e, rows=none, cols=none, vals=np.zeros(0), n_groups=0)
    G = gm.n_groups
    keys, n = np.unique(ds.point_cluster * G + gm.assignment, return_counts=True)
    rows, cols = np.divmod(keys, G)
    vals = e[rows] * n.astype(np.float64) / sizes[rows]
    return ExpectedCounts(e=e, rows=rows, cols=cols, vals=vals, n_groups=G)


# -- bundle I/O -----------------------------------------------------------

# the bundle CSV dialect (see the module docstring) as np.loadtxt options
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "encoding": "utf-8"}
_POINTS_COLUMNS = ["point_id", "x", "y", "label", "cluster_id", "stratum_id"]
_POINTS_DTYPE = np.dtype([
    ("point_id", object), ("x", np.float64), ("y", np.float64),
    ("label", np.float64), ("cluster_id", object), ("stratum_id", object),
])
# a label is a number or NA (unknown); see _read_points
_LABEL_CONVERTER = {3: lambda text: float("nan" if text == "NA" else text)}
# points.csv's cluster and stratum ids are read as fixed-width numpy strings
# (4 bytes a character) while the longest listed id has at most this many
# characters; a str object and its pointer take about 60 bytes
_ID_CHARS_MAX = 15
# a float32 (width 0) features.bin is read into the float64 matrix in blocks
# of the rows whose float32 values take at most this many bytes (at least one)
_BIN_BLOCK_BYTES = 1 << 22
# points.csv rows are formatted and written this many at a time
_SAVE_BLOCK_ROWS = 2048
# the characters for which the csv module may quote a field: the delimiter,
# the quote character, CR, LF and NUL (quoted or refused by some versions)
_NEEDS_QUOTES = re.compile('[,"\r\n\0]')
# points.csv is searched for NA and NUL this many bytes at a time (3 ms for
# 150k rows; blocks of 1 MB and up take longer, each a fresh allocation)
_SCAN_BLOCK_BYTES = 1 << 16


def save_dataset(ds: Dataset, path: str | Path,
                 features_format: str = FEATURES_FORMATS[0]) -> None:
    """Write a dataset bundle; ``load_dataset`` reproduces it exactly.

    ``features_format='bin'`` writes the float64 features as they are held,
    with no copy; ``'csv'`` writes them as text. CSV rows are streamed, and
    floats are written as their shortest round-trip ``repr``: features.csv
    goes through :func:`write_csv` a row at a time. points.csv is the bytes
    :func:`write_csv` would write, formatted a block of ``_SAVE_BLOCK_ROWS``
    rows at a time: each column is converted to text at once, each
    cluster's ``cluster_id,stratum_id`` tail once, and only an id that the
    csv module would quote is passed through it (:func:`_csv_field`).
    """
    if features_format not in FEATURES_FORMATS:
        raise DatasetError(f"unknown features format {features_format!r}")
    out = Path(path)
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
    write_json(out / "meta.json", meta)

    # each cluster's "cluster_id,stratum_id" row tail, built once
    tails = [f"{_csv_field(cid)},{_csv_field(ds.stratum_ids[s])}"
             for cid, s in zip(ds.cluster_ids, ds.cluster_stratum.tolist())]
    step = _SAVE_BLOCK_ROWS
    with (out / "points.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_POINTS_COLUMNS) + "\r\n")
        for lo in range(0, ds.n_points, step):
            rows = slice(lo, lo + step)
            pids = ds.point_ids[rows]
            if _NEEDS_QUOTES.search("".join(pids)):
                pids = map(_csv_field, pids)
            labels = ds.labels[rows].tolist()
            label_text = (["NA" if v != v else repr(v) for v in labels]
                          if np.isnan(ds.labels[rows]).any() else map(repr, labels))
            fh.write("".join([
                f"{pid},{x},{y},{label},{tail}\r\n" for pid, x, y, label, tail in zip(
                    pids, map(repr, ds.coords[rows, 0].tolist()),
                    map(repr, ds.coords[rows, 1].tolist()), label_text,
                    map(tails.__getitem__, ds.point_cluster[rows].tolist()),
                )
            ]))
    if features_format == "csv":
        write_csv(out / "features.csv", ["point_id"] + [f"f{j}" for j in range(ds.feature_dim)],
                  ([pid, *row.tolist()] for pid, row in zip(ds.point_ids, ds.features)))
    else:   # into the directory the writers above made
        with (out / "features.bin").open("wb") as fh:
            fh.write(FEATURES_BIN_MAGIC + struct.pack("<III", ds.n_points, ds.feature_dim, 8))
            ds.features.astype("<f8", copy=False).tofile(fh)


def _csv_header(path: Path) -> tuple[list[str] | None, bool]:
    """The header row of a bundle CSV, and whether a data row follows it."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader, None), any(reader)


def _loadtxt(path: Path, **options) -> np.ndarray:
    """``np.loadtxt`` of the rows below a bundle CSV's header. The file is
    opened with ``newline=""``: given a path, numpy opens it with universal
    newlines, which turn a quoted ``\\r`` into ``\\n``."""
    with path.open(newline="", encoding="utf-8") as fh:
        return np.loadtxt(fh, skiprows=1, **_CSV, **options)


def _read_rows(path: Path, n_fields: int, **options) -> np.ndarray:
    """:func:`_loadtxt` of a bundle CSV. A row it rejects raises
    :class:`DatasetError` naming the file and the line."""
    try:
        return _loadtxt(path, **options)
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


def _mentions(path: Path, needle: bytes) -> bool:
    """Whether ``needle`` (one or two bytes) occurs anywhere in ``path``,
    read a block at a time, each after the previous block's last byte. A
    block without its first byte is ruled out by one ``memchr``; the
    two-byte search is slower."""
    tail = b""
    with path.open("rb") as fh:
        while block := fh.read(_SCAN_BLOCK_BYTES):
            block = tail + block
            if needle[:1] in block and needle in block:
                return True
            tail = block[-1:]
    return False


def _points_dtype(path: Path, listed: list[tuple[str, str]]) -> np.dtype:
    """The dtype of points.csv's rows, given the cluster table ``listed``.

    The cluster and stratum ids are numpy strings one character wider than
    the longest listed cluster and stratum id, so that an id longer than
    every listed one, cut to that width, still matches none. They are str
    objects when nothing is listed, when a listed id is not a str or is
    longer than ``_ID_CHARS_MAX``, and when a listed id or the file holds a
    NUL character, which numpy strings drop from the end of an id."""
    columns = (
        [cid for cid, _ in listed],
        [sid for _, sid in listed],
    )
    ids = columns[0] + columns[1]
    if (ids and all(isinstance(i, str) and "\0" not in i for i in ids)
            and max(map(len, ids)) <= _ID_CHARS_MAX and not _mentions(path, b"\0")):
        widths = [1 + max(map(len, column)) for column in columns]
        return np.dtype(_POINTS_DTYPE.descr[:4]
                        + [("cluster_id", f"<U{widths[0]}"), ("stratum_id", f"<U{widths[1]}")])
    return _POINTS_DTYPE


def _read_points(path: Path, listed: list[tuple[str, str]]) -> np.ndarray:
    """The rows of points.csv, labels as float64 with NA as nan, ids typed
    by :func:`_points_dtype` (an empty ``listed`` reads them as str).

    A file in which the bytes ``NA`` never occur holds no NA label, so
    numpy's float parser reads its labels in the pass that reads x and y,
    with no Python call per row. A file with those bytes anywhere, and one
    that pass rejects (a label only Python's ``float`` reads, such as
    ``1_000``, or a bad row), is read with the per-label converter, which
    converts each label as ``float`` does; a row it rejects raises
    :class:`DatasetError` naming the file and the line. So a file with NA
    is parsed once, as fast as by the converter alone."""
    dtype = _points_dtype(path, listed)
    if not _mentions(path, b"NA"):
        try:
            return _loadtxt(path, dtype=dtype, ndmin=1)
        except ValueError:
            pass
    return _read_rows(path, len(_POINTS_COLUMNS), dtype=dtype,
                      converters=_LABEL_CONVERTER, ndmin=1)


def _on_table(points: np.ndarray, cluster_stratum: Mapping[str, str]) -> bool:
    """Whether every row of ``points`` names a cluster of the table and that
    cluster's stratum; ``cluster_stratum`` must not be empty."""
    pcl, psid = points["cluster_id"], points["stratum_id"]
    cids = np.array(list(cluster_stratum), dtype=pcl.dtype)
    by_id = np.argsort(cids)
    cids = cids[by_id]
    sids = np.array(list(cluster_stratum.values()), dtype=psid.dtype)[by_id]
    pos = np.minimum(np.searchsorted(cids, pcl), len(cids) - 1)
    return bool(np.array_equal(cids[pos], pcl) and np.array_equal(sids[pos], psid))


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
    """(n, d) float64 features of ``path``: one read of float64 values, or
    the float32 values of a width-0 file converted block by block."""
    size = path.stat().st_size
    with path.open("rb") as fh:
        header = fh.read(16)
        if header[:4] != FEATURES_BIN_MAGIC:
            raise DatasetError("features.bin has wrong magic")
        # a header cut short fails the size check below
        nrows, dim, width = struct.unpack("<III", header[4:]) if len(header) == 16 else (n, d, 8)
        if width not in (0, 8):
            raise DatasetError(
                f"features.bin has value width {width}, not 8 or 0 (float32); {n} x {d} "
                f"float64 features and the 16-byte header take {16 + 8 * n * d} bytes"
            )
        expected = 16 + (width or 4) * n * d
        if size != expected:
            raise DatasetError(
                f"features.bin holds {size} bytes; {n} x {d} {'float64' if width else 'float32'} "
                f"features and the 16-byte header take {expected}"
            )
        if nrows != n or dim != d:
            raise DatasetError(
                f"features.bin header ({nrows} x {dim}) disagrees with meta ({n} x {d})"
            )
        if width:
            return np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
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
    _check_fields(meta, _META_FIELDS, 1, "meta.json")
    for entry in meta.get("strata", []):
        _check_fields(entry, _STRATUM_FIELDS, 1, "meta.json strata entry")
    d = meta["feature_dim"]

    points_path = root / "points.csv"
    if not points_path.exists():
        raise DatasetError(f"missing points.csv in {root}")
    header, has_rows = _csv_header(points_path)
    if header != _POINTS_COLUMNS:
        missing = [c for c in _POINTS_COLUMNS if header is None or c not in header]
        raise DatasetError(f"points.csv missing columns {missing}")
    # the strata list in meta.json is the authoritative cluster table
    listed = [
        (cid, entry["stratum_id"])
        for entry in meta.get("strata", [])
        for cid in entry.get("cluster_ids", [])
    ]
    if has_rows:
        points = _read_points(points_path, listed)
    else:
        points = np.empty(0, dtype=_POINTS_DTYPE)

    cluster_stratum = dict(listed)
    if len(cluster_stratum) < len(listed):
        cid = min(c for c, n in Counter(c for c, _ in listed).items() if n > 1)
        raise DatasetError(f"cluster {cid!r} listed under two strata")
    if not cluster_stratum:
        raise DatasetError("meta.json strata list carries no cluster rosters")
    if points["cluster_id"].dtype != object and not _on_table(points, cluster_stratum):
        points = _read_points(points_path, [])   # str ids name the offender in full
    if points["cluster_id"].dtype == object:
        point_cluster = points["cluster_id"].tolist()
        stray = set(zip(point_cluster, points["stratum_id"].tolist())) - set(listed)
        if stray:
            cid, sid = min(stray)
            if cid not in cluster_stratum:
                pid = points["point_id"][point_cluster.index(cid)]
                raise DatasetError(
                    f"point {pid!r} references cluster {cid!r} absent from the cluster table"
                )
            raise DatasetError(
                f"cluster {cid!r} stratum mismatch: table says "
                f"{cluster_stratum[cid]!r}, points.csv says {sid!r}"
            )

    features_file = meta.get("features_file")
    if features_file not in (None, "features.csv", "features.bin"):
        raise DatasetError(
            f"meta.json features_file {features_file!r} is neither features.csv nor features.bin"
        )
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
    pids = points["point_id"]
    if features_file == "features.csv":
        features = _read_features_csv(fpath, d, pids)
    else:
        features = _read_features_bin(fpath, len(pids), d)

    ds = build_dataset(
        point_ids=pids,
        coords=np.column_stack((points["x"], points["y"])),
        features=features,
        labels=points["label"].copy(),   # not a view that keeps the table alive
        point_cluster=points["cluster_id"],
        cluster_stratum=cluster_stratum,
        split_seed=meta.get("split_seed", 0),
        test_fraction=float(meta.get("test_fraction", 0.2)),
    )
    # the counts meta.json records, each checked once the dataset is valid
    for field, count, source in (("n_points", ds.n_points, "points.csv"),
                                 ("n_clusters", ds.n_clusters, "the cluster table"),
                                 ("n_strata", len(ds.stratum_ids), "the cluster table")):
        if meta.get(field, count) != count:
            raise DatasetError(f"meta.json {field} disagrees with {source}")
    return ds
