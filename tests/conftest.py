import numpy as np
import pytest

from geosampler.data import ExpectedCounts, SampleState, build_dataset
from geosampler.synth import SynthConfig, generate


def toy_dataset(
    cluster_sizes: dict[str, int],
    cluster_stratum: dict[str, str],
    d: int = 3,
    seed: int = 0,
    test_fraction: float = 0.0,
    label_fn=None,
):
    """Hand-rolled dataset: clusters with given sizes, simple features/labels."""
    rng = np.random.default_rng(seed)
    point_ids, point_cluster = [], []
    i = 0
    for cid in sorted(cluster_sizes):
        for _ in range(cluster_sizes[cid]):
            point_ids.append(f"p{i:04d}")
            point_cluster.append(cid)
            i += 1
    n = len(point_ids)
    coords = rng.uniform(0, 10, size=(n, 2))
    features = rng.normal(size=(n, d))
    if label_fn is None:
        labels = rng.normal(size=n)
    else:
        labels = np.array([label_fn(features[j]) for j in range(n)], dtype=float)
    return build_dataset(
        point_ids=point_ids,
        coords=coords,
        features=features,
        labels=labels,
        point_cluster=point_cluster,
        cluster_stratum=cluster_stratum,
        split_seed=seed,
        test_fraction=test_fraction,
    )


def state_from_ids(ds, initial=(), augment=(), labeled=None, **fields):
    """A SampleState named by ids: ``labeled`` maps a selected cluster id to
    its labeled point ids. Rows follow the state's layout: grouped by cluster
    in ``initial`` then ``augment`` order."""
    labeled = labeled or {}
    pids = [pid for cid in (*initial, *augment) for pid in labeled.get(cid, ())]
    return SampleState(
        initial=ds.cluster_indices(initial),
        augment=ds.cluster_indices(augment),
        labeled=ds.point_indices(pids),
        **fields,
    )


def labeled_ids(ds, state):
    """{cluster id: labeled point ids} of a state, in the state's order."""
    owner = ds.point_cluster[state.labeled]
    return {
        ds.cluster_ids[j]: tuple(ds.point_ids[i] for i in state.labeled[owner == j])
        for j in state.clusters
    }


def counts_from_dense(e, e_group=None):
    """ExpectedCounts from per-cluster totals ``e`` and a dense (m, G) group
    split (None: no groups); its nonzero entries become the triples."""
    e = np.asarray(e, dtype=float)
    e_group = np.zeros((len(e), 0)) if e_group is None else np.asarray(e_group, dtype=float)
    rows, cols = np.nonzero(e_group)
    return ExpectedCounts(e=e, rows=rows, cols=cols, vals=e_group[rows, cols],
                          n_groups=e_group.shape[1])


def dense_groups(counts):
    """The group split of ``counts`` as a dense (m, G) matrix."""
    dense = np.zeros((len(counts.e), counts.n_groups))
    dense[counts.rows, counts.cols] = counts.vals
    return dense


def assert_states_equal(a, b):
    for name in ("initial", "augment", "labeled"):
        got = getattr(b, name)
        np.testing.assert_array_equal(got, getattr(a, name))
        assert got.dtype == np.int64
    assert (a.k, a.spent, a.initial_strata, a.infeasible, a.lineage) == (
        b.k, b.spent, b.initial_strata, b.infeasible, b.lineage
    )


@pytest.fixture
def small_ds():
    return toy_dataset(
        cluster_sizes={"ca": 4, "cb": 6, "cc": 5},
        cluster_stratum={"ca": "s0", "cb": "s0", "cc": "s1"},
        d=3,
        seed=11,
    )


@pytest.fixture
def synth_ds():
    cfg = SynthConfig(
        strata_grid=(3, 2),
        clusters_per_stratum=6,
        points_per_cluster=(12, 20),
        feature_dim=4,
        coef_dispersion=0.8,
        target_snr=10.0,
        seed=5,
    )
    ds, _ = generate(cfg)
    return ds
