"""The integer-indexed Dataset against per-cluster reference loops.

Each ``ref_*`` function is the string-keyed loop the columnar code replaced,
run on the ids the dataset stores; the columnar results must match exactly.
"""

import hashlib

import numpy as np
import pytest

from geosampler.data import (
    CostError,
    CostModel,
    SampleState,
    build_dataset,
    cluster_cost,
    cluster_costs,
    expected_counts,
    split_masks_from_seed,
)
from geosampler.experiments import dataset_content_hash
from geosampler.groups import GroupModel, admin_groups
from geosampler.samplers import _priced
from geosampler.synth import SynthConfig, generate

from conftest import dense_groups, toy_dataset


def point_cluster_ids(ds):
    return [ds.cluster_ids[j] for j in ds.point_cluster]


def ref_rows_by_cluster(ds):
    rows = {cid: [] for cid in ds.cluster_ids}
    for i, cid in enumerate(point_cluster_ids(ds)):
        rows[cid].append(i)
    return {cid: np.array(r, dtype=np.int64) for cid, r in rows.items()}


def ref_cluster_is_source(ds):
    rows = ref_rows_by_cluster(ds)
    return np.array([bool(ds.train_mask[rows[cid]].all()) for cid in ds.cluster_ids])


def ref_e_group(ds, gm, k):
    rows = ref_rows_by_cluster(ds)
    G = len(gm.gamma)
    sizes = np.array([len(rows[cid]) for cid in ds.cluster_ids], dtype=np.float64)
    e = np.minimum(float(k), sizes)
    e_group = np.zeros((len(ds.cluster_ids), G))
    for j, cid in enumerate(ds.cluster_ids):
        counts = np.bincount(gm.assignment[rows[cid]], minlength=G).astype(np.float64)
        e_group[j] = e[j] * counts / sizes[j]
    return e_group


def ref_admin_assignment(ds):
    stratum_of = {c.cluster_id: c.stratum_id for c in map(ds.cluster, ds.cluster_ids)}
    sid_index = {sid: i for i, sid in enumerate(ds.stratum_ids)}
    return np.array([sid_index[stratum_of[cid]] for cid in point_cluster_ids(ds)])


def ref_split_masks(ds, split_seed, test_fraction):
    rows = ref_rows_by_cluster(ds)
    labeled = ~np.isnan(ds.labels)
    total_labeled = int(labeled.sum())
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(len(ds.cluster_ids))
    test_mask = np.zeros(ds.n_points, dtype=bool)
    got = 0
    target = test_fraction * total_labeled
    for j in order:
        if got >= target:
            break
        r = rows[ds.cluster_ids[j]]
        test_mask[r] = True
        got += int(labeled[r].sum())
    return ~test_mask & labeled, test_mask & labeled


def ref_augment_candidates(ds, state):
    rows = ref_rows_by_cluster(ds)
    source = ref_cluster_is_source(ds)
    sampled = {ds.cluster_ids[j] for j in state.clusters}
    return [
        j for j, cid in enumerate(ds.cluster_ids)
        if source[j] and np.any(~np.isnan(ds.labels[rows[cid]])) and cid not in sampled
    ]


def ref_content_hash(ds):
    h = hashlib.sha256()
    h.update("\x00".join(ds.point_ids).encode("utf-8"))
    h.update("\x00".join(point_cluster_ids(ds)).encode("utf-8"))
    for c in map(ds.cluster, ds.cluster_ids):
        h.update(f"{c.cluster_id}|{c.stratum_id}".encode("utf-8"))
    for arr in (ds.coords, ds.features, ds.labels, ds.train_mask, ds.test_mask):
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def prediction_only_dataset(seed):
    """Toy clusters where points with a large first feature have no label."""
    return toy_dataset(
        cluster_sizes={"ca": 7, "cb": 5, "cc": 9, "cd": 3, "ce": 6},
        cluster_stratum={"ca": "s0", "cb": "s0", "cc": "s1", "cd": "s1", "ce": "s2"},
        seed=seed,
        test_fraction=0.3,
        label_fn=lambda x: np.nan if x[0] > 0.8 else float(x.sum()),
    )


def synth_dataset(seed):
    ds, _ = generate(SynthConfig(
        strata_grid=(3, 2), clusters_per_stratum=5, points_per_cluster=(3, 12),
        feature_dim=3, seed=seed,
    ))
    return ds


DATASETS = [("synth", s) for s in range(5)] + [("prediction-only", s) for s in range(5)]


@pytest.fixture(params=DATASETS, ids=[f"{kind}-{seed}" for kind, seed in DATASETS])
def ds(request):
    kind, seed = request.param
    ds = synth_dataset(seed) if kind == "synth" else prediction_only_dataset(seed)
    if kind == "prediction-only":
        assert np.isnan(ds.labels).any()
    return ds


def test_csr_rows_match_reference(ds):
    ref = ref_rows_by_cluster(ds)
    for j, cid in enumerate(ds.cluster_ids):
        np.testing.assert_array_equal(ds.rows_of_cluster(j), ref[cid])
        assert ds.cluster(cid).point_ids == tuple(ds.point_ids[i] for i in ref[cid])
    np.testing.assert_array_equal(ds.cluster_sizes, [len(ref[c]) for c in ds.cluster_ids])


def test_cluster_is_source_matches_reference(ds):
    np.testing.assert_array_equal(ds.cluster_is_source, ref_cluster_is_source(ds))


def test_split_masks_match_reference(ds):
    train, test = ref_split_masks(ds, ds.split_seed, ds.test_fraction)
    np.testing.assert_array_equal(ds.train_mask, train)
    np.testing.assert_array_equal(ds.test_mask, test)
    for seed, fraction in ((1, 0.0), (2, 0.1), (3, 0.5), (4, 1.0)):
        got = split_masks_from_seed(ds.point_cluster, ds.n_clusters, ds.labels, seed, fraction)
        want = ref_split_masks(ds, seed, fraction)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_admin_groups_match_reference(ds):
    gm = admin_groups(ds)
    np.testing.assert_array_equal(gm.assignment, ref_admin_assignment(ds))
    assert gm.group_ids == ds.stratum_ids


@pytest.mark.parametrize("k", [1, 4, 10])
def test_expected_counts_match_reference_bit_for_bit(ds, k):
    rng = np.random.default_rng(k)
    gm_admin = admin_groups(ds)
    assignment = rng.integers(0, 3, size=ds.n_points)
    gm_random = GroupModel(kind="admin", group_ids=("g0", "g1", "g2"),
                           assignment=assignment, gamma=np.full(3, 1 / 3))
    for gm in (gm_admin, gm_random):
        counts = expected_counts(ds, gm, k)
        assert dense_groups(counts).tobytes() == ref_e_group(ds, gm, k).tobytes()


def test_augment_candidates_match_reference(ds):
    state = SampleState(
        initial=[0, 1], augment=(), labeled=(), k=3, spent=0.0, initial_strata=frozenset(),
    )
    cand = _priced(ds, state, CostModel(c1=25.0, c2=25.0, budget=0.0))[3]
    assert cand.tolist() == ref_augment_candidates(ds, state)


def test_content_hash_bytes_unchanged(ds):
    assert dataset_content_hash(ds) == ref_content_hash(ds)


def test_cluster_costs_match_cluster_cost(ds):
    overrides = {ds.cluster_ids[0]: 7.5, ds.cluster_ids[-1]: 80.25, "not-a-cluster": 3.0}
    initial = set(ds.stratum_ids[:1])
    for cm in (
        CostModel(c1=25.0, c2=50.0, budget=100.0).with_initial_strata(initial),
        CostModel(c1=25.0, c2=50.0, budget=100.0, per_cluster_override=overrides)
        .with_initial_strata(initial),
        CostModel(c1=30.0, c2=30.0, budget=100.0, per_cluster_override=overrides),
    ):
        want = [cluster_cost(cm, ds.cluster(cid)) for cid in ds.cluster_ids]
        assert cluster_costs(cm, ds).tolist() == want


def test_cluster_costs_unbound_model_rejected(ds):
    with pytest.raises(CostError, match="initial strata"):
        cluster_costs(CostModel(c1=25.0, c2=50.0, budget=100.0), ds)


def test_train_side_cluster_with_unlabeled_point_is_not_source():
    ds = build_dataset(
        point_ids=["p0", "p1", "p2", "p3", "p4"],
        coords=np.zeros((5, 2)),
        features=np.ones((5, 2)),
        labels=np.array([1.0, 2.0, 3.0, np.nan, 4.0]),
        point_cluster=["ca", "ca", "cb", "cb", "cc"],
        cluster_stratum={"ca": "s0", "cb": "s0", "cc": "s1"},
        test_fraction=0.0,
    )
    assert not ds.test_mask.any()
    assert ds.train_mask.tolist() == [True, True, True, False, True]
    assert ds.cluster_is_source.tolist() == [True, False, True]
    np.testing.assert_array_equal(ds.cluster_is_source, ref_cluster_is_source(ds))
