from dataclasses import replace

import numpy as np
import pytest

from geosampler.groups import (
    GroupError,
    admin_groups,
    auxiliary_kmeans_groups,
    feature_kmeans_groups,
    load_group_model,
    save_group_model,
)


def test_admin_groups_follow_strata(synth_ds):
    gm = admin_groups(synth_ds)
    assert gm.kind == "admin"
    assert gm.group_ids == synth_ds.stratum_ids
    sid_of = {
        pid: c.stratum_id
        for c in map(synth_ds.cluster, synth_ds.cluster_ids) for pid in c.point_ids
    }
    for i, pid in enumerate(synth_ds.point_ids):
        assert gm.group_ids[gm.assignment[i]] == sid_of[pid]


def test_gamma_is_population_share(synth_ds):
    gm = admin_groups(synth_ds)
    assert gm.gamma.sum() == pytest.approx(1.0, abs=1e-12)
    counts = np.bincount(gm.assignment, minlength=gm.n_groups)
    np.testing.assert_allclose(gm.gamma, counts / synth_ds.n_points)


def test_gamma_override(synth_ds):
    G = len(synth_ds.stratum_ids)
    gamma = np.full(G, 1.0 / G)
    gm = replace(admin_groups(synth_ds), gamma=gamma)
    np.testing.assert_array_equal(gm.gamma, gamma)


def test_gamma_must_sum_to_one(synth_ds):
    G = len(synth_ds.stratum_ids)
    with pytest.raises(GroupError, match="sum to 1"):
        replace(admin_groups(synth_ds), gamma=np.full(G, 0.3))


def test_feature_kmeans_groups_deterministic(synth_ds):
    a = feature_kmeans_groups(synth_ds, n_groups=4, seed=9)
    b = feature_kmeans_groups(synth_ds, n_groups=4, seed=9)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.kind == "feature-kmeans"
    assert a.n_groups == 4


def test_auxiliary_kmeans_groups(synth_ds):
    rng = np.random.default_rng(3)
    aux = rng.dirichlet(np.ones(4), size=synth_ds.n_points)
    gm = auxiliary_kmeans_groups(synth_ds, aux, n_groups=3, seed=1)
    assert gm.kind == "auxiliary-kmeans"
    assert gm.assignment.shape == (synth_ds.n_points,)
    with pytest.raises(GroupError, match="rows"):
        auxiliary_kmeans_groups(synth_ds, aux[:5], n_groups=3)


def test_group_model_file_round_trip(tmp_path, synth_ds):
    gm = feature_kmeans_groups(synth_ds, n_groups=3, seed=2)
    save_group_model(gm, synth_ds, tmp_path)
    again = load_group_model(tmp_path, synth_ds)
    assert again.kind == gm.kind
    assert again.group_ids == gm.group_ids
    np.testing.assert_array_equal(again.assignment, gm.assignment)
    np.testing.assert_allclose(again.gamma, gm.gamma)
