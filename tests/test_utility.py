import numpy as np
import pytest

from geosampler.data import expected_counts
from geosampler.groups import GroupModel, admin_groups, feature_kmeans_groups
from geosampler.utility import (
    InclusionVector,
    UtilityError,
    UtilitySpec,
    aggregates,
    phi_gradient,
    utility_gradient_raw,
    utility_of_sample,
    utility_value,
)

from conftest import counts_from_dense, state_from_ids


def vec(values):
    """Inclusion values, as utility_value takes them."""
    return np.asarray(values, dtype=float)


def group_spec(gamma, lam=0.5, eps=1e-12):
    gamma = np.asarray(gamma, dtype=float)
    G = len(gamma)
    gm = GroupModel(
        kind="admin",
        group_ids=tuple(f"g{i}" for i in range(G)),
        assignment=np.zeros(1, dtype=np.int64),
        gamma=gamma,
    )
    return UtilitySpec(kind="group_rep", lam=lam, epsilon=eps, groups=gm)


SIZE = UtilitySpec(kind="size")


def gradient(values, counts, spec):
    w = phi_gradient(aggregates(values, counts), spec)
    return utility_gradient_raw(w, counts)


class TestSizeUtility:
    def test_full_inclusion(self):
        assert utility_value(vec([1, 1, 1]), counts_from_dense([10, 10, 5]), SIZE) == 25.0

    def test_all_zero(self):
        assert utility_value(vec([0, 0, 0]), counts_from_dense([10, 10, 5]), SIZE) == 0.0

    def test_linearity(self):
        c = counts_from_dense([10, 10, 5])
        assert utility_value(vec([1, 0.5, 0]), c, SIZE) == 15.0
        s = np.array([0.3, 0.7, 0.2])
        assert utility_value(vec(0.5 * s), c, SIZE) == pytest.approx(
            0.5 * utility_value(vec(s), c, SIZE), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(UtilityError, match="clusters"):
            utility_value(vec([1, 0]), counts_from_dense([10, 10, 5]), SIZE)

    def test_group_split_is_ignored(self):
        # size is the G = 0 case of the split: over counts that carry one,
        # it still reads n(s) = s @ e alone, and its gradient is e
        c = counts_from_dense([10, 10, 5], [[4, 6], [10, 0], [0, 5]])
        s = vec([1, 0.5, 0.2])
        z = aggregates(s, c)
        assert len(z) == 3 and z[-1] == s @ c.e
        assert utility_value(s, c, SIZE) == s @ c.e
        np.testing.assert_array_equal(gradient(s, c, SIZE), c.e)


class TestGroupRepUtility:
    def test_single_group_closed_form(self):
        # gamma=1, lam=0.5, n=100: both terms are -0.5/10
        spec = group_spec([1.0])
        c = counts_from_dense([100.0], [[100.0]])
        u = utility_value(vec([1.0]), c, spec)
        assert u == pytest.approx(-0.100, abs=1e-6)

    def test_lambda_zero_is_pure_size_term(self):
        spec = group_spec([1.0], lam=0.0)
        c = counts_from_dense([25.0], [[25.0]])
        u = utility_value(vec([1.0]), c, spec)
        assert u == pytest.approx(-0.200, abs=1e-6)

    def test_balanced_allocation_beats_skewed(self):
        spec = group_spec([0.5, 0.5])
        balanced = counts_from_dense([50.0, 50.0], [[50, 0], [0, 50]])
        skewed = counts_from_dense([90.0, 10.0], [[90, 0], [0, 10]])
        u_bal = utility_value(vec([1, 1]), balanced, spec)
        u_skw = utility_value(vec([1, 1]), skewed, spec)
        # independent evaluation of the formula at both allocations
        ref_bal = -0.5 * (0.5 * 50**-0.5 + 0.5 * 50**-0.5) - 0.5 * 100**-0.5
        ref_skw = -0.5 * (0.5 * 90**-0.5 + 0.5 * 10**-0.5) - 0.5 * 100**-0.5
        assert u_bal == pytest.approx(ref_bal, rel=1e-9)
        assert u_skw == pytest.approx(ref_skw, rel=1e-9)
        assert u_bal == pytest.approx(-0.1207, abs=5e-5)
        assert u_skw == pytest.approx(-0.1554, abs=5e-5)
        assert u_bal > u_skw

    def test_requires_group_model(self):
        with pytest.raises(UtilityError):
            UtilitySpec(kind="group_rep", groups=None)

    def test_group_model_mismatch(self):
        c = counts_from_dense([10.0, 10.0], [[10.0], [10.0]])
        with pytest.raises(UtilityError, match="different group model"):
            utility_value(vec([1, 1]), c, group_spec([0.5, 0.5]))


def random_instance(rng, eps=1e-6):
    m = int(rng.integers(2, 8))
    G = int(rng.integers(1, 5))
    e = rng.integers(0, 20, size=m).astype(float)
    props = rng.dirichlet(np.ones(G), size=m)
    e_group = props * e[:, None]
    gamma = rng.dirichlet(np.ones(G))
    gm = GroupModel(
        kind="admin",
        group_ids=tuple(f"g{i}" for i in range(G)),
        assignment=np.zeros(1, dtype=np.int64),
        gamma=gamma,
    )
    spec = UtilitySpec(
        kind="group_rep", lam=float(rng.uniform(0, 1)), epsilon=eps, groups=gm
    )
    counts = counts_from_dense(e, e_group)
    return counts, spec


class TestGroupRepGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            counts, spec = random_instance(rng)
            s = rng.uniform(0.05, 0.95, size=len(counts.e))
            grad = gradient(s, counts, spec)
            for i in range(len(s)):
                up, dn = s.copy(), s.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    utility_value(vec(up), counts, spec)
                    - utility_value(vec(dn), counts, spec)
                ) / (2 * h)
                if abs(fd) > 1e-12:
                    assert grad[i] == pytest.approx(fd, rel=1e-4)

    def test_zero_expected_count_gives_zero_component(self):
        counts = counts_from_dense([0.0, 10.0], [[0.0], [10.0]])
        spec = group_spec([1.0])
        grad = gradient(np.array([0.5, 0.5]), counts, spec)
        assert grad[0] == 0.0
        assert grad[1] > 0.0

    def test_lambda_zero_collapses_to_size_direction(self):
        counts = counts_from_dense([3.0, 7.0, 1.0], [[3.0], [7.0], [1.0]])
        spec = group_spec([1.0], lam=0.0)
        s = vec([0.5, 0.5, 0.5])
        grad = gradient(s, counts, spec)
        n = float(s @ counts.e)
        factor = 0.5 * (n + spec.epsilon) ** -1.5
        np.testing.assert_allclose(grad, factor * counts.e, rtol=1e-12)


class TestInvariants:
    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts, spec = random_instance(rng)
            s = rng.uniform(0, 0.9, size=len(counts.e))
            i = int(rng.integers(len(s)))
            up = s.copy()
            up[i] += 0.1
            assert utility_value(vec(up), counts, spec) >= utility_value(
                vec(s), counts, spec
            ) - 1e-12
            assert utility_value(vec(up), counts, SIZE) >= utility_value(vec(s), counts, SIZE)

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            counts, spec = random_instance(rng)
            s = rng.uniform(0, 1, size=len(counts.e))
            t = rng.uniform(0, 1, size=len(counts.e))
            mid = 0.5 * (s + t)
            assert utility_value(vec(mid), counts, spec) >= (
                0.5 * utility_value(vec(s), counts, spec)
                + 0.5 * utility_value(vec(t), counts, spec)
                - 1e-9
            )

    def test_lambda_continuity_and_argmax_equivalence(self):
        rng = np.random.default_rng(2)
        counts, _ = random_instance(rng)
        gm = group_spec([1.0]).groups
        m = len(counts.e)
        counts = counts_from_dense(rng.integers(1, 20, size=m).astype(float),
                           rng.uniform(0, 5, size=(m, 1)))
        candidates = [rng.uniform(0, 1, size=m) for _ in range(20)]
        # continuity: value at lam=1e-9 close to value at lam=0
        s = candidates[0]
        u0 = utility_value(
            vec(s), counts, UtilitySpec("group_rep", lam=0.0, epsilon=1e-6, groups=gm)
        )
        u_eps = utility_value(
            vec(s), counts, UtilitySpec("group_rep", lam=1e-9, epsilon=1e-6, groups=gm)
        )
        assert u_eps == pytest.approx(u0, abs=1e-8)
        # at lam=0 the utility is -(n+eps)^(-1/2): same argmax as size utility
        spec0 = UtilitySpec("group_rep", lam=0.0, epsilon=1e-6, groups=gm)
        by_group_rep = max(
            range(len(candidates)),
            key=lambda i: utility_value(vec(candidates[i]), counts, spec0),
        )
        by_size = max(
            range(len(candidates)),
            key=lambda i: utility_value(vec(candidates[i]), counts, SIZE),
        )
        assert by_group_rep == by_size

    def test_committed_mask_enforced(self):
        committed = np.array([True, False])
        with pytest.raises(UtilityError, match="committed"):
            InclusionVector(values=np.array([0.5, 0.5]), committed=committed)
        with pytest.raises(UtilityError, match="0, 1"):
            InclusionVector(values=np.array([1.2, 0.0]), committed=np.zeros(2, bool))


class TestUtilityOfSample:
    def make_sample(self, ds, per_cluster):
        labeled = {}
        for cid, count in per_cluster.items():
            labeled[cid] = ds.cluster(cid).point_ids[:count]
        return state_from_ids(
            ds,
            initial=tuple(sorted(per_cluster)),
            labeled=labeled,
            k=100,
            spent=0.0,
            initial_strata=frozenset({0, 1}),
        )

    def test_realized_size(self, small_ds):
        state = self.make_sample(small_ds, {"ca": 2, "cb": 3})
        spec = UtilitySpec(kind="size")
        assert utility_of_sample(state, spec) == 5.0

    def test_adding_a_point_strictly_increases(self, small_ds):
        from geosampler.groups import admin_groups

        gm = admin_groups(small_ds)
        spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=gm)
        lo = self.make_sample(small_ds, {"ca": 2})
        hi = self.make_sample(small_ds, {"ca": 3})
        assert utility_of_sample(hi, spec) > utility_of_sample(lo, spec)

    def test_matches_inclusion_vector_when_fully_labeled(self, small_ds):
        from geosampler.groups import admin_groups

        gm = admin_groups(small_ds)
        spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=gm)
        sizes = dict(zip(small_ds.cluster_ids, small_ds.cluster_sizes.tolist()))
        state = self.make_sample(small_ds, sizes)   # k >= size everywhere
        counts = expected_counts(small_ds, gm, k=100)
        s = vec(np.ones(small_ds.n_clusters))
        assert utility_of_sample(state, spec) == pytest.approx(
            utility_value(s, counts, spec), rel=1e-12
        )

    def test_empty_sample_with_zero_epsilon(self, small_ds):
        # epsilon = 0 is rejected at spec construction, which closes the
        # division-by-zero route entirely
        with pytest.raises(UtilityError, match="epsilon"):
            UtilitySpec(kind="size", epsilon=0.0)


# The group sums of z add each group's terms in cluster order, where the dense
# product left the order to BLAS: on these 36-cluster instances they differ by
# at most 4 ulps (measured), so allow 8.
Z_ULPS = 8


class TestSparseProducts:
    """The triple-based products against a dense (m, G) group split built here
    from the points, the way the split was once stored."""

    @staticmethod
    def dense_split(ds, gm, counts):
        n = np.zeros((ds.n_clusters, gm.n_groups))
        np.add.at(n, (ds.point_cluster, gm.assignment), 1.0)
        return counts.e[:, None] * n / ds.cluster_sizes.astype(np.float64)[:, None]

    def products(self, ds, gm, seed):
        counts = expected_counts(ds, gm, k=10)
        spec = UtilitySpec(kind="group_rep", lam=0.4, groups=gm)
        dense = self.dense_split(ds, gm, counts)
        s = np.random.default_rng(seed).uniform(0, 1, ds.n_clusters)
        z = aggregates(s, counts)
        w = phi_gradient(z, spec)
        return (
            z[:-1], s @ dense,
            utility_gradient_raw(w, counts), dense @ w[:-1] + counts.e * w[-1],
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_admin_groups(self, synth_ds, seed):
        z, z_dense, grad, grad_dense = self.products(synth_ds, admin_groups(synth_ds), seed)
        # one nonzero per cluster: each gradient entry is one product, as in the dense sum
        assert grad.tobytes() == grad_dense.tobytes()
        assert np.all(np.abs(z - z_dense) <= Z_ULPS * np.spacing(z_dense))

    @pytest.mark.parametrize("seed", range(5))
    def test_feature_kmeans_groups(self, synth_ds, seed):
        gm = feature_kmeans_groups(synth_ds, 4, seed=0)
        assert len(expected_counts(synth_ds, gm, k=10).rows) > synth_ds.n_clusters
        z, z_dense, grad, grad_dense = self.products(synth_ds, gm, seed)
        assert np.all(np.abs(z - z_dense) <= Z_ULPS * np.spacing(z_dense))
        assert np.all(np.abs(grad - grad_dense) <= Z_ULPS * np.spacing(grad_dense))

    def test_groupless_counts_have_integer_empty_triples(self, synth_ds):
        counts = expected_counts(synth_ds, None, k=10)
        assert counts.n_groups == 0
        for index in (counts.rows, counts.cols):
            assert index.shape == (0,) and np.issubdtype(index.dtype, np.integer)
        assert counts.vals.shape == (0,)
        # bincount refuses a float index array; these give the empty split
        np.testing.assert_array_equal(
            np.bincount(counts.rows, weights=counts.vals, minlength=synth_ds.n_clusters),
            np.zeros(synth_ds.n_clusters),
        )
        assert np.bincount(counts.cols, weights=counts.vals, minlength=0).shape == (0,)
