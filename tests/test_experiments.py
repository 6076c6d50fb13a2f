import csv
from pathlib import Path

import pytest

from geosampler.experiments import (
    ConfigError,
    ExperimentConfig,
    UtilityConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    dataset_content_hash,
    run_augmentation,
    run_cost_sweep,
    run_initial_size_sweep,
    run_rank_study,
)
from geosampler.synth import SynthConfig


def small_cfg(**kw):
    base = dict(
        synth=SynthConfig(
            strata_grid=(3, 2),
            clusters_per_stratum=6,
            points_per_cluster=(12, 18),
            feature_dim=4,
            coef_dispersion=1.0,
            target_snr=10.0,
            seed=31,
        ),
        n_strata=2,
        k=8,
        initial_size=60,
        strata_seed=4,
        c1=25.0,
        c2=50.0,
        budgets=(100.0,),
        seeds=(0, 1),
        utilities=(UtilityConfig(kind="group_rep", groups="admin"),),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(dataset=None, synth=None)
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(dataset="x", synth=SynthConfig())

    def test_round_trips_through_dict(self):
        cfg = small_cfg()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_content(self):
        assert config_hash(small_cfg()) != config_hash(small_cfg(k=9))

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigError, match="baseline"):
            small_cfg(baselines=("bogus",))


class TestRunAugmentation:
    def test_table_shape_and_provenance(self, tmp_path):
        cfg = small_cfg()
        records = run_augmentation(cfg, tmp_path)
        methods = {"default", "greedy", "random", "rep-admin"}
        assert {r["method"] for r in records} == methods
        assert len(records) == len(cfg.seeds) * len(cfg.budgets) * len(methods)

        runs = read_csv(tmp_path / "runs.csv")
        assert len(runs) == len(records)
        assert runs[0]["config_hash"] == config_hash(cfg)
        assert all(r["dataset_hash"] == runs[0]["dataset_hash"] for r in runs)

        table = read_csv(tmp_path / "table.csv")
        assert len(table) == len(cfg.budgets) * len(methods)
        assert {"mean_r2", "std_r2", "stderr_r2", "status"} <= set(table[0])

    def test_zero_budget_cell_equals_initial_r2(self, tmp_path):
        cfg = small_cfg(budgets=(0.0,), baselines=("random",), utilities=(), seeds=(3,))
        records = run_augmentation(cfg, tmp_path)
        assert len(records) == 1
        assert records[0]["r2"] == records[0]["initial_r2"]
        assert records[0]["spent"] == 0.0

    @pytest.mark.parametrize(
        "runner, table_name",
        [
            (run_augmentation, "table.csv"),
            (run_cost_sweep, "sweep.csv"),
            (run_initial_size_sweep, "size_sweep.csv"),
        ],
    )
    def test_infeasible_cell_reported(self, tmp_path, runner, table_name):
        # tiny strata cannot realize a huge default-sampling budget
        cfg = small_cfg(
            budgets=(100000.0,), baselines=("default",), c2_sweep=(50.0,),
            initial_sizes=(60,),
        )
        runner(cfg, tmp_path)
        arm = "arm" if runner is run_initial_size_sweep else "method"
        table = read_csv(tmp_path / table_name)
        row = next(r for r in table if r[arm] == "default")
        assert row["status"] == "infeasible"
        stats = [v for k, v in row.items() if k.startswith(("mean_", "std_", "stderr_"))]
        assert stats and all(v == "" for v in stats)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_cfg()
        run_augmentation(cfg, tmp_path / "a")
        run_augmentation(cfg, tmp_path / "b")
        for name in ("runs.csv", "table.csv", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestRunRankStudy:
    def rank_cfg(self):
        return small_cfg(
            synth=SynthConfig(
                strata_grid=(3, 2),
                clusters_per_stratum=10,
                points_per_cluster=(16, 24),
                feature_dim=4,
                coef_dispersion=1.2,
                target_snr=10.0,
                seed=33,
            ),
            n_strata=3,
            rank_sizes=(40, 80, 120, 160),
            seeds=(0, 1),
        )

    def test_samples_and_rho_tables(self, tmp_path):
        cfg = self.rank_cfg()
        records = run_rank_study(cfg, tmp_path)
        types = {r["sampling_type"] for r in records}
        assert types == {"cluster", "convenience", "random"}
        samples = read_csv(tmp_path / "samples.csv")
        assert len(samples) == len(records)
        rho = read_csv(tmp_path / "rho.csv")
        scopes = {r["scope"] for r in rho}
        assert scopes == {"cluster", "convenience", "random", "overall"}
        utilities = {r["utility"] for r in rho}
        assert utilities == {"u_size", "u_rep-admin"}
        # overall rho is computed over the concatenation of all three types
        overall = [r for r in rho if r["scope"] == "overall"][0]
        assert int(overall["n_samples"]) == len(records)

    def test_size_utility_tracks_r2_under_random_sampling(self, tmp_path):
        cfg = self.rank_cfg()
        run_rank_study(cfg, tmp_path)
        rho = read_csv(tmp_path / "rho.csv")
        row = [r for r in rho if r["scope"] == "random" and r["utility"] == "u_size"][0]
        assert float(row["rho"]) > 0

    def test_unreachable_cluster_sizes_skipped_with_warning(self, tmp_path):
        cfg = self.rank_cfg()
        cfg = small_cfg(
            synth=cfg.synth, n_strata=1, rank_sizes=(40, 100000), seeds=(0,)
        )
        with pytest.warns(UserWarning, match="skipped"):
            records = run_rank_study(cfg, tmp_path)
        assert all(r["size"] == 40 for r in records)


class TestRunCostSweep:
    def test_row_count_and_direction_columns(self, tmp_path):
        cfg = small_cfg(c2_sweep=(25.0, 40.0), seeds=(0, 1))
        run_cost_sweep(cfg, tmp_path)
        sweep = read_csv(tmp_path / "sweep.csv")
        methods = 4
        assert len(sweep) == 2 * methods
        assert {"mean_delta_r2", "std_delta_r2", "stderr_delta_r2"} <= set(sweep[0])

    def test_c2_equal_c1_degenerates_to_uniform_costs(self, tmp_path):
        cfg = small_cfg(c2_sweep=(25.0,), baselines=("greedy",), utilities=(), seeds=(0,))
        records = run_cost_sweep(cfg, tmp_path)
        # with c1 = c2 = 25 and budget 100, greedy buys exactly 4 clusters
        assert records[0]["spent"] == 100.0

    def test_swept_c2_below_c1_rejected(self, tmp_path):
        cfg = small_cfg(c2_sweep=(10.0,))
        with pytest.raises(ConfigError, match="below c1"):
            run_cost_sweep(cfg, tmp_path)


class TestRunInitialSizeSweep:
    def test_zero_budget_arms_are_equal(self, tmp_path):
        cfg = small_cfg(budgets=(0.0,), initial_sizes=(40, 60), seeds=(0, 1))
        records = run_initial_size_sweep(cfg, tmp_path)
        by_key = {}
        for r in records:
            by_key.setdefault((r["initial_size"], r["seed"]), {})[r["arm"]] = r
        for pair in by_key.values():
            assert pair["optimized"]["r2"] == pair["default"]["r2"]
            assert pair["optimized"]["total_cost"] == pair["default"]["total_cost"]

    def test_emits_total_cost_for_cost_matched_plotting(self, tmp_path):
        cfg = small_cfg(initial_sizes=(40,), seeds=(0,))
        run_initial_size_sweep(cfg, tmp_path)
        runs = read_csv(tmp_path / "size_runs.csv")
        assert {"total_cost", "budget", "spent"} <= set(runs[0])
        for r in runs:
            assert float(r["total_cost"]) >= float(r["spent"])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg(initial_sizes=(40, 60), seeds=(0,))
        run_initial_size_sweep(cfg, tmp_path / "a")
        run_initial_size_sweep(cfg, tmp_path / "b")
        for name in ("size_runs.csv", "size_sweep.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


def test_dataset_hash_stable_and_sensitive():
    from geosampler.synth import generate

    ds1, _ = generate(SynthConfig(seed=1))
    ds1b, _ = generate(SynthConfig(seed=1))
    ds2, _ = generate(SynthConfig(seed=2))
    assert dataset_content_hash(ds1) == dataset_content_hash(ds1b)
    assert dataset_content_hash(ds1) != dataset_content_hash(ds2)
