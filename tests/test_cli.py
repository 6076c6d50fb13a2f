import csv
import json
import math

import pytest

from geosampler.cli import main
from geosampler.data import load_dataset


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def bundle(tmp_path):
    out = tmp_path / "bundle"
    code = run_cli(
        "generate", "--out-dir", out, "--seed", 3,
        "--strata-grid", "4x2", "--clusters-per-stratum", 8,
        "--points-per-cluster", "15:25", "--feature-dim", 5,
        "--coef-dispersion", 1.0, "--target-snr", 8,
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_complete_bundle(self, bundle):
        for name in ("meta.json", "points.csv", "features.csv", "costs.json", "truth.json"):
            assert (bundle / name).exists()
        ds = load_dataset(bundle)
        assert ds.n_clusters == 64

    def test_binary_features_format(self, tmp_path):
        out = tmp_path / "binbundle"
        assert run_cli("generate", "--out-dir", out, "--seed", 1,
                       "--features-format", "bin") == 0
        assert (out / "features.bin").exists()
        load_dataset(out)

    def test_config_file_overrides_flags(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"feature_dim": 7}))
        out = tmp_path / "b"
        assert run_cli("generate", "--out-dir", out, "--seed", 1,
                       "--feature-dim", 3, "--config", cfgfile) == 0
        assert load_dataset(out).feature_dim == 7

    def test_bad_grid_is_config_error(self, tmp_path):
        assert run_cli("generate", "--out-dir", tmp_path / "x", "--seed", 1,
                       "--strata-grid", "3x2x1") == 2


class TestGroups:
    def test_admin_and_feature_groups(self, bundle, tmp_path):
        assert run_cli("groups", "--dataset", bundle, "--kind", "admin",
                       "--seed", 0, "--out-dir", tmp_path / "ga") == 0
        assert run_cli("groups", "--dataset", bundle, "--kind", "feature",
                       "--n-groups", 4, "--seed", 0, "--out-dir", tmp_path / "gf") == 0
        assert (tmp_path / "ga" / "groups.csv").exists()
        assert (tmp_path / "gf" / "gamma.json").exists()

    def test_aux_groups_from_csv(self, bundle, tmp_path):
        ds = load_dataset(bundle)
        aux = tmp_path / "aux.csv"
        with aux.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_id", "a0", "a1"])
            for i, pid in enumerate(ds.point_ids):
                w.writerow([pid, i % 3, (i // 3) % 2])
        assert run_cli("groups", "--dataset", bundle, "--kind", "aux",
                       "--aux-file", aux, "--n-groups", 3, "--seed", 0,
                       "--out-dir", tmp_path / "gx") == 0

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run_cli("groups", "--dataset", tmp_path / "nope", "--kind", "admin",
                       "--seed", 0, "--out-dir", tmp_path / "g") == 2


class TestOptimize:
    def test_writes_solution_files(self, bundle, tmp_path):
        out = tmp_path / "opt"
        code = run_cli(
            "optimize", "--dataset", bundle, "--out-dir", out, "--seed", 1,
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budget", 200, "--utility", "rep-admin",
        )
        assert code == 0
        assert (out / "inclusion.csv").exists()
        meta = json.loads((out / "solve_meta.json").read_text())
        # the relaxed cost is a float sum: the solver allows 1e-9 relative slack
        assert meta["budget_used"] <= 200 * (1 + 1e-9)
        assert math.isfinite(meta["utility"])
        assert (out / "sample.json").exists()

    def test_readme_away_step_rule_certifies_gap(self, bundle, tmp_path):
        out = tmp_path / "opt"
        code = run_cli(
            "optimize", "--dataset", bundle, "--out-dir", out, "--seed", 1,
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budget", 250, "--utility", "rep-admin", "--step-rule", "away",
        )
        assert code == 0
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["gap"] <= 1e-6 * max(1.0, abs(meta["utility"]))

    def test_solves_once_and_rounding_matches_sample(self, bundle, tmp_path, monkeypatch):
        import geosampler.cli
        import geosampler.samplers

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for module in (geosampler.cli, geosampler.samplers):
            monkeypatch.setattr(module, "solve_relaxation", counted(module.solve_relaxation))
        out = tmp_path / "opt"
        assert run_cli(
            "optimize", "--dataset", bundle, "--out-dir", out, "--seed", 1,
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budget", 200, "--utility", "rep-admin",
        ) == 0
        assert len(calls) == 1
        rows = list(csv.DictReader((out / "inclusion.csv").open()))
        selected = [r["cluster_id"] for r in rows if r["selected_after_rounding"] == "1"]
        sample = json.loads((out / "sample.json").read_text())
        assert selected
        assert selected == sample["augment_cluster_ids"]

    def test_infeasible_exit_code(self, bundle, tmp_path):
        # total scope with a budget below the initial sample cost
        code = run_cli(
            "optimize", "--dataset", bundle, "--out-dir", tmp_path / "o", "--seed", 1,
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budget", 10, "--budget-scope", "total", "--utility", "rep-admin",
        )
        assert code == 3


class TestEvaluate:
    def test_scores_saved_sample(self, bundle, tmp_path):
        opt = tmp_path / "opt"
        run_cli("optimize", "--dataset", bundle, "--out-dir", opt, "--seed", 1,
                "--n-strata", 2, "--k", 10, "--initial-size", 80,
                "--budget", 200, "--utility", "rep-admin")
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--dataset", bundle, "--sample",
                       opt / "sample.json", "--out-dir", out, "--seed", 0) == 0
        rows = list(csv.DictReader((out / "results.csv").open()))
        assert len(rows) == 1
        assert -1.5 < float(rows[0]["r2"]) <= 1.0
        assert (out / "model.json").exists()


class TestExperimentCommands:
    def test_augment_rerun_byte_identical(self, bundle, tmp_path):
        args = [
            "augment", "--dataset", bundle, "--seed", 0, "--seeds", "0,1",
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budgets", "100", "--methods", "default,random,rep-admin",
        ]
        assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
        assert run_cli(*args, "--out-dir", tmp_path / "b") == 0
        for name in ("runs.csv", "table.csv", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_rank_study_runs(self, bundle, tmp_path):
        code = run_cli(
            "rank-study", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "r",
            "--n-strata", 3, "--k", 10, "--rank-sizes", "40,80,120",
            "--methods", "rep-admin",
        )
        assert code == 0
        assert (tmp_path / "r" / "rho.csv").exists()

    def test_cost_sweep_runs(self, bundle, tmp_path):
        code = run_cli(
            "cost-sweep", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "c",
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budgets", "100", "--c2-sweep", "25,40",
            "--methods", "default,rep-admin",
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "c" / "sweep.csv").open()))
        assert len(rows) == 4

    def test_size_sweep_runs(self, bundle, tmp_path):
        code = run_cli(
            "size-sweep", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "s",
            "--n-strata", 2, "--k", 10, "--initial-sizes", "40,80",
            "--budgets", "100", "--methods", "rep-admin",
        )
        assert code == 0
        assert (tmp_path / "s" / "size_sweep.csv").exists()

    def test_config_json_overrides_experiment_flags(self, bundle, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"budgets": [50.0], "seeds": [0]}))
        assert run_cli(
            "augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budgets", "999", "--methods", "random", "--config", cfgfile,
        ) == 0
        rows = list(csv.DictReader((tmp_path / "a" / "runs.csv").open()))
        assert all(r["budget"] == "50.0" for r in rows)

    def test_missing_required_flags_exit_2(self, bundle, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("augment", "--dataset", bundle, "--out-dir", tmp_path / "x")
        assert exc.value.code == 2
