import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from geosampler import cli
from geosampler.cli import _experiment_config, build_parser, main
from geosampler.data import CostModel, datasets_equal, load_dataset, save_dataset
from geosampler.experiments import ExperimentConfig, UtilityConfig, dataset_content_hash
from geosampler.groups import admin_groups
from geosampler.optimizer import SolveOptions
from geosampler.samplers import draw_initial_sample, solve_and_augment
from geosampler.synth import SynthConfig, generate
from geosampler.utility import UtilitySpec

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


def csv_rows(path):
    """The rows of a CSV output as dicts, the file closed again."""
    with path.open() as fh:
        return list(csv.DictReader(fh))


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
    def test_writes_complete_bundle(self, bundle, tmp_path):
        # exactly these files, so that a new output shows up here; the
        # fixture's bundle takes the default features format, bin
        written = {"meta.json", "points.csv", "truth.json"}
        assert {p.name for p in bundle.iterdir()} == written | {"features.bin"}
        ds = load_dataset(bundle)
        assert ds.n_clusters == 64
        out = tmp_path / "csvbundle"
        assert run_cli("generate", "--out-dir", out, "--seed", 3,
                       "--strata-grid", "4x2", "--clusters-per-stratum", 8,
                       "--points-per-cluster", "15:25", "--feature-dim", 5,
                       "--coef-dispersion", 1.0, "--target-snr", 8,
                       "--features-format", "csv") == 0
        assert {p.name for p in out.iterdir()} == written | {"features.csv"}
        assert datasets_equal(load_dataset(out), ds)

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

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"feature_dimm": 7}))
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1,
                       "--config", cfgfile) == 2
        assert "feature_dimm" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.2", "nan"])
    def test_test_fraction_outside_unit_interval_writes_no_bundle(self, tmp_path, capsys, value):
        # a bundle with no source cluster, or none on the test side, would
        # only fail in a later command
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1,
                       "--test-fraction", value) == 2
        assert "test_fraction must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_test_fraction_leaving_no_train_point_writes_no_bundle(self, tmp_path, capsys):
        # every cluster falls on the test side: no study could sample the bundle
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1,
                       "--test-fraction", "0.999") == 2
        assert "no source cluster" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_nan_noise_is_named_and_writes_no_bundle(self, tmp_path, capsys):
        # NaN labels would otherwise fail the split check with a misleading message
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1,
                       "--noise", "nan") == 2
        assert "noise must be finite" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--feature-scale", "1e200", "--target-snr", "5"], "the signal variance overflows"),
        (["--feature-noise", "1e308"], "the signal variance overflows"),
        (["--noise", "1e200"], "the label noise variance overflows"),
    ])
    def test_overflowing_synthetic_signal_writes_no_bundle(self, tmp_path, capsys, flags, named):
        # finite settings whose signal or noise variance overflows would
        # write a bundle with no finite label, or fail on the snr with a
        # traceback; no overflow warning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1, *flags) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bad_grid_is_config_error(self, tmp_path):
        assert run_cli("generate", "--out-dir", tmp_path / "x", "--seed", 1,
                       "--strata-grid", "3x2x1") == 2

    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"feature_dim": "7"}))
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 1,
                       "--config", cfgfile) == 2
        assert "config key 'feature_dim' must be int, got '7'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


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

    @staticmethod
    def write_aux(path, ds, extra):
        """Two aux values for every point of ``ds``, then the rows ``extra``."""
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_id", "a0", "a1"])
            w.writerows([pid, i % 3, (i // 3) % 2] for i, pid in enumerate(ds.point_ids))
            w.writerows(extra)

    def run_aux_groups(self, bundle, aux, out):
        return run_cli("groups", "--dataset", bundle, "--kind", "aux", "--aux-file", aux,
                       "--n-groups", 3, "--seed", 0, "--out-dir", out)

    def test_aux_rows_for_other_points_are_ignored(self, bundle, tmp_path):
        ds = load_dataset(bundle)
        self.write_aux(tmp_path / "aux.csv", ds, [])
        self.write_aux(tmp_path / "more.csv", ds, [["not-a-point", 9, 9]])
        assert self.run_aux_groups(bundle, tmp_path / "aux.csv", tmp_path / "g1") == 0
        assert self.run_aux_groups(bundle, tmp_path / "more.csv", tmp_path / "g2") == 0
        groups = [(tmp_path / g / "groups.csv").read_bytes() for g in ("g1", "g2")]
        assert groups[0] == groups[1]

    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_aux_repeated_point_id_names_file_and_line(self, bundle, tmp_path, capsys,
                                                        blank_lines):
        ds = load_dataset(bundle)
        self.write_aux(tmp_path / "aux.csv", ds, [[]] * blank_lines + [[ds.point_ids[1], 9, 9]])
        assert self.run_aux_groups(bundle, tmp_path / "aux.csv", tmp_path / "g") == 2
        line = ds.n_points + 2 + blank_lines
        assert f"aux.csv line {line} repeats point id {ds.point_ids[1]!r}" in capsys.readouterr().err

    def test_aux_short_row_names_file_and_line(self, bundle, tmp_path, capsys):
        ds = load_dataset(bundle)
        self.write_aux(tmp_path / "aux.csv", ds, [["not-a-point", 9]])
        assert self.run_aux_groups(bundle, tmp_path / "aux.csv", tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert f"aux.csv line {ds.n_points + 2} has 2 fields; rows must have 3 fields" in err

    def test_aux_without_value_columns_is_config_error(self, bundle, tmp_path, capsys):
        ds = load_dataset(bundle)
        (tmp_path / "aux.csv").write_text("\n".join(("point_id",) + ds.point_ids) + "\n")
        assert self.run_aux_groups(bundle, tmp_path / "aux.csv", tmp_path / "g") == 2
        assert "with a column, not shape" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_aux_kind_without_aux_file_is_config_error(self, bundle, tmp_path, capsys):
        assert run_cli("groups", "--dataset", bundle, "--kind", "aux", "--n-groups", 3,
                       "--seed", 0, "--out-dir", tmp_path / "gx") == 2
        assert "--aux-file" in capsys.readouterr().err

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run_cli("groups", "--dataset", tmp_path / "nope", "--kind", "admin",
                       "--seed", 0, "--out-dir", tmp_path / "g") == 2

    @pytest.mark.parametrize("features_file", [5, "../other/features.csv", "points.csv"])
    def test_meta_features_file_not_a_features_name_is_config_error(
        self, bundle, tmp_path, capsys, features_file
    ):
        # a features table outside the bundle, which the loader must not read
        save_dataset(load_dataset(bundle), tmp_path / "other", features_format="csv")
        meta = json.loads((bundle / "meta.json").read_text())
        meta["features_file"] = features_file
        (bundle / "meta.json").write_text(json.dumps(meta))
        assert run_cli("groups", "--dataset", bundle, "--kind", "admin",
                       "--seed", 0, "--out-dir", tmp_path / "g") == 2
        assert f"meta.json features_file {features_file!r}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_meta_without_feature_dim_is_config_error(self, bundle, tmp_path, capsys):
        meta = json.loads((bundle / "meta.json").read_text())
        del meta["feature_dim"]
        (bundle / "meta.json").write_text(json.dumps(meta))
        assert run_cli("groups", "--dataset", bundle, "--kind", "feature", "--n-groups", 4,
                       "--seed", 0, "--out-dir", tmp_path / "g") == 2
        assert "'feature_dim'" in capsys.readouterr().err

    def test_extra_points_field_is_config_error(self, bundle, tmp_path, capsys):
        path = bundle / "points.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[2] += b",7.25"
        path.write_bytes(b"\r\n".join(lines))
        assert run_cli("groups", "--dataset", bundle, "--kind", "admin",
                       "--seed", 0, "--out-dir", tmp_path / "g") == 2
        assert "points.csv line 3 has 7 fields" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


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
        rows = csv_rows(out / "inclusion.csv")
        selected = [r["cluster_id"] for r in rows if r["selected_after_rounding"] == "1"]
        sample = json.loads((out / "sample.json").read_text())
        assert selected
        assert selected == sample["augment_cluster_ids"]

    @pytest.mark.parametrize("utility", ["default", "rep-bogus"])
    def test_non_utility_method_is_config_error(self, bundle, tmp_path, capsys, utility):
        code = run_cli(
            "optimize", "--dataset", bundle, "--out-dir", tmp_path / "o", "--seed", 1,
            "--initial-size", 30, "--budget", 100, "--utility", utility,
        )
        assert code == 2
        assert repr(utility) in capsys.readouterr().err


    @pytest.mark.parametrize("flag, field", [
        ("--budget", "budget"), ("--gap-tol", "gap_tol"), ("--epsilon", "epsilon"),
    ])
    def test_nan_numeric_flag_is_config_error(self, bundle, tmp_path, capsys, flag, field):
        argv = {
            "--dataset": bundle, "--out-dir": tmp_path / "o", "--seed": 1,
            "--n-strata": 2, "--k": 10, "--initial-size": 30,
            "--budget": 200, "--utility": "rep-admin",
        }
        argv[flag] = "nan"
        code = run_cli("optimize", *(x for kv in argv.items() for x in kv))
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_scores_saved_sample(self, bundle, tmp_path):
        opt = tmp_path / "opt"
        run_cli("optimize", "--dataset", bundle, "--out-dir", opt, "--seed", 1,
                "--n-strata", 2, "--k", 10, "--initial-size", 80,
                "--budget", 200, "--utility", "rep-admin")
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--dataset", bundle, "--sample",
                       opt / "sample.json", "--out-dir", out, "--seed", 0) == 0
        rows = csv_rows(out / "results.csv")
        assert len(rows) == 1
        assert -1.5 < float(rows[0]["r2"]) <= 1.0
        assert (out / "model.json").exists()

    @staticmethod
    def evaluate_hand_sample(bundle, tmp_path, k, labeled_points, overrides=()):
        """Evaluate a sample.json naming the first cluster and the point ids
        ``labeled_points(ds)`` in it; ``overrides`` replace document fields."""
        ds = load_dataset(bundle)
        cluster = ds.cluster(ds.cluster_ids[0])
        doc = {
            "initial_cluster_ids": [cluster.cluster_id],
            "augment_cluster_ids": [],
            "labeled_points": {cluster.cluster_id: list(labeled_points(ds))},
            "k": k,
            "spent": 0.0,
            "initial_strata": [cluster.stratum_id],
        }
        doc.update(overrides)
        (tmp_path / "sample.json").write_text(json.dumps(doc))
        return run_cli("evaluate", "--dataset", bundle, "--sample", tmp_path / "sample.json",
                       "--out-dir", tmp_path / "eval", "--seed", 0)

    def test_missing_sample_file_is_config_error(self, bundle, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli("evaluate", "--dataset", bundle, "--sample", missing,
                       "--out-dir", tmp_path / "eval", "--seed", 0) == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_unknown_point_id_is_config_error(self, bundle, tmp_path):
        code = self.evaluate_hand_sample(bundle, tmp_path, 10, lambda ds: ("p-missing",))
        assert code == 2

    def test_point_of_another_cluster_is_config_error(self, bundle, tmp_path):
        code = self.evaluate_hand_sample(
            bundle, tmp_path, 10, lambda ds: ds.cluster(ds.cluster_ids[1]).point_ids[:10]
        )
        assert code == 2

    def test_sample_over_k_cap_is_config_error(self, bundle, tmp_path):
        code = self.evaluate_hand_sample(
            bundle, tmp_path, 2, lambda ds: ds.cluster(ds.cluster_ids[0]).point_ids[:15]
        )
        assert code == 2

    def test_sample_without_k_is_config_error(self, bundle, tmp_path, capsys):
        self.evaluate_hand_sample(bundle, tmp_path, 10, lambda ds: ds.cluster(ds.cluster_ids[0]).point_ids[:5])
        sample = tmp_path / "sample.json"
        doc = json.loads(sample.read_text())
        del doc["k"]
        sample.write_text(json.dumps(doc))
        code = run_cli("evaluate", "--dataset", bundle, "--sample", sample,
                       "--out-dir", tmp_path / "eval2", "--seed", 0)
        assert code == 2
        assert "'k'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("labeled_points", []), ("spent", None), ("k", "10"), ("lineage", 3),
    ])
    def test_mistyped_sample_field_is_config_error(self, bundle, tmp_path, capsys, field, value):
        code = self.evaluate_hand_sample(
            bundle, tmp_path, 10, lambda ds: ds.cluster(ds.cluster_ids[0]).point_ids[:5], {field: value}
        )
        assert code == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("feature_dim", None), ("split_seed", None), ("n_clusters", [1]), ("cluster_ids", 5),
        ("n_points", "7"), ("n_strata", True),
    ])
    def test_mistyped_meta_field_is_config_error(self, bundle, tmp_path, capsys, field, value):
        meta = json.loads((bundle / "meta.json").read_text())
        (meta["strata"][0] if field == "cluster_ids" else meta)[field] = value
        (bundle / "meta.json").write_text(json.dumps(meta))
        code = run_cli("evaluate", "--dataset", bundle, "--sample", tmp_path / "sample.json",
                       "--out-dir", tmp_path / "eval", "--seed", 0)
        assert code == 2
        assert f"field {field!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_repeated_cluster_id_is_config_error(self, bundle, tmp_path, capsys):
        cid = load_dataset(bundle).cluster_ids[0]
        code = self.evaluate_hand_sample(
            bundle, tmp_path, 10, lambda ds: ds.cluster(ds.cluster_ids[0]).point_ids[:5],
            {"initial_cluster_ids": [cid, cid]},
        )
        assert code == 2
        assert repr(cid) in capsys.readouterr().err

    def test_repeated_point_id_is_config_error(self, bundle, tmp_path, capsys):
        # 6 listed points: under both k and the cluster size
        code = self.evaluate_hand_sample(
            bundle, tmp_path, 10, lambda ds: ds.cluster(ds.cluster_ids[0]).point_ids[:3] * 2
        )
        assert code == 2
        ds = load_dataset(bundle)
        assert repr(ds.point_ids[ds.rows_of_cluster(0)[0]]) in capsys.readouterr().err


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

    # README step 5's augment grid
    README_AUGMENT = ["--seeds", "0,1,2,3,4", "--n-strata", 2, "--k", 10, "--initial-size", 80,
                      "--budgets", "200,250,300", "--methods", "default,greedy,random,rep-admin"]

    @pytest.mark.parametrize("solver, converged, iterations", [
        ([], "1", None),
        (["--step-rule", "diminishing", "--max-iters", 20], "0", "20"),
    ], ids=["default", "diminishing-20"])
    def test_runs_csv_reports_each_solve(self, bundle, tmp_path, solver, converged, iterations):
        assert run_cli("augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
                       *self.README_AUGMENT, *solver) == 0
        rows = csv_rows(tmp_path / "a" / "runs.csv")
        optimized = [r for r in rows if r["method"].startswith("rep-")]
        assert len(optimized) == 15
        for r in optimized:
            assert r["converged"] == converged
            assert int(r["iterations"]) >= 1 and float(r["gap"]) >= 0
            if iterations is not None:
                assert r["iterations"] == iterations
        for r in rows:
            if not r["method"].startswith("rep-"):
                assert (r["iterations"], r["gap"], r["converged"]) == ("", "", "")

    @pytest.mark.parametrize("command, flags, runs_csv, columns", [
        ("augment", ["--budgets", "100"], "runs.csv",
         "budget,method,seed,r2,initial_r2,delta_r2,spent,clusters_added,points_added"),
        ("cost-sweep", ["--budgets", "100", "--c2-sweep", "25,40"], "sweep_runs.csv",
         "c2,method,seed,r2,initial_r2,delta_r2,spent"),
        ("size-sweep", ["--budgets", "100", "--initial-sizes", "40,80"], "size_runs.csv",
         "initial_size,arm,seed,r2,initial_r2,delta_r2,budget,spent,total_cost"),
    ], ids=["augment", "cost-sweep", "size-sweep"])
    def test_solver_columns_follow_infeasible(
        self, bundle, tmp_path, command, flags, runs_csv, columns
    ):
        methods = "rep-admin" if command == "size-sweep" else "default,rep-admin"
        assert run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--n-strata", 2, "--k", 10, "--initial-size", 80,
                       "--methods", methods, *flags) == 0
        with (tmp_path / "x" / runs_csv).open(newline="") as fh:
            header = fh.readline().rstrip("\r\n")
        assert header == columns + (
            ",infeasible,iterations,gap,converged,config_hash,dataset_hash")

    @pytest.mark.parametrize("command, gap_tol", [
        # an infinite tolerance made every solve "converge" after one
        # iteration, certifying nothing
        ("augment", "inf"), ("optimize", "inf"),
        # rank-study solves nothing, but checks its solver settings as well
        ("rank-study", "-1"),
    ])
    def test_non_finite_or_nonpositive_gap_tol_is_config_error(
        self, bundle, tmp_path, capsys, command, gap_tol
    ):
        extra = {"augment": ["--methods", "rep-admin"], "optimize": ["--budget", 100],
                 "rank-study": ["--methods", "rep-admin", "--rank-sizes", "40"]}[command]
        code = run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--n-strata", 2, "--k", 10, "--gap-tol", gap_tol, *extra)
        assert code == 2
        assert "gap_tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_budget_is_config_error(self, bundle, tmp_path, capsys):
        code = run_cli(
            "augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
            "--n-strata", 2, "--k", 10, "--initial-size", 80,
            "--budgets", "100,nan", "--methods", "default,rep-admin",
        )
        assert code == 2
        assert "budgets must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("augment", ["--c2", "inf", "--budgets", "100", "--methods", "default,rep-admin"]),
        ("optimize", ["--c1", "inf", "--c2", "inf", "--budget", "100"]),
    ])
    def test_infinite_cost_is_config_error(self, bundle, tmp_path, capsys, command, flags):
        code = run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--n-strata", 2, "--k", 10, "--initial-size", 80, *flags)
        assert code == 2
        assert "finite c1 and c2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
        rows = csv_rows(tmp_path / "c" / "sweep.csv")
        assert len(rows) == 4

    def test_size_sweep_runs(self, bundle, tmp_path):
        code = run_cli(
            "size-sweep", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "s",
            "--n-strata", 2, "--k", 10, "--initial-sizes", "40,80",
            "--budgets", "100", "--methods", "rep-admin",
        )
        assert code == 0
        assert (tmp_path / "s" / "size_sweep.csv").exists()

    @pytest.mark.parametrize("command, methods, budget, runs_csv, column", [
        ("augment", "random", 50.0, "runs.csv", "50.0"),
        # a budget is written as the config gave it: an integer has no ".0"
        ("augment", "random", 250, "runs.csv", "250"),
        ("size-sweep", "rep-admin", 250, "size_runs.csv", "250"),
    ], ids=["augment-float", "augment-int", "size-sweep-int"])
    def test_config_json_overrides_experiment_flags(
        self, bundle, tmp_path, command, methods, budget, runs_csv, column
    ):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"budgets": [budget], "seeds": [0]}))
        assert run_cli(
            command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
            "--n-strata", 2, "--k", 10, "--initial-size", 80, "--initial-sizes", "80",
            "--budgets", "999", "--methods", methods, "--config", cfgfile,
        ) == 0
        rows = csv_rows(tmp_path / "a" / runs_csv)
        assert rows and all(r["budget"] == column for r in rows)

    def test_missing_config_file_is_config_error(self, bundle, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli(
            "augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
            "--methods", "random", "--config", missing,
        ) == 2
        assert f"--config file {missing}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_config_dataset_key_picks_the_bundle(self, bundle, tmp_path):
        # without --dataset the flags describe a synthetic population; the
        # document's dataset replaces it
        (tmp_path / "cfg.json").write_text(json.dumps({"dataset": str(bundle)}))
        assert run_cli("augment", "--seed", 0, "--out-dir", tmp_path / "a", "--methods", "random",
                       "--initial-size", 80, "--config", tmp_path / "cfg.json") == 0
        config = json.loads((tmp_path / "a" / "meta.json").read_text())["config"]
        assert (config["dataset"], config["synth"]) == (str(bundle), None)

    def test_config_synth_key_replaces_the_dataset_flag(self, bundle, tmp_path):
        synth = {"clusters_per_stratum": 4, "feature_dim": 3, "seed": 2}
        (tmp_path / "cfg.json").write_text(json.dumps({"synth": synth}))
        assert run_cli("augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "a",
                       "--methods", "random", "--initial-size", 40,
                       "--config", tmp_path / "cfg.json") == 0
        config = json.loads((tmp_path / "a" / "meta.json").read_text())["config"]
        assert config["dataset"] is None
        assert config["synth"] == {**json.loads(json.dumps(asdict(SynthConfig()))), **synth}

    def test_config_with_both_sources_is_config_error(self, bundle, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"dataset": str(bundle), "synth": {}}))
        assert run_cli("augment", "--seed", 0, "--out-dir", tmp_path / "a", "--methods", "random",
                       "--config", tmp_path / "cfg.json") == 2
        assert "exactly one of dataset path or synth config" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", ["augment", "rank-study", "cost-sweep", "size-sweep"])
    def test_empty_config_keeps_config_hash(self, bundle, tmp_path, command):
        args = [
            command, "--dataset", bundle, "--seed", 0, "--n-strata", 3, "--k", 10,
            "--initial-size", 60, "--initial-sizes", "60", "--rank-sizes", "40",
            "--budgets", "50", "--c2-sweep", "50", "--methods", "rep-admin",
        ]
        (tmp_path / "empty.json").write_text("{}")
        assert run_cli(*args, "--out-dir", tmp_path / "flags") == 0
        assert run_cli(*args, "--out-dir", tmp_path / "cfg",
                       "--config", tmp_path / "empty.json") == 0
        meta = [json.loads((tmp_path / d / "meta.json").read_text()) for d in ("flags", "cfg")]
        assert meta[0]["config_hash"] == meta[1]["config_hash"]

    @pytest.mark.parametrize("command, flags, message", [
        ("augment", ["--methods", "defualt"], "unknown method 'defualt'"),
        ("augment", ["--budgets", ""], "budgets must be non-empty"),
        ("augment", ["--seeds", ""], "seeds must be non-empty"),
        ("augment", ["--methods", ""], "methods must be non-empty"),
        ("rank-study", ["--rank-sizes", ""], "rank_sizes must be non-empty"),
        ("cost-sweep", ["--budgets", ""], "budgets must be non-empty"),
        ("cost-sweep", ["--c2-sweep", ""], "c2_sweep must be non-empty"),
        ("size-sweep", ["--budgets", ""], "budgets must be non-empty"),
        ("size-sweep", ["--initial-sizes", ""], "initial_sizes must be non-empty"),
        ("size-sweep", ["--methods", "default"], "utilities must be non-empty"),
        # a stray comma is an empty item, not a value left out
        ("augment", ["--budgets", "100,,"], "--budgets '100,,' has an empty item"),
        ("augment", ["--seeds", "0,,1"], "--seeds '0,,1' has an empty item"),
        ("augment", ["--methods", "random,"], "--methods 'random,' has an empty item"),
        ("cost-sweep", ["--c2-sweep", ",40"], "--c2-sweep ',40' has an empty item"),
        # axes a study holds fixed take one value, not only their first
        ("cost-sweep", ["--budgets", "100,250"], "budgets must hold exactly one value, got 2"),
        ("size-sweep", ["--budgets", "100,250"], "budgets must hold exactly one value, got 2"),
        ("size-sweep", ["--methods", "rep-admin,opt-size"],
         "utilities must hold exactly one value, got 2"),
        # every sample size passes the cluster sampler's rules before any output
        ("rank-study", ["--rank-sizes", "0,40"], "initial_size must be >= 1, got 0"),
        ("rank-study", ["--rank-sizes", "-5"], "initial_size must be >= 1, got -5"),
        ("size-sweep", ["--initial-sizes", "0"], "initial_size must be >= 1, got 0"),
        ("augment", ["--initial-size", "0"], "initial_size must be >= 1, got 0"),
        ("cost-sweep", ["--initial-size", "0"], "initial_size must be >= 1, got 0"),
        # a repeated value on a swept axis would pool its runs into wrong summary rows
        ("augment", ["--methods", "random", "--budgets", "100,100", "--seeds", "0,0"],
         "seeds repeats the value 0"),
        ("augment", ["--methods", "random", "--budgets", "100,100"],
         "budgets repeats the value 100.0"),
        ("augment", ["--methods", "rep-admin,rep-admin"],
         "methods repeats the value 'rep-admin'"),
        ("cost-sweep", ["--c2-sweep", "40,50,40"], "c2_sweep repeats the value 40.0"),
        ("size-sweep", ["--initial-sizes", "40,40", "--methods", "rep-admin"],
         "initial_sizes repeats the value 40"),
        ("rank-study", ["--rank-sizes", "40,60,40"], "rank_sizes repeats the value 40"),
        # one u_<method> column per utility: a repeat would merge two into one
        ("rank-study", ["--rank-sizes", "40", "--methods", "rep-admin,rep-admin"],
         "utilities repeats the value 'rep-admin'"),
    ])
    def test_empty_or_unknown_axis_is_config_error(
        self, bundle, tmp_path, capsys, command, flags, message
    ):
        code = run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--n-strata", 2, "--k", 10, "--initial-size", 80, *flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("augment", ["--n-strata", "1", "--k", "10", "--initial-size", "5000"],
         "target of 5000 labeled points unreachable"),
        ("size-sweep", ["--initial-sizes", "30,5000", "--methods", "rep-admin"],
         "target of 5000 labeled points unreachable"),
        ("augment", ["--c1", "60"], "cost model requires c2 >= c1 > 0"),
        ("cost-sweep", ["--config", {"step_rule": "bogus"}], "unknown step rule 'bogus'"),
    ], ids=["augment-unreachable", "size-sweep-unreachable", "augment-c1", "cost-sweep-rule"])
    def test_error_in_a_cell_leaves_no_out_dir(
        self, bundle, tmp_path, capsys, command, flags, message
    ):
        # the study fails after the config checks; a study writes only once
        # every cell has run, so no output directory is made
        if "--config" in flags:
            (tmp_path / "cfg.json").write_text(json.dumps(flags[-1]))
            flags = ["--config", tmp_path / "cfg.json"]
        code = run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       *flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_budget_scope_is_an_unknown_config_key(self, bundle, tmp_path, capsys):
        # there is one budget convention: the budget pays for new clusters only
        (tmp_path / "cfg.json").write_text(json.dumps({"budget_scope": "total"}))
        code = run_cli("augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--config", tmp_path / "cfg.json")
        assert code == 2
        assert "unknown config key 'budget_scope'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_synth_study_without_train_point_is_config_error(self, tmp_path, capsys):
        code = run_cli("augment", "--seed", 1, "--test-fraction", "0.999",
                       "--out-dir", tmp_path / "x")
        assert code == 2
        assert "no source cluster" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, runner", [
        ("augment", "run_augmentation"),
        ("rank-study", "run_rank_study"),
        ("cost-sweep", "run_cost_sweep"),
        ("size-sweep", "run_initial_size_sweep"),
    ])
    def test_study_calls_the_runner_bound_in_cli(
        self, tmp_path, capsys, monkeypatch, command, runner
    ):
        # the benchmark tracer times a study by rebinding its runner in cli
        calls = []
        for name in ("run_augmentation", "run_rank_study", "run_cost_sweep",
                     "run_initial_size_sweep"):
            def record(cfg, out_dir, name=name):
                calls.append((name, cfg, out_dir))
                return [{"infeasible": True}, {"infeasible": False},
                        {"status": "skipped"}, {"status": "ok"}]
            monkeypatch.setattr(cli, name, record)
        out = tmp_path / "x"
        assert run_cli(command, "--seed", 0, "--out-dir", out) == 0
        assert [(name, out_dir) for name, _, out_dir in calls] == [(runner, str(out))]
        assert isinstance(calls[0][1], ExperimentConfig)
        assert capsys.readouterr().out == f"wrote 4 rows (1 infeasible, 1 skipped) to {out}\n"

    @pytest.mark.parametrize("doc, message", [
        ({"max_iters": 2.5}, "'max_iters' must be int, got 2.5"),
        ({"max_iters": "500"}, "'max_iters' must be int, got '500'"),
        # a bool is not an int here, though Python's bool subclasses int
        ({"max_iters": True}, "'max_iters' must be int, got True"),
        ({"gap_tol": "1e-6"}, "'gap_tol' must be float, got '1e-6'"),
        ({"initial_size": "30"}, "'initial_size' must be int, got '30'"),
        ({"c1": "25"}, "'c1' must be float, got '25'"),
        ({"seeds": [0.5]}, "'seeds' must be tuple[int, ...], got [0.5]"),
        ({"utilities": [{"lam": "0.5"}]}, "'lam' must be float, got '0.5'"),
        ({"utilities": [{"epsilon": "1e-6"}]}, "'epsilon' must be float, got '1e-6'"),
    ], ids=["max_iters-float", "max_iters-str", "max_iters-bool", "gap_tol-str",
            "initial_size-str", "c1-str", "seeds-float", "lam-str", "epsilon-str"])
    def test_mistyped_config_value_is_config_error(self, bundle, tmp_path, capsys, doc, message):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code = run_cli("augment", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "x",
                       "--n-strata", 2, "--k", 10, "--initial-size", 80,
                       "--methods", "random,rep-admin", "--config", tmp_path / "cfg.json")
        assert code == 2
        assert f"config key {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rank_study_ignores_empty_budgets(self, bundle, tmp_path):
        assert run_cli(
            "rank-study", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "r",
            "--n-strata", 3, "--k", 10, "--rank-sizes", "40", "--methods", "rep-admin",
            "--budgets", "",
        ) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--n-anchors", "0"), ("--convenience-temperature", "0"),
        ("--convenience-temperature", "nan"),
    ])
    def test_bad_convenience_setting_is_config_error(self, bundle, tmp_path, capsys, flag, value):
        code = run_cli(
            "rank-study", "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "r",
            "--n-strata", 3, "--k", 10, "--rank-sizes", "40", "--methods", "rep-admin",
            flag, value,
        )
        assert code == 2
        assert flag.removeprefix("--").replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, flags", [
        ("groups", ["--kind", "admin"]),
        ("optimize", ["--budget", "100"]),
        ("evaluate", ["--sample", "sample.json"]),
    ])
    def test_config_flag_only_where_read(self, bundle, tmp_path, command, flags):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--dataset", bundle, "--seed", 0, "--out-dir", tmp_path / "o",
                    *flags, "--config", tmp_path / "x.json")
        assert exc.value.code == 2

    def test_missing_required_flags_exit_2(self, bundle, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("augment", "--dataset", bundle, "--out-dir", tmp_path / "x")
        assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--config", "--sample", "--aux-file"])
def test_directory_where_a_file_is_expected_is_config_error(bundle, tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "--config": ["augment", "--dataset", bundle, "--methods", "random"],
        "--sample": ["evaluate", "--dataset", bundle],
        "--aux-file": ["groups", "--dataset", bundle, "--kind", "aux"],
    }[flag]
    assert run_cli(*argv, flag, folder, "--seed", 0, "--out-dir", tmp_path / "o") == 2
    assert str(folder) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command, argv, first_work", [
    ("generate", [], "geosampler.cli.generate"),
    ("evaluate", ["--dataset", "b", "--sample", "s.json"], "geosampler.cli.load_dataset"),
    ("augment", ["--dataset", "b", "--methods", "random"],
     "geosampler.experiments.load_population"),
])
def test_out_dir_that_is_a_file_is_config_error_before_any_work(
    tmp_path, capsys, monkeypatch, command, argv, first_work, under
):
    def fail(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before the --out-dir check")

    monkeypatch.setattr(first_work, fail)
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    out = afile / "sub" if under else afile
    assert run_cli(command, *argv, "--seed", 0, "--out-dir", out) == 2
    assert f"--out-dir {out}" in capsys.readouterr().err
    assert afile.read_bytes() == b"not a directory\n"


class TestDefaults:
    """A flag left out takes the default of its config dataclass, so the CLI
    and the library cannot drift apart."""

    def test_experiment_flags_default_to_experiment_config(self, tmp_path):
        args = build_parser().parse_args(
            ["augment", "--dataset", "b", "--seed", "0", "--out-dir", str(tmp_path)])
        assert _experiment_config(args) == ExperimentConfig(dataset="b", seeds=(0,))
        args = build_parser().parse_args(["augment", "--seed", "4", "--out-dir", str(tmp_path)])
        assert _experiment_config(args) == ExperimentConfig(synth=SynthConfig(seed=4), seeds=(4,))

    def test_optimize_solves_with_default_options(self, bundle, tmp_path, monkeypatch):
        import geosampler.cli

        seen = {}

        def recorded(name):
            fn = getattr(geosampler.cli, name)

            def wrapper(*args):
                seen[name] = args
                return fn(*args)
            return wrapper

        for name in ("build_utility_spec", "solve_and_augment"):
            monkeypatch.setattr(geosampler.cli, name, recorded(name))
        assert run_cli("optimize", "--dataset", bundle, "--out-dir", tmp_path / "o",
                       "--seed", 1, "--budget", 200) == 0
        assert seen["build_utility_spec"][1] == UtilityConfig()
        assert seen["solve_and_augment"][-1] == SolveOptions()

    def test_every_entry_point_solves_with_away(self, bundle, tmp_path, monkeypatch):
        import geosampler.samplers

        assert SolveOptions.step_rule == "away"
        assert ExperimentConfig(dataset="b").solve_options() == SolveOptions()
        rules = []

        def recorded(*args):
            result = solve_relaxation(*args)
            rules.append(result.step_rule)
            return result

        solve_relaxation = geosampler.samplers.solve_relaxation
        monkeypatch.setattr(geosampler.samplers, "solve_relaxation", recorded)
        assert run_cli("optimize", "--dataset", bundle, "--out-dir", tmp_path / "o",
                       "--seed", 1, "--budget", 200) == 0
        assert json.loads((tmp_path / "o" / "solve_meta.json").read_text())["step_rule"] == "away"
        assert run_cli("augment", "--dataset", bundle, "--out-dir", tmp_path / "a",
                       "--seed", 0, "--budgets", 200, "--methods", "opt-size,rep-admin") == 0
        ds = load_dataset(bundle)
        state = draw_initial_sample(ds, ExperimentConfig(dataset="b").sampler_config(),
                                    np.random.default_rng(0))
        spec = UtilitySpec(kind="group_rep", groups=admin_groups(ds))
        _, result, _ = solve_and_augment(ds, state, CostModel(c1=25, c2=50, budget=200), spec,
                                         np.random.default_rng(1), opts=None)
        assert rules == ["away"] * 4
        assert result.step_rule == "away" and result.converged

    def test_generate_defaults_to_synth_config(self, tmp_path):
        assert run_cli("generate", "--out-dir", tmp_path / "b", "--seed", 5) == 0
        ds, _ = generate(SynthConfig(seed=5))
        assert dataset_content_hash(load_dataset(tmp_path / "b")) == dataset_content_hash(ds)


S = argparse.SUPPRESS


def option(flag, type=str, choices=None, required=False, default=S, dest=None):
    """One row of the CLI surface: option string, then dest, the type its text
    is converted by, choices, whether it is required and its default."""
    return flag, (dest or flag[2:].replace("-", "_"), type, choices, required, default)


OUT_AND_SEED = [option("--out-dir", required=True), option("--seed", int, required=True)]
SYNTH = [
    option("--strata-grid"),
    option("--clusters-per-stratum", int),
    option("--points-per-cluster"),
    option("--feature-dim", int),
    option("--coef-dispersion", float),
    option("--noise", float),
    option("--feature-noise", float),
    option("--feature-scale", float),
    option("--target-snr", float),
    option("--test-fraction", float),
]
SAMPLER = [
    option("--n-strata", int),
    option("--k", int),
    option("--initial-size", int),
    option("--strata-seed", int),
]
COST = [
    option("--c1", float),
    option("--c2", float),
]
SOLVER = [
    option("--max-iters", int),
    option("--gap-tol", float),
    option("--step-rule", choices=("diminishing", "line-search", "away")),
]
UTILITY = [
    option("--lam", float),
    option("--epsilon", float),
    option("--n-groups", int),
    option("--group-seed", int),
]
STUDY = [
    *OUT_AND_SEED,
    option("--config"),
    option("--dataset"),
    *SYNTH,
    *SAMPLER,
    *COST,
    *SOLVER,
    option("--budgets"),
    option("--c2-sweep"),
    option("--methods"),
    *UTILITY,
    option("--rank-sizes"),
    option("--initial-sizes"),
    option("--convenience-temperature", float),
    option("--n-anchors", int),
    option("--seeds"),
]
CLI_SURFACE = {
    "generate": [
        *OUT_AND_SEED,
        option("--config"),
        *SYNTH,
        option("--features-format", choices=("bin", "csv"), default="bin"),
    ],
    "groups": [
        *OUT_AND_SEED,
        option("--dataset", required=True),
        option("--kind", choices=("admin", "feature", "aux"), default="admin"),
        option("--n-groups", int),
        option("--aux-file"),
    ],
    "optimize": [
        *OUT_AND_SEED,
        option("--dataset", required=True),
        *SAMPLER,
        *COST,
        *SOLVER,
        option("--budget", float, required=True),
        option("--utility", dest="methods", default="rep-admin"),
        *UTILITY,
    ],
    "evaluate": [
        *OUT_AND_SEED,
        option("--dataset", required=True),
        option("--sample", required=True),
    ],
    "augment": STUDY,
    "rank-study": STUDY,
    "cost-sweep": STUDY,
    "size-sweep": STUDY,
}


def test_cli_surface():
    """Every subcommand's options, each with what it parses to: a dropped,
    added or retyped flag changes this table."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        command: {
            a.option_strings[0]: (
                a.dest, a.type or str, tuple(a.choices) if a.choices else None,
                a.required, a.default,
            )
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        for command, parser in sub.choices.items()
    }
    assert surface == {command: dict(rows) for command, rows in CLI_SURFACE.items()}


def readme_cli_commands():
    """argv of every ``geosampler`` command in README's fenced bash blocks,
    with comments dropped and continuation lines joined."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["geosampler"]:
                commands.append(argv[1:])
    return commands


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "generate", "groups", "optimize", "evaluate",
        "augment", "rank-study", "cost-sweep", "size-sweep",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_library_block_runs(tmp_path):
    """README's fenced python block runs as written against ``src/``."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
