"""The benchmark's workloads: set-up, one timed repetition, and output checks.

Every workload is single-process, single-caller and closed-loop: each call
waits for the previous one. The workload seed drives the samplers and the
rounding; the population (the synthetic geography) comes from its own seed,
42 by default, so that every workload seed measures the same population.

Paths handed to the program are relative to the checkout root and identical
on every repetition and run, because experiment tables hash the dataset path
string into their ``config_hash`` column.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geosampler import cli, data, experiments, groups, optimizer, samplers, synth
from geosampler.utility import UtilitySpec

MAX_ITERS = 500
GAP_TOL = 1e-6
# solve-large's order: the certified solve first
STEP_RULES = ("away", "line-search", "diminishing")
# relative slack for costs the checks sum in another order than the program
BUDGET_RTOL = 1e-9


@dataclass
class Checked:
    """What the checks found in one repetition's outputs."""

    ops: list[str]                               # operations attempted
    failures: dict[str, str] = field(default_factory=dict)  # op -> first reason
    rows: int = 0                                # scored experiment rows written
    solve_to_gap_s: float | None = None
    infeasible_cells: int = 0

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def require(self, ok: bool, op: str, reason: str) -> None:
        if not ok:
            self.fail(op, reason)


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# -- pipeline-demo --------------------------------------------------------


class PipelineDemo:
    """The README command sequence through ``geosampler.cli.main``."""

    name = "pipeline-demo"

    def __init__(self, scale: str, population_seed: int, work: Path):
        tiny = scale == "tiny"
        self.population_seed = population_seed
        self.generate_flags = (
            ["--strata-grid", "3x2", "--clusters-per-stratum", "6",
             "--points-per-cluster", "12:16", "--feature-dim", "6"]
            if tiny else
            ["--strata-grid", "5x2", "--clusters-per-stratum", "20",
             "--points-per-cluster", "25:35", "--feature-dim", "48"]
        ) + ["--coef-dispersion", "1.2", "--target-snr", "15"]
        self.initial_size = "30" if tiny else "80"
        self.budget = 100.0 if tiny else 250.0
        self.augment_budgets = "50,100" if tiny else "200,250,300"
        self.n_groups = "3" if tiny else "8"
        self.rank_strata = "4" if tiny else "10"
        # the README leaves rank sizes at their default; the tiny population
        # needs smaller ones
        self.rank_flags = ["--rank-sizes", "20,40,60"] if tiny else []
        self.initial_sizes = "20,30,40" if tiny else "50,80,120"

    def setup(self, seed: int) -> dict:
        # the whole pipeline, bundle generation included, is the timed section
        return {}

    def commands(self, rep: Path, seed: int) -> list[tuple[str, list[str]]]:
        s = str(seed)
        bundle, out = str(rep / "data" / "demo"), rep / "out"
        common = ["--n-strata", "2", "--k", "10", "--initial-size", self.initial_size]
        return [
            ("generate", ["--out-dir", bundle, "--seed", str(self.population_seed)]
             + self.generate_flags),
            # k-means keeps the README's seed: its iteration count, and with it
            # a third of this workload's time, varies with the seed
            ("groups", ["--dataset", bundle, "--kind", "feature", "--n-groups",
                        self.n_groups, "--seed", "0", "--out-dir", str(out / "groups")]),
            # the README's --step-rule away is rejected by the CLI's flag
            # parser, so the demo solves with line-search
            ("optimize", ["--dataset", bundle, "--out-dir", str(out / "opt"),
                          "--seed", str(seed + 1)] + common
             + ["--budget", f"{self.budget:g}", "--utility", "rep-admin",
                "--step-rule", "line-search"]),
            ("evaluate", ["--dataset", bundle, "--sample", str(out / "opt" / "sample.json"),
                          "--out-dir", str(out / "eval"), "--seed", s]),
            ("augment", ["--dataset", bundle, "--seed", s,
                         "--seeds", ",".join(str(seed + i) for i in range(5)),
                         "--out-dir", str(out / "table")] + common
             + ["--budgets", self.augment_budgets,
                "--methods", "default,greedy,random,rep-admin"]),
            ("rank-study", ["--dataset", bundle, "--seed", s, "--out-dir", str(out / "rank"),
                            "--n-strata", self.rank_strata, "--k", "10",
                            "--methods", "rep-admin"] + self.rank_flags),
            ("cost-sweep", ["--dataset", bundle, "--seed", s, "--out-dir", str(out / "cost")]
             + common + ["--budgets", f"{self.budget:g}", "--c2-sweep", "25,30,40,50",
                         "--methods", "default,random,rep-admin"]),
            ("size-sweep", ["--dataset", bundle, "--seed", s, "--out-dir", str(out / "size"),
                            "--n-strata", "2", "--k", "10",
                            "--initial-sizes", self.initial_sizes,
                            "--budgets", f"{self.budget:g}", "--methods", "rep-admin"]),
        ]

    def run(self, ctx: dict, rep: Path, seed: int, span) -> dict:
        exits = {}
        for command, args in self.commands(rep, seed):
            sink = io.StringIO()
            with span(f"cli.{command}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    exits[command] = cli.main([command] + args)
                except SystemExit as exc:   # argparse rejects a flag
                    exits[command] = exc.code
                except Exception as exc:    # noqa: BLE001 - a failed op, reported
                    exits[command] = f"{type(exc).__name__}: {exc}"
        return exits

    def check(self, ctx: dict, rep: Path, seed: int, exits: dict) -> Checked:
        chk = Checked(ops=[c for c, _ in self.commands(rep, seed)])
        for command in chk.ops:
            chk.require(exits.get(command) == 0, command, f"exit {exits.get(command)!r}")
        out = rep / "out"
        tables = {
            "augment": out / "table" / "runs.csv",
            "rank-study": out / "rank" / "samples.csv",
            "cost-sweep": out / "cost" / "sweep_runs.csv",
            "size-sweep": out / "size" / "size_runs.csv",
            "evaluate": out / "eval" / "results.csv",
        }
        for command, path in tables.items():
            if not path.exists():
                chk.fail(command, f"missing {path.name}")
                continue
            rows = read_csv(path)
            if command != "evaluate":
                chk.rows += len(rows)
            for row in rows:
                for col in ("r2", "initial_r2", "delta_r2"):
                    if col in row:
                        chk.require(_finite(row[col]), command, f"{col}={row[col]!r}")
                if "spent" in row:
                    budget = float(row.get("budget", self.budget))
                    chk.require(float(row["spent"]) <= budget * (1 + BUDGET_RTOL), command,
                                f"spent {row['spent']} over budget {budget}")
            if command in ("augment", "cost-sweep", "size-sweep"):
                chk.infeasible_cells += sum(row["infeasible"] == "1" for row in rows)
        self._check_optimize(rep, chk)
        return chk

    def _check_optimize(self, rep: Path, chk: Checked) -> None:
        opt = rep / "out" / "opt"
        try:
            meta = json.loads((opt / "solve_meta.json").read_text(encoding="utf-8"))
            sample = json.loads((opt / "sample.json").read_text(encoding="utf-8"))
            inclusion = read_csv(opt / "inclusion.csv")
            bundle = json.loads((rep / "data" / "demo" / "meta.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            chk.fail("optimize", f"unreadable output: {exc}")
            return
        stratum = {cid: s["stratum_id"] for s in bundle["strata"] for cid in s["cluster_ids"]}
        initial = set(sample["initial_strata"])
        relaxed = rounded = 0.0
        for row in inclusion:
            if row["committed"] == "1":
                continue
            cost = 25.0 if stratum[row["cluster_id"]] in initial else 50.0
            relaxed += float(row["probability"]) * cost
            rounded += cost * (row["selected_after_rounding"] == "1")
        limit = self.budget * (1 + BUDGET_RTOL)
        chk.require(meta["budget_used"] <= limit, "optimize", "relaxed cost over budget")
        chk.require(relaxed <= limit, "optimize", f"relaxed cost {relaxed} over budget")
        chk.require(rounded <= limit, "optimize", f"rounded cost {rounded} over budget")
        chk.require(sample["spent"] <= limit, "optimize", "sample.json spent over budget")
        chk.require(math.isfinite(meta["utility"]), "optimize", "utility not finite")


# -- the large population ------------------------------------------------


class _Large:
    """Shared set-up of the ROADMAP "large" population stored as a bin bundle."""

    def __init__(self, scale: str, population_seed: int, work: Path):
        tiny = scale == "tiny"
        self.synth = synth.SynthConfig(
            strata_grid=(3, 3) if tiny else (10, 10),
            clusters_per_stratum=10 if tiny else 50,
            points_per_cluster=(10, 14) if tiny else (25, 35),
            feature_dim=6 if tiny else 48,
            coef_dispersion=1.2,
            target_snr=15,
            seed=population_seed,
        )
        self.initial_size = 30 if tiny else 80
        self.budgets = (200.0, 500.0) if tiny else (1000.0, 2500.0)
        self.bundle = str(work / "bundle")

    def write_bundle(self) -> str:
        ds, _ = synth.generate(self.synth)
        shutil.rmtree(self.bundle, ignore_errors=True)
        data.save_dataset(ds, self.bundle, features_format="bin")
        return self.bundle


class SolveLarge(_Large):
    """Certified Frank-Wolfe solves of one large relaxed selection problem."""

    name = "solve-large"
    n_roundings = 64

    def setup(self, seed: int) -> dict:
        bundle = self.write_bundle()
        ds = data.load_dataset(bundle)
        gm = groups.admin_groups(ds)
        counts = data.expected_counts(ds, gm, 10)
        state = samplers.draw_initial_sample(
            ds, samplers.SamplerConfig(n_strata=2, k=10, initial_size=self.initial_size),
            np.random.default_rng([seed, 0]),
        )
        cm = data.CostModel(c1=25.0, c2=50.0, budget=self.budgets[-1]).with_initial_strata(
            state.initial_strata)
        spec = UtilitySpec(kind="group_rep", lam=0.5, groups=gm)
        return {"ds": ds, "counts": counts, "problem": (state, cm, spec)}

    def run(self, ctx: dict, rep: Path, seed: int, span) -> dict:
        ds, counts = ctx["ds"], ctx["counts"]
        state, cm, spec = ctx["problem"]
        results, times = {}, {}
        for rule in STEP_RULES:
            opts = optimizer.SolveOptions(max_iters=MAX_ITERS, gap_tol=GAP_TOL, step_rule=rule)
            t0 = time.perf_counter()
            results[rule] = optimizer.solve_relaxation(ds, counts, cm, spec, state, opts)
            times[rule] = time.perf_counter() - t0
        rem = optimizer.remaining_budget(ds, cm, state)
        away = results["away"].inclusion
        draws = [
            optimizer.round_inclusion(ds, away, cm, rem, np.random.default_rng([seed, 2, i]))
            for i in range(self.n_roundings)
        ]
        return {"results": results, "times": times, "draws": draws, "rem": rem}

    def write_outputs(self, ctx: dict, rep: Path, out: dict) -> None:
        """Outputs for the fingerprint, written after the timed section."""
        for rule, result in out["results"].items():
            selected = out["draws"][0] if rule == "away" else ()
            optimizer.save_solve_result(ctx["ds"], result, rep / rule, selected=selected)
        (rep / "draws.json").write_text(json.dumps(out["draws"]) + "\n", encoding="utf-8")

    def check(self, ctx: dict, rep: Path, seed: int, out: dict) -> Checked:
        chk = Checked(ops=[f"solve:{r}" for r in STEP_RULES]
                      + [f"round:{i}" for i in range(self.n_roundings)])
        ds = ctx["ds"]
        _, cm, _ = ctx["problem"]
        rem = out["rem"]
        limit = rem * (1 + BUDGET_RTOL) + 1e-12
        for rule, res in out["results"].items():
            op = f"solve:{rule}"
            chk.require(math.isfinite(res.utility), op, "utility not finite")
            chk.require(res.budget_used <= limit, op,
                        f"relaxed cost {res.budget_used} over budget {rem}")
        away = out["results"]["away"]
        scale = max(1.0, abs(away.utility))
        chk.require(away.gap <= GAP_TOL * scale, "solve:away",
                    f"gap {away.gap:.3g} above {GAP_TOL:g}*max(1,|U|)")
        for rule in ("line-search", "diminishing"):
            # U* <= U_away + gap_away for a concave utility
            other = out["results"][rule].utility
            chk.require(other <= away.utility + away.gap + 1e-12 * scale, "solve:away",
                        f"U_{rule}={other!r} beats U_away={away.utility!r} beyond its gap")
        for i, selected in enumerate(out["draws"]):
            cost = sum(data.cluster_cost(cm, ds.cluster(cid)) for cid in selected)
            chk.require(cost <= limit, f"round:{i}", f"rounded cost {cost} over budget {rem}")
        chk.solve_to_gap_s = out["times"]["away"]
        return chk


class AugmentLarge(_Large):
    """The augmentation experiment grid on the large bundle."""

    name = "augment-large"

    def setup(self, seed: int) -> dict:
        # run_augmentation loads the bundle itself, inside the timed section
        return {"bundle": self.write_bundle()}

    def config(self, ctx: dict, seed: int) -> experiments.ExperimentConfig:
        return experiments.ExperimentConfig(
            dataset=ctx["bundle"],
            n_strata=2,
            k=10,
            initial_size=self.initial_size,
            c1=25.0,
            c2=50.0,
            budgets=self.budgets,
            baselines=("default", "greedy", "random"),
            utilities=(experiments.UtilityConfig(kind="group_rep", groups="admin"),),
            seeds=(seed, seed + 1),
            max_iters=MAX_ITERS,
            gap_tol=GAP_TOL,
        )

    def run(self, ctx: dict, rep: Path, seed: int, span) -> list:
        return experiments.run_augmentation(self.config(ctx, seed), str(rep))

    def check(self, ctx: dict, rep: Path, seed: int, records: list) -> Checked:
        cfg = self.config(ctx, seed)
        methods = list(cfg.baselines) + [u.method_name() for u in cfg.utilities]
        cells = [(b, m, s) for s in cfg.seeds for b in cfg.budgets for m in methods]
        cell_ops = [f"cell:{b:g}:{m}:{s}" for b, m, s in cells]
        chk = Checked(ops=cell_ops + ["table"])
        path = rep / "runs.csv"
        rows = read_csv(path) if path.exists() else []
        chk.rows = len(rows)
        seen = set()
        for row in rows:
            op = f"cell:{float(row['budget']):g}:{row['method']}:{row['seed']}"
            seen.add(op)
            for col in ("r2", "initial_r2", "delta_r2"):
                chk.require(_finite(row[col]), op, f"{col}={row[col]!r}")
            chk.require(float(row["spent"]) <= float(row["budget"]) * (1 + BUDGET_RTOL), op,
                        f"spent {row['spent']} over budget {row['budget']}")
            chk.infeasible_cells += row["infeasible"] == "1"
        for op in cell_ops:
            chk.require(op in seen, op, "no row in runs.csv")
        table = rep / "table.csv"
        chk.require(table.exists(), "table", "missing table.csv")
        for row in read_csv(table) if table.exists() else []:
            chk.require(row["status"] in ("ok", "infeasible"), "table",
                        f"status {row['status']!r}")
        return chk


WORKLOADS = {w.name: w for w in (PipelineDemo, SolveLarge, AugmentLarge)}
