"""Command-line entry points.

Subcommands: generate, groups, optimize, augment, evaluate, rank-study,
cost-sweep, size-sweep. On ``generate`` and the four study commands,
``--config FILE`` accepts a JSON document whose keys override the
corresponding flags. Exit codes: 0 success, 2 config error (any bad input,
including a missing input file), 3 infeasible request.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    CostModel,
    _csv_header,
    _read_rows,
    load_dataset,
    load_sample_state,
    save_cost_model,
    save_dataset,
    save_sample_state,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    build_utility_spec,
    config_from_dict,
    dataset_content_hash,
    parse_methods,
    run_augmentation,
    run_cost_sweep,
    run_initial_size_sweep,
    run_rank_study,
    synth_from_dict,
)
from .groups import admin_groups, auxiliary_kmeans_groups, feature_kmeans_groups, save_group_model
from .learner import fit_on_sample, save_model
from .optimizer import STEP_RULES, InfeasibleError, SolveOptions, save_solve_result
from .samplers import SamplerConfig, draw_initial_sample, solve_and_augment
from .synth import SynthConfig, generate, save_truth

# cmd_optimize reaches these through solve_and_augment; they stay bound here
# because perfbench/tracer.py times calls per calling module and rebinds them
from .data import expected_counts  # noqa: F401
from .optimizer import round_inclusion, solve_relaxation  # noqa: F401
from .samplers import optimized_augment  # noqa: F401

# flags stored under the ExperimentConfig field of the same name
_PLAIN_FIELDS = (
    "dataset", "n_strata", "k", "initial_size", "strata_seed", "c1", "c2",
    "budget_scope", "convenience_temperature", "n_anchors", "max_iters", "gap_tol",
    "step_rule",
)
# comma-separated flags -> element type of their ExperimentConfig tuple
_LIST_FIELDS = {"budgets": float, "c2_sweep": float, "rank_sizes": int, "initial_sizes": int}


def _parse_pair(text: str, sep: str, caster=int) -> tuple:
    parts = text.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"expected two values separated by {sep!r}, got {text!r}")
    return tuple(caster(p) for p in parts)


def _parse_list(text: str, caster=float) -> tuple:
    return tuple(caster(p) for p in text.split(",") if p != "")


def _add_out_and_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int, help="base random seed")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file whose keys override these flags")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strata-grid", default="3x2", help="e.g. 3x2")
    p.add_argument("--clusters-per-stratum", type=int, default=8)
    p.add_argument("--points-per-cluster", default="10:30", help="e.g. 10:30")
    p.add_argument("--feature-dim", type=int, default=5)
    p.add_argument("--coef-dispersion", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--feature-noise", type=float, default=0.5)
    p.add_argument("--feature-scale", type=float, default=1.0)
    p.add_argument("--target-snr", type=float, default=None)
    p.add_argument("--test-fraction", type=float, default=0.2)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-strata", type=int, default=2)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--initial-size", type=int, default=100)
    p.add_argument("--strata-seed", type=int, default=0)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c1", type=float, default=25.0)
    p.add_argument("--c2", type=float, default=50.0)
    p.add_argument("--budget-scope", choices=["augmentation", "total"],
                   default="augmentation")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--step-rule", choices=STEP_RULES, default="diminishing")


def _add_utility_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--n-groups", type=int, default=8)
    p.add_argument("--group-seed", type=int, default=0)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    p.add_argument("--dataset", help="dataset bundle directory")
    _add_synth_flags(p)
    _add_sampler_flags(p)
    _add_cost_flags(p)
    _add_solver_flags(p)
    p.add_argument("--budgets", default="100", help="comma-separated budgets")
    p.add_argument("--c2-sweep", default="25,30,40,50")
    p.add_argument("--methods", default="default,greedy,random,rep-admin",
                   help="baselines and/or opt-size, rep-admin, rep-feature")
    _add_utility_flags(p)
    p.add_argument("--rank-sizes", default="100,200,300,400,500,600,700,800,900,1000")
    p.add_argument("--initial-sizes", default="50,100,150")
    p.add_argument("--convenience-temperature", type=float, default=0.025)
    p.add_argument("--n-anchors", type=int, default=3)
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds; defaults to the single --seed")


def _synth_fields(args) -> dict:
    """SynthConfig fields from the synth flags and --seed, which carry their names."""
    doc = {f.name: getattr(args, f.name) for f in fields(SynthConfig)}
    doc["strata_grid"] = _parse_pair(args.strata_grid, "x")
    doc["points_per_cluster"] = _parse_pair(args.points_per_cluster, ":")
    return doc


def _config_file(args) -> dict:
    """The ``--config`` document, empty without the flag."""
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"--config file {path} does not exist")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ConfigError(f"--config file {path} must hold a JSON object")
    return doc


def _utility_params(args) -> dict:
    return {"lam": args.lam, "epsilon": args.epsilon, "n_groups": args.n_groups,
            "group_seed": args.group_seed}


def _experiment_config(args) -> ExperimentConfig:
    """One dict of ExperimentConfig fields from the flags, overlaid by the
    ``--config`` document."""
    doc = {name: getattr(args, name) for name in _PLAIN_FIELDS}
    for name, caster in _LIST_FIELDS.items():
        doc[name] = _parse_list(getattr(args, name), caster)
    doc["synth"] = None if args.dataset else _synth_fields(args)
    doc["baselines"], doc["utilities"] = parse_methods(
        _parse_list(args.methods, str), **_utility_params(args)
    )
    doc["seeds"] = _parse_list(args.seeds, int) if args.seeds else (args.seed,)
    return config_from_dict({**doc, **_config_file(args)})


def cmd_generate(args) -> int:
    cfg = synth_from_dict({**_synth_fields(args), **_config_file(args)})
    ds, truth = generate(cfg)
    out = Path(args.out_dir)
    save_dataset(ds, out, features_format=args.features_format)
    save_cost_model(
        CostModel(c1=args.c1, c2=args.c2, budget=args.budget,
                  budget_scope=args.budget_scope),
        out,
    )
    save_truth(truth, out)
    print(f"wrote bundle with {ds.n_points} points, {ds.n_clusters} clusters, "
          f"{len(ds.stratum_ids)} strata to {out}")
    return 0


def cmd_groups(args) -> int:
    if args.kind == "aux" and args.aux_file is None:
        raise ConfigError("--kind aux needs --aux-file")
    ds = load_dataset(args.dataset)
    if args.kind == "admin":
        gm = admin_groups(ds)
    elif args.kind == "feature":
        gm = feature_kmeans_groups(ds, args.n_groups, seed=args.seed)
    else:
        aux = _read_aux_matrix(Path(args.aux_file), ds)
        gm = auxiliary_kmeans_groups(ds, aux, args.n_groups, seed=args.seed)
    save_group_model(gm, ds, args.out_dir)
    print(f"wrote {gm.n_groups} {gm.kind} groups to {args.out_dir}")
    return 0


def _read_aux_matrix(path: Path, ds) -> np.ndarray:
    """The rows of ``path`` (``point_id`` then numbers, in the bundle CSV
    dialect) for the points of ``ds``; rows of other points are ignored."""
    if not path.exists():
        raise ConfigError(f"auxiliary file {path} does not exist")
    header, has_rows = _csv_header(path)
    if not header or header[0] != "point_id":
        raise ConfigError("auxiliary csv must start with a point_id column")
    dtype = [("point_id", object), ("v", np.float64, (len(header) - 1,))]
    rows = _read_rows(path, len(header), dtype=dtype, ndmin=1) if has_rows else np.empty(0, dtype)
    row_of: dict[str, int] = {}
    for row, pid in enumerate(rows["point_id"]):
        if row_of.setdefault(pid, row) != row:
            with path.open(newline="", encoding="utf-8") as fh:   # loadtxt skips blank lines
                reader = csv.reader(fh)
                next(reader)
                line = [reader.line_num for r in reader if r[:1] == [pid]][1]
            raise ConfigError(f"{path.name} line {line} repeats point id {pid!r}")
    try:
        return rows["v"][[row_of[pid] for pid in ds.point_ids]]
    except KeyError as exc:
        raise ConfigError(f"auxiliary csv missing point {exc}") from None


def _initial_state_and_costs(args, ds):
    scfg = SamplerConfig(
        n_strata=args.n_strata,
        k=args.k,
        initial_size=args.initial_size,
        strata_seed=args.strata_seed,
    )
    state = draw_initial_sample(ds, scfg, np.random.default_rng([args.seed, 0]))
    cm = CostModel(
        c1=args.c1, c2=args.c2, budget=args.budget, budget_scope=args.budget_scope
    ).with_initial_strata(state.initial_strata)
    return state, cm


def cmd_optimize(args) -> int:
    _, utilities = parse_methods((args.utility,), **_utility_params(args))
    if not utilities:
        raise ConfigError(f"--utility {args.utility!r} is a baseline, not a utility")
    ds = load_dataset(args.dataset)
    state, cm = _initial_state_and_costs(args, ds)
    spec = build_utility_spec(ds, utilities[0])
    opts = SolveOptions(max_iters=args.max_iters, gap_tol=args.gap_tol,
                        step_rule=args.step_rule)
    augmented, result, selected = solve_and_augment(
        ds, state, cm, args.budget, spec, opts, np.random.default_rng([args.seed, 1])
    )
    out = Path(args.out_dir)
    save_solve_result(ds, result, out, selected=selected)
    save_sample_state(ds, augmented, out / "sample.json")
    print(f"solved in {result.iterations} iterations, gap {result.gap:.3g}, "
          f"utility {result.utility:.6g}; rounded to {len(selected)} clusters")
    return 0


def cmd_augment(args) -> int:
    cfg = _experiment_config(args)
    records = run_augmentation(cfg, args.out_dir)
    n_inf = sum(r["infeasible"] for r in records)
    print(f"wrote {len(records)} runs ({n_inf} infeasible) to {args.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    ds = load_dataset(args.dataset)
    state = load_sample_state(ds, args.sample)
    model, r2 = fit_on_sample(ds, state, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    results = out / "results.csv"
    new_file = not results.exists()
    with results.open("a", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if new_file:
            w.writerow(["sample", "seed", "r2", "n_labeled", "alpha", "dataset_hash"])
        w.writerow([
            str(args.sample), args.seed, repr(r2), state.n_labeled,
            repr(model.alpha), dataset_content_hash(ds),
        ])
    print(f"test R^2 = {r2:.6f} (alpha {model.alpha:g}, {state.n_labeled} points)")
    return 0


def cmd_rank_study(args) -> int:
    cfg = _experiment_config(args)
    records = run_rank_study(cfg, args.out_dir)
    print(f"wrote {len(records)} scored samples to {args.out_dir}")
    return 0


def cmd_cost_sweep(args) -> int:
    cfg = _experiment_config(args)
    records = run_cost_sweep(cfg, args.out_dir)
    print(f"wrote {len(records)} sweep runs to {args.out_dir}")
    return 0


def cmd_size_sweep(args) -> int:
    cfg = _experiment_config(args)
    records = run_initial_size_sweep(cfg, args.out_dir)
    print(f"wrote {len(records)} sweep runs to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geosampler",
        description="Budget-aware selection of spatial sampling units",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset bundle")
    _add_out_and_seed(p)
    _add_config_flag(p)
    _add_synth_flags(p)
    _add_cost_flags(p)
    p.add_argument("--budget", type=float, default=500.0)
    p.add_argument("--features-format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("groups", help="build and save a group model")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["admin", "feature", "aux"], default="admin")
    p.add_argument("--n-groups", type=int, default=8)
    p.add_argument("--aux-file", help="csv of per-point auxiliary vectors")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("optimize", help="solve the relaxed selection problem")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    _add_sampler_flags(p)
    _add_cost_flags(p)
    _add_solver_flags(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--utility", default="rep-admin",
                   help="opt-size, rep-admin, or rep-feature")
    _add_utility_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("augment", help="run the augmentation comparison table")
    _add_out_and_seed(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("evaluate", help="train and score a saved sample")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sample", required=True, help="sample.json path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank-study", help="utility vs performance rank study")
    _add_out_and_seed(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_rank_study)

    p = sub.add_parser("cost-sweep", help="vary the out-of-strata cost c2")
    _add_out_and_seed(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_cost_sweep)

    p = sub.add_parser("size-sweep", help="vary the initial sample size")
    _add_out_and_seed(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_size_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # every package error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
