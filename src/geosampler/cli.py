"""Command-line entry points.

Subcommands: generate, groups, optimize, augment, evaluate, rank-study,
cost-sweep, size-sweep. A flag sets the config dataclass field of its name
(``SynthConfig``, ``ExperimentConfig`` or ``UtilityConfig``); a flag left out
is not passed, so the field keeps the default its dataclass declares. On
``generate`` and the four study commands, ``--config FILE`` accepts a JSON
document whose keys override the flags, decoded by
:func:`~geosampler.experiments.from_json`. Exit codes: 0 success, 2 config
error (any bad input, including a missing input file), 3 infeasible request.
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
    UtilityConfig,
    _methods,
    build_utility_spec,
    dataset_content_hash,
    from_json,
    parse_methods,
    run_augmentation,
    run_cost_sweep,
    run_initial_size_sweep,
    run_rank_study,
)
from .groups import admin_groups, auxiliary_kmeans_groups, feature_kmeans_groups, save_group_model
from .learner import fit_on_sample, save_model
from .optimizer import STEP_RULES, InfeasibleError, save_solve_result
from .samplers import draw_initial_sample, solve_and_augment
from .synth import SynthConfig, generate, save_truth

# cmd_optimize reaches these through solve_and_augment; they stay bound here
# because perfbench/tracer.py times calls per calling module and rebinds them
from .data import expected_counts  # noqa: F401
from .optimizer import round_inclusion, solve_relaxation  # noqa: F401
from .samplers import optimized_augment  # noqa: F401


def _parse_pair(text: str, sep: str, caster=int) -> tuple:
    parts = text.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"expected two values separated by {sep!r}, got {text!r}")
    return tuple(caster(p) for p in parts)


def _parse_list(text: str, flag: str, caster=float) -> tuple:
    """The comma-separated items of ``flag``'s text. An empty text is the
    empty tuple, which the config rejects where the command sweeps it; an
    empty item in a non-empty text (``100,,``) is an error."""
    if not text:
        return ()
    items = text.split(",")
    if "" in items:
        raise ConfigError(f"{flag} {text!r} has an empty item")
    return tuple(caster(p) for p in items)


def _check_out_dir(path: str) -> None:
    """Fail before any work if ``path``, or an existing ancestor of it, is
    not a directory: the output could never be written there."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out-dir {path}: {p} exists and is not a directory")
            return


def _add_out_and_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int, help="base random seed")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file whose keys override these flags")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strata-grid", help="e.g. 3x2")
    p.add_argument("--clusters-per-stratum", type=int)
    p.add_argument("--points-per-cluster", help="e.g. 10:30")
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--coef-dispersion", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--feature-noise", type=float)
    p.add_argument("--feature-scale", type=float)
    p.add_argument("--target-snr", type=float)
    p.add_argument("--test-fraction", type=float)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-strata", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--initial-size", type=int)
    p.add_argument("--strata-seed", type=int)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--budget-scope", choices=["augmentation", "total"])


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int)
    p.add_argument("--gap-tol", type=float)
    p.add_argument("--step-rule", choices=STEP_RULES)


def _add_utility_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n-groups", type=int)
    p.add_argument("--group-seed", type=int)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    p.add_argument("--dataset", help="dataset bundle directory")
    _add_synth_flags(p)
    _add_sampler_flags(p)
    _add_cost_flags(p)
    _add_solver_flags(p)
    p.add_argument("--budgets", help="comma-separated budgets")
    p.add_argument("--c2-sweep")
    p.add_argument("--methods", help="baselines and/or opt-size, rep-admin, rep-feature")
    _add_utility_flags(p)
    p.add_argument("--rank-sizes")
    p.add_argument("--initial-sizes")
    p.add_argument("--convenience-temperature", type=float)
    p.add_argument("--n-anchors", type=int)
    p.add_argument("--seeds", help="comma-separated seeds; defaults to the single --seed")


# flags whose text holds a tuple -> its parser
_TEXT_FIELDS = {
    "strata_grid": lambda text: _parse_pair(text, "x"),
    "points_per_cluster": lambda text: _parse_pair(text, ":"),
    "budgets": lambda text: _parse_list(text, "--budgets"),
    "c2_sweep": lambda text: _parse_list(text, "--c2-sweep"),
    "rank_sizes": lambda text: _parse_list(text, "--rank-sizes", int),
    "initial_sizes": lambda text: _parse_list(text, "--initial-sizes", int),
    "seeds": lambda text: _parse_list(text, "--seeds", int),
}


def _given(args, cls) -> dict:
    """The fields of the config dataclass ``cls`` that the given flags set."""
    given = vars(args)
    return {f.name: _TEXT_FIELDS.get(f.name, lambda v: v)(given[f.name])
            for f in fields(cls) if f.name in given}


def _config_file(args) -> dict:
    """The ``--config`` document, empty without the flag."""
    if "config" not in args:
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"--config file {path} does not exist or is not a file")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ConfigError(f"--config file {path} must hold a JSON object")
    return doc


def _experiment_config(args) -> ExperimentConfig:
    """The ExperimentConfig of the given flags, overlaid by the ``--config``
    document. A document that sets ``dataset`` or ``synth`` picks the
    population source by itself; otherwise ``--dataset`` picks it, or the
    synth flags with ``--seed``."""
    doc = {"seeds": (args.seed,), **_given(args, ExperimentConfig)}
    if "dataset" not in doc:
        doc["synth"] = _given(args, SynthConfig)
    if "methods" in args:
        flag = "--utility" if args.command == "optimize" else "--methods"
        names = _parse_list(args.methods, flag, str)
    else:
        names = _methods(ExperimentConfig)
    doc["baselines"], doc["utilities"] = parse_methods(names, **_given(args, UtilityConfig))
    overrides = _config_file(args)
    if overrides.get("dataset") is not None or overrides.get("synth") is not None:
        doc.update(dataset=None, synth=None)
    return from_json(ExperimentConfig, {**doc, **overrides})


def cmd_generate(args) -> int:
    cfg = from_json(SynthConfig, {**_given(args, SynthConfig), **_config_file(args)})
    # the cost flags are ExperimentConfig's, and take its defaults
    cm = ExperimentConfig(synth=cfg, **_given(args, ExperimentConfig)).cost_model(args.budget)
    ds, truth = generate(cfg)
    out = Path(args.out_dir)
    save_dataset(ds, out, features_format=args.features_format)
    save_cost_model(cm, out)
    save_truth(truth, out)
    print(f"wrote bundle with {ds.n_points} points, {ds.n_clusters} clusters, "
          f"{len(ds.stratum_ids)} strata to {out}")
    return 0


def cmd_groups(args) -> int:
    if args.kind == "aux" and "aux_file" not in args:
        raise ConfigError("--kind aux needs --aux-file")
    ds = load_dataset(args.dataset)
    n_groups = vars(args).get("n_groups", UtilityConfig.n_groups)
    if args.kind == "admin":
        gm = admin_groups(ds)
    elif args.kind == "feature":
        gm = feature_kmeans_groups(ds, n_groups, seed=args.seed)
    else:
        aux = _read_aux_matrix(Path(args.aux_file), ds)
        gm = auxiliary_kmeans_groups(ds, aux, n_groups, seed=args.seed)
    save_group_model(gm, ds, args.out_dir)
    print(f"wrote {gm.n_groups} {gm.kind} groups to {args.out_dir}")
    return 0


def _read_aux_matrix(path: Path, ds) -> np.ndarray:
    """The rows of ``path`` (``point_id`` then numbers, in the bundle CSV
    dialect) for the points of ``ds``; rows of other points are ignored."""
    if not path.is_file():
        raise ConfigError(f"auxiliary file {path} does not exist or is not a file")
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


def cmd_optimize(args) -> int:
    cfg = _experiment_config(args)   # --utility is its one method
    if cfg.baselines or len(cfg.utilities) != 1:
        raise ConfigError(
            f"--utility {args.methods!r} must be one of opt-size, rep-admin, rep-feature")
    ds = load_dataset(cfg.dataset)
    state = draw_initial_sample(ds, cfg.sampler_config(), np.random.default_rng([args.seed, 0]))
    cm = cfg.cost_model(args.budget).with_initial_strata(state.initial_strata)
    spec = build_utility_spec(ds, cfg.utilities[0])
    augmented, result, selected = solve_and_augment(
        ds, state, cm, spec, np.random.default_rng([args.seed, 1]), cfg.solve_options()
    )
    out = Path(args.out_dir)
    save_solve_result(ds, result, out, selected=selected)
    save_sample_state(ds, augmented, out / "sample.json")
    print(f"solved in {result.iterations} iterations, gap {result.gap:.3g}, "
          f"utility {result.utility:.6g}; rounded to {len(selected)} clusters")
    return 0


def cmd_evaluate(args) -> int:
    ds = load_dataset(args.dataset)
    state = load_sample_state(ds, args.sample)
    model, r2 = fit_on_sample(ds, state, seed=args.seed)
    out = Path(args.out_dir)
    save_model(model, out / "model.json")   # makes out, which the append below needs
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


def cmd_study(args) -> int:
    """Run the study of the command. Its runner, ``args.runner``, is looked up
    by name in this module at call time, so a later rebinding here is called."""
    run = globals()[args.runner]
    records = run(_experiment_config(args), args.out_dir)
    n_inf = sum(bool(r.get("infeasible")) for r in records)
    n_skipped = sum(r.get("status") == "skipped" for r in records)
    print(f"wrote {len(records)} rows ({n_inf} infeasible, {n_skipped} skipped) "
          f"to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geosampler",
        description="Budget-aware selection of spatial sampling units",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        # a flag left out stays out of the namespace, so its field keeps the
        # default of its config dataclass
        return sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)

    def add_study(name: str, text: str, runner: str) -> None:
        p = add(name, text)
        _add_out_and_seed(p)
        _add_experiment_flags(p)
        p.set_defaults(func=cmd_study, runner=runner)

    p = add("generate", "generate a synthetic dataset bundle")
    _add_out_and_seed(p)
    _add_config_flag(p)
    _add_synth_flags(p)
    _add_cost_flags(p)
    p.add_argument("--budget", type=float, default=500.0)
    p.add_argument("--features-format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_generate)

    p = add("groups", "build and save a group model")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["admin", "feature", "aux"], default="admin")
    p.add_argument("--n-groups", type=int)
    p.add_argument("--aux-file", help="csv of per-point auxiliary vectors")
    p.set_defaults(func=cmd_groups)

    p = add("optimize", "solve the relaxed selection problem")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    _add_sampler_flags(p)
    _add_cost_flags(p)
    _add_solver_flags(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--utility", dest="methods", metavar="UTILITY", default="rep-admin",
                   help="opt-size, rep-admin, or rep-feature")
    _add_utility_flags(p)
    p.set_defaults(func=cmd_optimize)

    add_study("augment", "run the augmentation comparison table", "run_augmentation")

    p = add("evaluate", "train and score a saved sample")
    _add_out_and_seed(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sample", required=True, help="sample.json path")
    p.set_defaults(func=cmd_evaluate)

    add_study("rank-study", "utility vs performance rank study", "run_rank_study")
    add_study("cost-sweep", "vary the out-of-strata cost c2", "run_cost_sweep")
    add_study("size-sweep", "vary the initial sample size", "run_initial_size_sweep")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out_dir)   # every command takes one
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # every package error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
