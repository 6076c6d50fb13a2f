"""Command-line entry points.

Subcommands: generate, groups, optimize, evaluate, augment, rank-study,
cost-sweep, size-sweep. A config-field flag is generated from the field of its
name (``SynthConfig``, ``ExperimentConfig`` or ``UtilityConfig``): dashes for
underscores, its text converted by the field's type, a tuple field's as
``AxB``, ``A:B`` or a comma list. A flag left out is not passed, so the field
keeps the default its dataclass declares. The other flags are ``--out-dir``,
``--seed``, ``--config``, ``--budget`` of ``optimize``,
``--methods``/``--utility``, a required ``--dataset``, ``--kind``,
``--n-groups`` of ``groups``, ``--aux-file``,
``--sample`` and ``--features-format`` (``generate``'s features file: float64
``bin``, the default of ``save_dataset``, or text ``csv``). ``--config FILE``
(``generate`` and the studies) takes a JSON document whose keys override the
flags, decoded by :func:`~geosampler.experiments.from_json`. Exit codes: 0
success, 2 config error (any bad input, including a missing input file).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import types
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    FEATURES_FORMATS,
    _csv_header,
    _read_rows,
    load_dataset,
    load_sample_state,
    save_dataset,
    save_sample_state,
)
from .experiments import (
    BASELINES,
    METHODS,
    ConfigError,
    ExperimentConfig,
    UtilityConfig,
    _methods,
    build_utility_spec,
    dataset_content_hash,
    field_types,
    from_json,
    parse_methods,
    run_augmentation,
    run_cost_sweep,
    run_initial_size_sweep,
    run_rank_study,
)
from .groups import admin_groups, auxiliary_kmeans_groups, feature_kmeans_groups, save_group_model
from .learner import fit_on_sample, save_model
from .optimizer import STEP_RULES, SolveOptions, save_solve_result
from .samplers import SamplerConfig, draw_initial_sample, solve_and_augment
from .synth import SynthConfig, generate, save_truth

# cmd_optimize reaches these through solve_and_augment; they stay bound here
# because perfbench/tracer.py times calls per calling module and rebinds them
from .data import expected_counts  # noqa: F401
from .optimizer import round_inclusion, solve_relaxation  # noqa: F401
from .samplers import optimized_augment  # noqa: F401


def _parse_list(text: str, flag: str, caster) -> tuple:
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


def _fields(cls, *without: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in without)


# the config fields the commands take as flags: --methods (--utility) sets
# UtilityConfig.kind and groups, and --config alone
# ExperimentConfig.convenience_anchors, a tuple of pairs
_OPTIMIZE_FIELDS = _fields(SamplerConfig) + ("c1", "c2") + _fields(SolveOptions)
_STUDY_FIELDS = _fields(ExperimentConfig, "synth", "baselines", "utilities", "convenience_anchors")
_UTILITY_FIELDS = _fields(UtilityConfig, "kind", "groups")
# a pair field's separator; a tuple[X, ...] field's text is a comma list of X
_SEPARATORS = {"strata_grid": "x", "points_per_cluster": ":"}
_CHOICES = {"step_rule": STEP_RULES}
_HELP = {"dataset": "dataset bundle directory", "strata_grid": "e.g. 3x2",
         "points_per_cluster": "e.g. 10:30", "budgets": "comma-separated budgets",
         "seeds": "comma-separated seeds; defaults to the single --seed"}
_UTILITY_METHODS = tuple(m for m in METHODS if m not in BASELINES)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_fields(p: argparse.ArgumentParser, cls, names: tuple[str, ...]) -> None:
    """A ``--field-name`` flag for each named field of the config dataclass
    ``cls``, converted by the field's annotation (X for ``X | None``). A
    tuple field's flag keeps its text, which :func:`_given` parses."""
    for name in names:
        tp = field_types(cls)[name]
        if typing.get_origin(tp) in (typing.Union, types.UnionType):
            (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
        p.add_argument(_flag(name), type=None if typing.get_origin(tp) is tuple else tp,
                       choices=_CHOICES.get(name), help=_HELP.get(name))


def _given(args, cls) -> dict:
    """The fields of the config dataclass ``cls`` that the given flags set,
    the text of a tuple field parsed by its annotation."""
    given = vars(args)
    return {name: _parse_field(name, tp, given[name])
            for name, tp in field_types(cls).items() if name in given}


def _parse_field(name: str, tp, value):
    if typing.get_origin(tp) is not tuple:
        return value
    caster, *rest = typing.get_args(tp)
    if rest == [Ellipsis]:
        return _parse_list(value, _flag(name), caster)
    sep = _SEPARATORS[name]
    parts = value.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"expected two values separated by {sep!r}, got {value!r}")
    return tuple(caster(p) for p in parts)


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
    ds, truth = generate(cfg)
    out = Path(args.out_dir)
    save_dataset(ds, out, features_format=args.features_format)
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
            f"--utility {args.methods!r} must be one of {', '.join(_UTILITY_METHODS)}")
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

    # a flag left out stays out of the namespace, so its field keeps the
    # default of its config dataclass. The flags several commands take are
    # declared once, on a parent parser that each command's parser copies
    shared = functools.partial(
        argparse.ArgumentParser, add_help=False, argument_default=argparse.SUPPRESS)

    def add(name: str, text: str, base: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=text, parents=[base], argument_default=argparse.SUPPRESS)

    common = shared()
    common.add_argument("--out-dir", required=True, help="output directory")
    common.add_argument("--seed", required=True, type=int, help="base random seed")
    population = shared(parents=[common])   # generate and the studies
    population.add_argument("--config", help="JSON file whose keys override these flags")
    _add_fields(population, SynthConfig, _fields(SynthConfig, "seed"))   # --seed sets seed
    study = shared(parents=[population])
    _add_fields(study, ExperimentConfig, _STUDY_FIELDS)
    study.add_argument("--methods", help=f"baselines and/or {', '.join(_UTILITY_METHODS)}")
    _add_fields(study, UtilityConfig, _UTILITY_FIELDS)

    p = add("generate", "generate a synthetic dataset bundle", population)
    p.add_argument("--features-format", choices=FEATURES_FORMATS, default=FEATURES_FORMATS[0],
                   help="features file: bin is lossless float64, csv is text (default %(default)s)")
    p.set_defaults(func=cmd_generate)

    p = add("groups", "build and save a group model", common)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["admin", "feature", "aux"], default="admin")
    p.add_argument("--n-groups", type=int)
    p.add_argument("--aux-file", help="csv of per-point auxiliary vectors")
    p.set_defaults(func=cmd_groups)

    p = add("optimize", "solve the relaxed selection problem", common)
    p.add_argument("--dataset", required=True)
    _add_fields(p, ExperimentConfig, _OPTIMIZE_FIELDS)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--utility", dest="methods", metavar="UTILITY", default="rep-admin",
                   help=f"{', '.join(_UTILITY_METHODS[:-1])}, or {_UTILITY_METHODS[-1]}")
    _add_fields(p, UtilityConfig, _UTILITY_FIELDS)
    p.set_defaults(func=cmd_optimize)

    p = add("evaluate", "train and score a saved sample", common)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sample", required=True, help="sample.json path")
    p.set_defaults(func=cmd_evaluate)

    for name, text, runner in [
        ("augment", "run the augmentation comparison table", "run_augmentation"),
        ("rank-study", "utility vs performance rank study", "run_rank_study"),
        ("cost-sweep", "vary the out-of-strata cost c2", "run_cost_sweep"),
        ("size-sweep", "vary the initial sample size", "run_initial_size_sweep"),
    ]:
        add(name, text, study).set_defaults(func=cmd_study, runner=runner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out_dir)   # every command takes one
        return args.func(args)
    except ValueError as exc:   # every package error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
