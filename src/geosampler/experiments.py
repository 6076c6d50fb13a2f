"""Experiment orchestration: augmentation comparison, utility rank study,
cost-structure sweep, and initial-size sweep.

A study is configured by an :class:`ExperimentConfig`. Each default is written
once, in the dataclass that owns the setting (solver settings in
``SolveOptions``, ``lam``/``epsilon`` in ``UtilitySpec``), and the config
dataclasses refer to it. :func:`from_json` decodes a JSON document into any of
them, checking every value against its field's annotation.

Each study is a grid of (seed, level, arm) cells, run by one loop. Only once
every cell has run does it write one per-run CSV row per cell, the study's
summary tables and meta.json, so a study that fails leaves no output. The three
augmentation studies share one cell function; a rank-study cell draws and
scores one sample.

An augmentation study's per-run CSV says how each optimized arm's relaxed
solve ended: its iterations, duality gap and whether it converged (blank for
a baseline). Every emitted table carries provenance columns (seed, config
hash, dataset content hash) and is written deterministically: rerunning a
command with the same config and seeds into a fresh directory reproduces the
files byte for byte. Aggregates report both the standard deviation and the
standard error; infeasible cells are reported as such, never silently
truncated, and a rank sample that cannot be drawn or scored is a ``skipped``
row with the error as its reason, left out of the rank correlations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .data import CostModel, Dataset, SampleState, load_dataset, set_cost, write_csv, write_json
from .groups import GroupModel, admin_groups, feature_kmeans_groups
from .learner import LearnerError, evaluate_sample, spearman_rho
from .samplers import (
    ConvenienceConfig,
    SamplerConfig,
    SamplingError,
    convenience_sample,
    default_cluster_augment,
    draw_initial_sample,
    greedy_size_augment,
    random_cluster_augment,
    random_point_sample,
    solve_and_augment,
)
# unused here: perfbench/tracer.py's install() rebinds this name and fails
# if it is missing; the span it wraps no longer fires (see CHANGES.md)
from .samplers import optimized_augment  # noqa: F401
from .optimizer import SolveOptions, SolveResult
from .synth import SynthConfig, generate
from .utility import UTILITY_KINDS, UtilitySpec, utility_of_sample


class ConfigError(ValueError):
    pass


BASELINES = ("default", "greedy", "random")
GROUP_SOURCES = ("admin", "feature")
# every method name: the baselines, then each UtilityConfig.method_name()
METHODS = BASELINES + ("opt-size",) + tuple(f"rep-{g}" for g in GROUP_SOURCES)
# the SolveResult fields an augmentation study's per-run CSV reports
SOLVE_COLS = ("iterations", "gap", "converged")


@dataclass(frozen=True)
class UtilityConfig:
    """JSON-friendly description of an optimized-augmentation method."""

    kind: str = UtilitySpec.kind   # size | group_rep
    groups: str = "admin"          # admin | feature (group_rep only)
    lam: float = UtilitySpec.lam
    epsilon: float = UtilitySpec.epsilon
    n_groups: int = 8
    group_seed: int = 0

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ConfigError(f"unknown utility kind {self.kind!r}")
        if self.kind == "group_rep" and self.groups not in GROUP_SOURCES:
            raise ConfigError(f"unknown group source {self.groups!r}")

    def method_name(self) -> str:
        return "opt-size" if self.kind == "size" else f"rep-{self.groups}"


def parse_methods(names, **params) -> tuple[tuple[str, ...], tuple[UtilityConfig, ...]]:
    """Split method names into baselines and utility configs, keeping their
    order; the inverse of ``BASELINES`` and ``UtilityConfig.method_name``.
    ``params`` (lam, epsilon, n_groups, group_seed) configure every ``rep-*``
    utility; ``opt-size`` takes the defaults."""
    baselines, utilities = [], []
    for name in names:
        if name not in METHODS:
            raise ConfigError(f"unknown method {name!r}; known: {', '.join(METHODS)}")
        if name in BASELINES:
            baselines.append(name)
        elif name == "opt-size":
            utilities.append(UtilityConfig(kind="size"))
        else:
            utilities.append(UtilityConfig(groups=name.removeprefix("rep-"), **params))
    return tuple(baselines), tuple(utilities)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    synth: SynthConfig | None = None
    # initial sample
    n_strata: int = 2
    k: int = 10
    initial_size: int = 100
    strata_seed: int = SamplerConfig.strata_seed
    # costs
    c1: float = 25.0
    c2: float = 50.0
    budgets: tuple[float, ...] = (100.0,)
    c2_sweep: tuple[float, ...] = (25.0, 30.0, 40.0, 50.0)
    # methods
    baselines: tuple[str, ...] = BASELINES
    utilities: tuple[UtilityConfig, ...] = (UtilityConfig(),)
    # rank study
    rank_sizes: tuple[int, ...] = tuple(range(100, 1001, 100))
    convenience_temperature: float = 0.025
    convenience_anchors: tuple[tuple[float, float], ...] | None = None
    n_anchors: int = 3
    # initial-size sweep
    initial_sizes: tuple[int, ...] = (50, 100, 150)
    # seeds and solver
    seeds: tuple[int, ...] = (0,)
    max_iters: int = SolveOptions.max_iters
    gap_tol: float = SolveOptions.gap_tol
    step_rule: str = SolveOptions.step_rule

    def __post_init__(self):
        if (self.dataset is None) == (self.synth is None):
            raise ConfigError("exactly one of dataset path or synth config is required")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if not all(b >= 0 for b in self.budgets):
            raise ConfigError("budgets must be non-negative")
        for m in self.baselines:
            if m not in BASELINES:
                raise ConfigError(f"unknown baseline {m!r}")
        self.solve_options()   # rejects bad solver settings before any work

    def solve_options(self) -> SolveOptions:
        return SolveOptions(
            max_iters=self.max_iters, gap_tol=self.gap_tol, step_rule=self.step_rule
        )

    def sampler_config(self, initial_size: int | None = None) -> SamplerConfig:
        return SamplerConfig(
            n_strata=self.n_strata,
            k=self.k,
            initial_size=initial_size if initial_size is not None else self.initial_size,
            strata_seed=self.strata_seed,
        )

    def cost_model(self, budget: float, c2: float | None = None) -> CostModel:
        return CostModel(c1=self.c1, c2=self.c2 if c2 is None else c2, budget=budget)


_MISMATCH = object()
# the resolved field annotations of a config dataclass, once per class (read only)
field_types = functools.cache(typing.get_type_hints)


def _decode(value, tp):
    """``value`` as a field annotated ``tp`` holds it, or ``_MISMATCH``: an int
    field takes an int, a float field an int or a float, neither a bool; a
    tuple field takes a list or tuple of fitting items, kept as a tuple; a
    dataclass field takes an instance, or a dict that :func:`from_json` decodes."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        decoded = (_decode(value, arg) for arg in args)
        return next((v for v in decoded if v is not _MISMATCH), _MISMATCH)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISMATCH
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        items = tuple(map(_decode, value, args))
        ok = len(value) == len(args) and all(v is not _MISMATCH for v in items)
        return items if ok else _MISMATCH
    if isinstance(value, dict) and is_dataclass(tp):
        return from_json(tp, value)
    ok = isinstance(value, (int, float) if tp is float else tp)
    return value if ok and (tp is bool or not isinstance(value, bool)) else _MISMATCH


def from_json(cls, doc: dict):
    """A ``cls`` config dataclass from a JSON-style dict of some of its fields,
    the rest taking their defaults; a key ``cls`` lacks or a value that does not
    fit its field's annotation (see :func:`_decode`) is a config error naming
    the key."""
    hints = field_types(cls)
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in annotations:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        kwargs[key] = _decode(value, hints[key])
        if kwargs[key] is _MISMATCH:
            raise ConfigError(f"config key {key!r} must be {annotations[key]}, got {value!r}")
    return cls(**kwargs)


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def dataset_content_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update("\x00".join(ds.point_ids).encode("utf-8"))
    cluster_ids = np.array(ds.cluster_ids, dtype=object)
    h.update("\x00".join(cluster_ids[ds.point_cluster]).encode("utf-8"))
    for cid, s in zip(ds.cluster_ids, ds.cluster_stratum):
        h.update(f"{cid}|{ds.stratum_ids[s]}".encode("utf-8"))
    h.update(ds.coords.tobytes())
    h.update(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    h.update(ds.train_mask.tobytes())
    h.update(ds.test_mask.tobytes())
    return h.hexdigest()[:16]


def load_population(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset is not None:
        return load_dataset(cfg.dataset)
    ds, _ = generate(cfg.synth)
    return ds


def _fmt(x) -> str:
    return str(int(x)) if isinstance(x, bool) else str(x)


def build_group_model(ds: Dataset, ucfg: UtilityConfig) -> GroupModel | None:
    if ucfg.kind == "size":
        return None
    if ucfg.groups == "admin":
        return admin_groups(ds)
    return feature_kmeans_groups(ds, ucfg.n_groups, seed=ucfg.group_seed)


def build_utility_spec(ds: Dataset, ucfg: UtilityConfig) -> UtilitySpec:
    return UtilitySpec(
        kind=ucfg.kind,
        lam=ucfg.lam,
        epsilon=ucfg.epsilon,
        groups=build_group_model(ds, ucfg),
    )


def _methods(cfg: ExperimentConfig) -> tuple[str, ...]:
    return tuple(cfg.baselines) + tuple(u.method_name() for u in cfg.utilities)


def _require_distinct(name: str, values: tuple) -> None:
    """Reject an axis that repeats a value (its runs would pool into one
    summary row, or one column) before any output."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} repeats the value {value!r}")


def _require_axes(**axes) -> None:
    """Reject an empty or repeating axis of the study about to run before any output."""
    for name, values in axes.items():
        if not values:
            raise ConfigError(f"{name} must be non-empty")
        _require_distinct(name, values)


def _only(name: str, values: tuple):
    """The one value of an axis the study holds fixed; more is rejected before any output."""
    if len(values) > 1:
        raise ConfigError(f"{name} must hold exactly one value, got {len(values)}")
    return values[0]


def _apply_method(
    ds: Dataset, state: SampleState, cm: CostModel, method: str,
    specs: dict[str, UtilitySpec], opts: SolveOptions, rng: np.random.Generator,
) -> tuple[SampleState, SolveResult | None]:
    """The augmented state, and the relaxed solve behind it (None for a baseline)."""
    if method == "default":
        return default_cluster_augment(ds, state, cm, rng), None
    if method == "greedy":
        return greedy_size_augment(ds, state, cm, rng), None
    if method == "random":
        return random_cluster_augment(ds, state, cm, rng), None
    augmented, result, _ = solve_and_augment(ds, state, cm, specs[method], rng, opts)
    return augmented, result


def _aggregate(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    stderr = std / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return mean, std, float(stderr)


@dataclass(frozen=True)
class _Study:
    """An experiment study: for every seed, a grid of (level, arm) cells.

    ``cell(seed, li, level, ai, arm)`` scores one cell and returns its record
    columns besides the level, arm and seed; ``run_cols`` names the columns
    of the per-run CSV, in order. ``tables(records)`` gives the summary
    tables as (file name, header, rows); ``meta`` adds to meta.json.
    """

    level: str                      # record key of the swept level
    levels: tuple
    arm: str                        # record key of the arm
    arms: tuple[str, ...]
    cell: Callable[[int, int, Any, int, str], dict]
    runs_csv: str
    run_cols: tuple[str, ...]
    tables: Callable[[list[dict]], list[tuple[str, list[str], list[list]]]]
    meta: dict = field(default_factory=dict)


def _run_grid(
    cfg: ExperimentConfig, ds: Dataset, out_dir: str | Path, study: _Study
) -> list[dict]:
    """Score every cell, seed by seed and level by level; only then write the
    per-run CSV and the summary tables, each row ending with the provenance
    hashes, and meta.json."""
    records = [
        {study.level: level, study.arm: arm, "seed": seed,
         **study.cell(seed, li, level, ai, arm)}
        for seed in cfg.seeds
        for li, level in enumerate(study.levels)
        for ai, arm in enumerate(study.arms)
    ]
    runs = [[r[c] for c in study.run_cols] for r in records]
    tables = [(study.runs_csv, list(study.run_cols), runs), *study.tables(records)]
    hashes = [config_hash(cfg), dataset_content_hash(ds)]
    out = Path(out_dir)
    for name, header, rows in tables:
        write_csv(out / name, header + ["config_hash", "dataset_hash"],
                  ([_fmt(v) for v in row] + hashes for row in rows))
    write_json(out / "meta.json", {"config": asdict(cfg), "config_hash": hashes[0],
                                   "dataset_hash": hashes[1], **study.meta})
    return records


def _augmentation_study(
    cfg: ExperimentConfig, ds: Dataset, *, level: str, levels: tuple, arm: str,
    arms: tuple[str, ...], utilities: dict[str, UtilityConfig],
    initial: Callable[[int, int, Any], tuple[SamplerConfig, tuple[int, ...]]],
    cost: Callable[[int, int, Any, int], tuple[CostModel, tuple[int, ...]]],
    runs_csv: str, run_cols: tuple[str, ...], table_csv: str, stat: str,
    extra_means: tuple[str, ...] = (),
) -> _Study:
    """A study whose arms augment an initial sample under their own cost model
    and rng stream.

    ``initial(seed, li, level)`` gives the sampler config and rng key of the
    initial sample a level augments; each distinct one is drawn and scored
    once. ``cost(seed, li, level, ai)`` gives an arm's cost model (with its
    budget) and rng key. ``run_cols`` go between delta_r2 and infeasible in
    the per-run CSV; after infeasible come the ``SOLVE_COLS`` of an optimized
    arm's relaxed solve, blank for a baseline. The summary is a level x arm
    table of ``stat``: a cell with any infeasible run gets blank statistics
    and status ``infeasible``.
    """
    specs = {a: build_utility_spec(ds, u) for a, u in utilities.items()}
    opts = cfg.solve_options()
    initials: dict[tuple[int, ...], tuple[SampleState, float]] = {}

    def cell(seed, li, lvl, ai, method):
        scfg, key = initial(seed, li, lvl)
        if key not in initials:
            state0 = draw_initial_sample(ds, scfg, np.random.default_rng(key))
            initials[key] = state0, evaluate_sample(ds, state0, seed=seed)
        state0, r0 = initials[key]
        cm, key = cost(seed, li, lvl, ai)
        cm = cm.with_initial_strata(state0.initial_strata)
        state, solve = _apply_method(
            ds, state0, cm, method, specs, opts, np.random.default_rng(key))
        r2 = evaluate_sample(ds, state, seed=seed)
        return {
            "r2": r2, "initial_r2": r0, "delta_r2": r2 - r0, "budget": cm.budget,
            "spent": state.spent, "total_cost": set_cost(cm, ds, state0.initial) + state.spent,
            "clusters_added": len(state.augment),
            "points_added": state.n_labeled - state0.n_labeled, "infeasible": state.infeasible,
            **(dict.fromkeys(SOLVE_COLS, "") if solve is None else
               {c: getattr(solve, c) for c in SOLVE_COLS}),
        }

    def table(records):
        rows = []
        for lvl in levels:
            for a in arms:
                runs = [r for r in records if r[level] == lvl and r[arm] == a]
                if any(r["infeasible"] for r in runs):
                    stats, status = [""] * (3 + len(extra_means)), "infeasible"
                else:
                    stats = list(_aggregate([r[stat] for r in runs])) + [
                        _aggregate([r[k] for r in runs])[0] for k in extra_means
                    ]
                    status = "ok"
                rows.append([lvl, a, *stats, len(runs), status])
        header = [level, arm, f"mean_{stat}", f"std_{stat}", f"stderr_{stat}",
                  *(f"mean_{k}" for k in extra_means), "n_seeds", "status"]
        return [(table_csv, header, rows)]

    return _Study(
        level=level, levels=levels, arm=arm, arms=arms, cell=cell, runs_csv=runs_csv,
        run_cols=(level, arm, "seed", "r2", "initial_r2", "delta_r2", *run_cols, "infeasible",
                  *SOLVE_COLS),
        tables=table,
    )


def _require_samplers(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> None:
    """Build the sampler config of every size before any output, so that a
    size, n_strata or k the cluster sampler refuses is a config error."""
    for size in sizes:
        cfg.sampler_config(initial_size=size)


def run_augmentation(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """One row per (budget, method, seed): augment the seed's initial sample
    and score the result; aggregate to a budget x method table."""
    _require_axes(seeds=cfg.seeds, budgets=cfg.budgets, methods=_methods(cfg))
    _require_samplers(cfg, (cfg.initial_size,))
    ds = load_population(cfg)
    return _run_grid(cfg, ds, out_dir, _augmentation_study(
        cfg, ds, level="budget", levels=cfg.budgets, arm="method", arms=_methods(cfg),
        utilities={u.method_name(): u for u in cfg.utilities},
        initial=lambda seed, bi, budget: (cfg.sampler_config(), (seed, 0)),
        cost=lambda seed, bi, budget, mi: (cfg.cost_model(budget), (seed, 1 + bi, mi)),
        runs_csv="runs.csv", run_cols=("spent", "clusters_added", "points_added"),
        table_csv="table.csv", stat="r2",
    ))


def _auto_anchors(ds: Dataset, n_anchors: int) -> tuple[tuple[float, float], ...]:
    """Centers of the largest source clusters (deterministic stand-ins for
    urban areas)."""
    source = np.flatnonzero(ds.cluster_is_source)
    chosen = source[np.lexsort((source, -ds.cluster_sizes[source]))][:n_anchors]
    return tuple(
        (float(ds.coords[rows, 0].mean()), float(ds.coords[rows, 1].mean()))
        for rows in map(ds.rows_of_cluster, chosen)
    )


def run_rank_study(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Samples of growing size under cluster / convenience / random sampling,
    scored by the prediction head and by each utility; Spearman rho per
    sampling type plus overall, over the scored samples. A sample that cannot
    be drawn or scored is a ``skipped`` row whose reason is the error."""
    _require_axes(seeds=cfg.seeds, rank_sizes=cfg.rank_sizes)
    # u_size is always scored, so the utilities may be empty but not repeat
    _require_distinct("utilities", tuple(u.method_name() for u in cfg.utilities))
    _require_samplers(cfg, cfg.rank_sizes)
    if not cfg.convenience_anchors and cfg.n_anchors < 1:
        raise ConfigError(f"n_anchors must be >= 1, got {cfg.n_anchors}")
    if not (cfg.convenience_temperature > 0):
        raise ConfigError("convenience_temperature must be positive")
    ds = load_population(cfg)
    specs = {"u_size": UtilitySpec(kind="size")}
    specs.update((f"u_{u.method_name()}", build_utility_spec(ds, u)) for u in cfg.utilities)
    anchors = cfg.convenience_anchors or _auto_anchors(ds, cfg.n_anchors)
    # the arm order fixes the row order and each arm's rng stream [seed, 2 + ti, si]
    draws = {
        "cluster": lambda size, rng: draw_initial_sample(
            ds, cfg.sampler_config(initial_size=size), rng),
        "convenience": lambda size, rng: convenience_sample(
            ds, ConvenienceConfig(anchors=anchors, temperature=cfg.convenience_temperature,
                                  size=size), rng),
        "random": lambda size, rng: random_point_sample(ds, size, rng),
    }

    def cell(seed, si, size, ti, stype):
        try:
            state = draws[stype](size, np.random.default_rng([seed, 2 + ti, si]))
            r2 = evaluate_sample(ds, state, seed=seed)
        except (SamplingError, LearnerError) as exc:
            return {"r2": "", **dict.fromkeys(specs, ""), "status": "skipped",
                    "reason": str(exc)}
        return {"r2": r2, **{c: utility_of_sample(state, spec) for c, spec in specs.items()},
                "status": "ok", "reason": ""}

    def rho_table(records):
        scored = [r for r in records if r["status"] == "ok"]
        rows = []
        for ucol in specs:
            for scope in sorted({r["sampling_type"] for r in scored}) + ["overall"]:
                sub = [r for r in scored if scope in ("overall", r["sampling_type"])]
                try:
                    rho = spearman_rho(
                        np.array([r[ucol] for r in sub]), np.array([r["r2"] for r in sub])
                    )
                except LearnerError:
                    rho = "NA"
                rows.append([scope, ucol, rho, len(sub)])
        return [("rho.csv", ["scope", "utility", "rho", "n_samples"], rows)]

    return _run_grid(cfg, ds, out_dir, _Study(
        level="size", levels=cfg.rank_sizes, arm="sampling_type", arms=tuple(draws),
        cell=cell, runs_csv="samples.csv",
        run_cols=("sampling_type", "size", "seed", "r2", *specs, "status", "reason"),
        tables=rho_table, meta={"anchors": [list(a) for a in anchors]},
    ))


def run_cost_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Fix c1, vary c2; report the R^2 gain over the initial sample per
    method and cost level."""
    _require_axes(seeds=cfg.seeds, c2_sweep=cfg.c2_sweep, budgets=cfg.budgets,
                  methods=_methods(cfg))
    _require_samplers(cfg, (cfg.initial_size,))
    for c2 in cfg.c2_sweep:
        if c2 < cfg.c1:
            raise ConfigError(f"swept c2 {c2} below c1 {cfg.c1}")
    budget = _only("budgets", cfg.budgets)
    ds = load_population(cfg)
    return _run_grid(cfg, ds, out_dir, _augmentation_study(
        cfg, ds, level="c2", levels=cfg.c2_sweep, arm="method", arms=_methods(cfg),
        utilities={u.method_name(): u for u in cfg.utilities},
        initial=lambda seed, ci, c2: (cfg.sampler_config(), (seed, 0)),
        cost=lambda seed, ci, c2, mi: (cfg.cost_model(budget, c2), (seed, 5, ci, mi)),
        runs_csv="sweep_runs.csv", run_cols=("spent",),
        table_csv="sweep.csv", stat="delta_r2",
    ))


def run_initial_size_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Optimized augmentation versus extending default cluster sampling, for a
    range of initial sample sizes at matched cost."""
    _require_axes(seeds=cfg.seeds, initial_sizes=cfg.initial_sizes, budgets=cfg.budgets,
                  utilities=tuple(u.method_name() for u in cfg.utilities))
    _require_samplers(cfg, cfg.initial_sizes)
    budget = _only("budgets", cfg.budgets)
    utility = _only("utilities", cfg.utilities)
    ds = load_population(cfg)
    return _run_grid(cfg, ds, out_dir, _augmentation_study(
        cfg, ds, level="initial_size", levels=cfg.initial_sizes, arm="arm",
        arms=("optimized", "default"), utilities={"optimized": utility},
        initial=lambda seed, ii, size: (
            cfg.sampler_config(initial_size=size), (seed, 6, ii)),
        cost=lambda seed, ii, size, ai: (cfg.cost_model(budget), (seed, 7, ii, ai)),
        runs_csv="size_runs.csv", run_cols=("budget", "spent", "total_cost"),
        table_csv="size_sweep.csv", stat="r2", extra_means=("total_cost",),
    ))
