"""Experiment orchestration: augmentation comparison, utility rank study,
cost-structure sweep, and initial-size sweep.

Every emitted table carries provenance columns (seed, config hash, dataset
content hash) and is written deterministically: rerunning a command with the
same config and seeds into a fresh directory reproduces the files byte for
byte. Aggregates report both the standard deviation and the standard error;
infeasible cells are reported as such, never silently truncated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .data import CostModel, Dataset, SampleState, load_dataset, set_cost
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
    optimized_augment,
    random_cluster_augment,
    random_point_sample,
)
from .optimizer import SolveOptions
from .synth import SynthConfig, generate
from .utility import UtilitySpec, utility_of_sample


class ConfigError(ValueError):
    pass


BASELINES = ("default", "greedy", "random")
GROUP_SOURCES = ("admin", "feature")
# every method name: the baselines, then each UtilityConfig.method_name()
METHODS = BASELINES + ("opt-size",) + tuple(f"rep-{g}" for g in GROUP_SOURCES)


@dataclass(frozen=True)
class UtilityConfig:
    """JSON-friendly description of an optimized-augmentation method."""

    kind: str = "group_rep"      # size | group_rep
    groups: str = "admin"        # admin | feature (group_rep only)
    lam: float = 0.5
    epsilon: float = 1e-6
    n_groups: int = 8
    group_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("size", "group_rep"):
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
    strata_seed: int = 0
    # costs
    c1: float = 25.0
    c2: float = 50.0
    budgets: tuple[float, ...] = (100.0,)
    c2_sweep: tuple[float, ...] = (25.0, 30.0, 40.0, 50.0)
    budget_scope: str = "augmentation"
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
    max_iters: int = 500
    gap_tol: float = 1e-6
    step_rule: str = "diminishing"

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

    def cost_model(self, c2: float | None = None) -> CostModel:
        return CostModel(
            c1=self.c1,
            c2=self.c2 if c2 is None else c2,
            budget=0.0,
            budget_scope=self.budget_scope,
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc["synth"] = asdict(cfg.synth) if cfg.synth is not None else None
    doc["utilities"] = [asdict(u) for u in cfg.utilities]
    return doc


def synth_from_dict(doc: dict) -> SynthConfig:
    """A SynthConfig from JSON-style fields, whose pairs may be lists."""
    try:
        doc = dict(doc)
        for key in ("strata_grid", "points_per_cluster"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return SynthConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad synth config: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    if doc.get("synth") is not None:
        doc["synth"] = synth_from_dict(doc["synth"])
    try:
        if "utilities" in doc:
            doc["utilities"] = tuple(
                UtilityConfig(**u) if isinstance(u, dict) else u for u in doc["utilities"]
            )
        for key in ("budgets", "c2_sweep", "rank_sizes", "initial_sizes", "seeds",
                    "baselines"):
            if key in doc and doc[key] is not None:
                doc[key] = tuple(doc[key])
        if doc.get("convenience_anchors") is not None:
            doc["convenience_anchors"] = tuple(tuple(a) for a in doc["convenience_anchors"])
        return ExperimentConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from None


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
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


def _prepare(
    cfg: ExperimentConfig, out_dir: str | Path
) -> tuple[Path, Dataset, tuple[str, str]]:
    """Create the output directory and load the population; returns it with
    the provenance hashes (config hash, dataset hash)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = load_population(cfg)
    return out, ds, (config_hash(cfg), dataset_content_hash(ds))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(
    path: Path, header: list[str], rows: list[list], hashes: tuple[str, str]
) -> None:
    """Write a table whose every row ends with the provenance hashes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header + ["config_hash", "dataset_hash"])
        for row in rows:
            w.writerow([_fmt(v) for v in row] + list(hashes))


def _write_meta(
    out: Path, cfg: ExperimentConfig, hashes: tuple[str, str], extra: dict | None = None
) -> None:
    doc = {"config": config_to_dict(cfg), "config_hash": hashes[0],
           "dataset_hash": hashes[1], **(extra or {})}
    (out / "meta.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def _require_nonempty(**axes) -> None:
    """Reject an empty axis of the study about to run, before any output."""
    for name, values in axes.items():
        if not values:
            raise ConfigError(f"{name} must be non-empty")


def _only(name: str, values: tuple):
    """The one value of an axis the study holds fixed; more is rejected before any output."""
    if len(values) > 1:
        raise ConfigError(f"{name} must hold exactly one value, got {len(values)}")
    return values[0]


def _apply_method(
    ds: Dataset,
    state: SampleState,
    cm: CostModel,
    budget: float,
    method: str,
    specs: dict[str, UtilitySpec],
    opts: SolveOptions,
    rng: np.random.Generator,
) -> SampleState:
    if method == "default":
        return default_cluster_augment(ds, state, cm, budget, rng)
    if method == "greedy":
        return greedy_size_augment(ds, state, cm, budget, rng)
    if method == "random":
        return random_cluster_augment(ds, state, cm, budget, rng)
    return optimized_augment(ds, state, cm, budget, specs[method], opts, rng)


def _aggregate(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    stderr = std / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return mean, std, float(stderr)


@dataclass(frozen=True)
class _Study:
    """An augmentation study: for every seed, a grid of (level, arm) cells.

    ``initial(seed, li, level)`` gives the sampler config and rng key of the
    initial sample a level augments; ``cell(seed, li, level, ai)`` gives the
    cost model, budget and rng key of one arm at that level.
    """

    level: str                      # record key of the swept level
    levels: tuple
    arm: str                        # record key of the arm
    arms: tuple[str, ...]
    utilities: dict[str, UtilityConfig]     # arm -> utility, optimized arms only
    initial: Callable[[int, int, Any], tuple[SamplerConfig, tuple[int, ...]]]
    cell: Callable[[int, int, Any, int], tuple[CostModel, float, tuple[int, ...]]]
    runs_csv: str
    run_cols: tuple[str, ...]       # per-run columns between delta_r2 and infeasible
    table_csv: str
    stat: str                       # the record key a table cell summarizes
    extra_means: tuple[str, ...] = ()


def _run_grid(cfg: ExperimentConfig, out_dir: str | Path, study: _Study) -> list[dict]:
    """Score every (seed, level, arm) cell and write the study's tables. Each
    distinct initial sample of a seed is drawn and scored once; each arm
    augments it under its own cost model, budget and rng stream."""
    out, ds, hashes = _prepare(cfg, out_dir)
    specs = {arm: build_utility_spec(ds, u) for arm, u in study.utilities.items()}
    opts = cfg.solve_options()
    records = []
    for seed in cfg.seeds:
        initials: dict[tuple[int, ...], tuple[SampleState, float]] = {}
        for li, level in enumerate(study.levels):
            scfg, key = study.initial(seed, li, level)
            if key not in initials:
                state0 = draw_initial_sample(ds, scfg, np.random.default_rng(key))
                initials[key] = state0, evaluate_sample(ds, state0, seed=seed)
            state0, r0 = initials[key]
            for ai, arm in enumerate(study.arms):
                cm, budget, key = study.cell(seed, li, level, ai)
                cm = cm.with_initial_strata(state0.initial_strata)
                rng = np.random.default_rng(key)
                state = _apply_method(ds, state0, cm, budget, arm, specs, opts, rng)
                r2 = evaluate_sample(ds, state, seed=seed)
                records.append(
                    {
                        study.level: level,
                        study.arm: arm,
                        "seed": seed,
                        "r2": r2,
                        "initial_r2": r0,
                        "delta_r2": r2 - r0,
                        "budget": budget,
                        "spent": state.spent,
                        "total_cost": set_cost(cm, ds, state0.initial)
                        + state.spent,
                        "clusters_added": len(state.augment),
                        "points_added": state.n_labeled - state0.n_labeled,
                        "infeasible": state.infeasible,
                    }
                )
    _write_grid(out, cfg, study, records, hashes)
    return records


def _write_grid(
    out: Path, cfg: ExperimentConfig, study: _Study, records: list[dict],
    hashes: tuple[str, str],
) -> None:
    """Write the per-run CSV, the level x arm table and meta.json. A cell with
    any infeasible run gets blank statistics and status ``infeasible``."""
    cols = [study.level, study.arm, "seed", "r2", "initial_r2", "delta_r2",
            *study.run_cols, "infeasible"]
    _write_csv(out / study.runs_csv, cols, [[r[c] for c in cols] for r in records], hashes)
    rows = []
    for level in study.levels:
        for arm in study.arms:
            cell = [r for r in records if r[study.level] == level and r[study.arm] == arm]
            if any(r["infeasible"] for r in cell):
                stats, status = [""] * (3 + len(study.extra_means)), "infeasible"
            else:
                stats = list(_aggregate([r[study.stat] for r in cell])) + [
                    _aggregate([r[k] for r in cell])[0] for k in study.extra_means
                ]
                status = "ok"
            rows.append([level, arm, *stats, len(cell), status])
    stat = study.stat
    _write_csv(
        out / study.table_csv,
        [study.level, study.arm, f"mean_{stat}", f"std_{stat}", f"stderr_{stat}",
         *(f"mean_{k}" for k in study.extra_means), "n_seeds", "status"],
        rows,
        hashes,
    )
    _write_meta(out, cfg, hashes)


def run_augmentation(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """One row per (budget, method, seed): augment the seed's initial sample
    and score the result; aggregate to a budget x method table."""
    _require_nonempty(budgets=cfg.budgets, methods=_methods(cfg))
    return _run_grid(cfg, out_dir, _Study(
        level="budget", levels=cfg.budgets, arm="method", arms=_methods(cfg),
        utilities={u.method_name(): u for u in cfg.utilities},
        initial=lambda seed, bi, budget: (cfg.sampler_config(), (seed, 0)),
        cell=lambda seed, bi, budget, mi: (cfg.cost_model(), budget, (seed, 1 + bi, mi)),
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
    sampling type plus overall."""
    _require_nonempty(rank_sizes=cfg.rank_sizes)
    if not cfg.convenience_anchors and cfg.n_anchors < 1:
        raise ConfigError(f"n_anchors must be >= 1, got {cfg.n_anchors}")
    if not (cfg.convenience_temperature > 0):
        raise ConfigError("convenience_temperature must be positive")
    out, ds, hashes = _prepare(cfg, out_dir)
    specs = {u.method_name(): build_utility_spec(ds, u) for u in cfg.utilities}
    size_spec = UtilitySpec(kind="size")
    anchors = cfg.convenience_anchors or _auto_anchors(ds, cfg.n_anchors)

    records = []
    for seed in cfg.seeds:
        for si, size in enumerate(cfg.rank_sizes):
            draws = {}
            try:
                draws["cluster"] = draw_initial_sample(
                    ds, cfg.sampler_config(initial_size=size),
                    np.random.default_rng([seed, 2, si]),
                )
            except SamplingError as exc:
                warnings.warn(f"cluster sample of size {size} skipped: {exc}")
            try:
                draws["convenience"] = convenience_sample(
                    ds,
                    ConvenienceConfig(
                        anchors=anchors,
                        temperature=cfg.convenience_temperature,
                        size=size,
                    ),
                    np.random.default_rng([seed, 3, si]),
                )
                draws["random"] = random_point_sample(
                    ds, size, np.random.default_rng([seed, 4, si])
                )
            except SamplingError as exc:
                warnings.warn(f"point sample of size {size} skipped: {exc}")
            for stype, state in sorted(draws.items()):
                try:
                    r2 = evaluate_sample(ds, state, seed=seed)
                except LearnerError as exc:
                    warnings.warn(f"degenerate sample ({stype}, {size}): {exc}")
                    continue
                rec = {
                    "sampling_type": stype,
                    "size": size,
                    "seed": seed,
                    "r2": r2,
                    "u_size": utility_of_sample(state, size_spec),
                }
                for name, spec in specs.items():
                    rec[f"u_{name}"] = utility_of_sample(state, spec)
                records.append(rec)

    u_cols = ["u_size"] + [f"u_{name}" for name in specs]
    cols = ["sampling_type", "size", "seed", "r2"] + u_cols
    _write_csv(out / "samples.csv", cols, [[r[c] for c in cols] for r in records], hashes)

    types = sorted({r["sampling_type"] for r in records})
    rho_rows = []
    for ucol in u_cols:
        for scope in types + ["overall"]:
            sub = [
                r for r in records if scope == "overall" or r["sampling_type"] == scope
            ]
            try:
                rho = spearman_rho(
                    np.array([r[ucol] for r in sub]), np.array([r["r2"] for r in sub])
                )
            except LearnerError:
                rho = "NA"
            rho_rows.append([scope, ucol, rho, len(sub)])
    _write_csv(out / "rho.csv", ["scope", "utility", "rho", "n_samples"], rho_rows, hashes)
    _write_meta(out, cfg, hashes, {"anchors": [list(a) for a in anchors]})
    return records


def run_cost_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Fix c1, vary c2; report the R^2 gain over the initial sample per
    method and cost level."""
    _require_nonempty(c2_sweep=cfg.c2_sweep, budgets=cfg.budgets, methods=_methods(cfg))
    for c2 in cfg.c2_sweep:
        if c2 < cfg.c1:
            raise ConfigError(f"swept c2 {c2} below c1 {cfg.c1}")
    budget = _only("budgets", cfg.budgets)
    return _run_grid(cfg, out_dir, _Study(
        level="c2", levels=cfg.c2_sweep, arm="method", arms=_methods(cfg),
        utilities={u.method_name(): u for u in cfg.utilities},
        initial=lambda seed, ci, c2: (cfg.sampler_config(), (seed, 0)),
        cell=lambda seed, ci, c2, mi: (cfg.cost_model(c2=c2), budget, (seed, 5, ci, mi)),
        runs_csv="sweep_runs.csv", run_cols=("spent",),
        table_csv="sweep.csv", stat="delta_r2",
    ))


def run_initial_size_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Optimized augmentation versus extending default cluster sampling, for a
    range of initial sample sizes at matched cost."""
    _require_nonempty(initial_sizes=cfg.initial_sizes, budgets=cfg.budgets, utilities=cfg.utilities)
    budget = _only("budgets", cfg.budgets)
    utility = _only("utilities", cfg.utilities)
    return _run_grid(cfg, out_dir, _Study(
        level="initial_size", levels=cfg.initial_sizes, arm="arm",
        arms=("optimized", "default"), utilities={"optimized": utility},
        initial=lambda seed, ii, size: (
            cfg.sampler_config(initial_size=size), (seed, 6, ii)),
        cell=lambda seed, ii, size, ai: (cfg.cost_model(), budget, (seed, 7, ii, ai)),
        runs_csv="size_runs.csv", run_cols=("budget", "spent", "total_cost"),
        table_csv="size_sweep.csv", stat="r2", extra_means=("total_cost",),
    ))
