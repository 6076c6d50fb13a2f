"""Synthetic spatial datasets with controllable heterogeneity.

The map is a grid of rectangular strata; each stratum holds clusters of
points scattered around cluster centers. Features are a smooth function of
location plus isotropic noise, and labels follow a per-stratum linear model
y = w_r . x + noise. The dispersion of the w_r across strata is the single
knob that decides whether spatial representativeness matters: at zero
dispersion one global model fits everywhere, at high dispersion a model
trained in few strata transfers poorly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, build_dataset, write_json

# rows of feature noise drawn at once
_NOISE_BLOCK_ROWS = 8192


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    strata_grid: tuple[int, int] = (3, 2)
    clusters_per_stratum: int = 8
    points_per_cluster: tuple[int, int] = (10, 30)   # inclusive range
    feature_dim: int = 5
    coef_dispersion: float = 0.0     # between-stratum spread of the w_r
    noise: float = 0.1               # label noise sigma
    feature_noise: float = 0.5
    feature_scale: float = 1.0
    target_snr: float | None = None  # overrides `noise` when set
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if min(self.strata_grid) < 1 or self.clusters_per_stratum < 1:
            raise SynthError("grid dimensions and clusters per stratum must be >= 1")
        lo, hi = self.points_per_cluster
        if lo < 1 or hi < lo:
            raise SynthError("points_per_cluster must be a range with 1 <= lo <= hi")
        if self.feature_dim < 1:
            raise SynthError("feature_dim must be >= 1")
        for name in ("coef_dispersion", "noise", "feature_noise", "feature_scale", "target_snr"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SynthError(f"{name} must be finite, got {value!r}")
        if self.noise < 0 or self.feature_noise < 0:
            raise SynthError("noise levels must be non-negative")
        if self.target_snr is not None and self.target_snr <= 0:
            raise SynthError("target_snr must be positive")


@dataclass(frozen=True)
class GroundTruth:
    coefficients: dict[str, np.ndarray]   # stratum id -> w_r
    noise_sigma: float
    signal_variance: float
    snr: float | None


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a dataset bundle-compatible population with known truth."""
    rng = np.random.default_rng(cfg.seed)
    rx, ry = cfg.strata_grid
    n_strata = rx * ry
    d = cfg.feature_dim

    freq = rng.normal(0.0, 1.5, size=(d, 2))
    phase = rng.uniform(0.0, 2 * np.pi, size=d)

    w_base = rng.normal(0.0, 1.0, size=d)
    w_by_stratum: dict[str, np.ndarray] = {}

    # clusters are numbered stratum by stratum, points cluster by cluster
    sid_width = len(str(n_strata - 1)) if n_strata > 1 else 1
    cluster_coords = []
    for gx in range(rx):
        for gy in range(ry):
            sid = f"s{len(w_by_stratum):0{sid_width}d}"
            w_by_stratum[sid] = w_base + cfg.coef_dispersion * rng.normal(size=d)
            for _ in range(cfg.clusters_per_stratum):
                center = np.array([gx, gy]) + rng.uniform(0.1, 0.9, size=2)
                n_pts = int(
                    rng.integers(cfg.points_per_cluster[0], cfg.points_per_cluster[1] + 1)
                )
                cluster_coords.append(center + rng.uniform(-0.08, 0.08, size=(n_pts, 2)))

    coords = np.concatenate(cluster_coords)
    sizes = [len(c) for c in cluster_coords]
    n, m = len(coords), len(cluster_coords)
    pid_width = len(str(n - 1))
    cid_width = len(str(m - 1))
    point_ids = list(map(f"p%0{pid_width}d".__mod__, range(n)))
    cluster_ids = list(map(f"c%0{cid_width}d".__mod__, range(m)))
    stratum_ids = list(w_by_stratum)
    cluster_stratum = {
        cid: stratum_ids[j // cfg.clusters_per_stratum] for j, cid in enumerate(cluster_ids)
    }
    point_cluster = [cid for cid, size in zip(cluster_ids, sizes) for _ in range(size)]
    point_stratum = np.repeat(np.arange(m) // cfg.clusters_per_stratum, sizes)

    # feature field: a smooth sinusoidal mean per feature plus noise, built in
    # place; the noise is drawn a block of rows at a time (the same normal
    # stream as one (n, d) draw), so no second (n, d) matrix is held
    features = coords @ freq.T
    features += phase
    np.sin(features, out=features)
    features *= cfg.feature_scale
    w = np.array(list(w_by_stratum.values()))
    signal = np.empty(n)
    # finite settings can still overflow (a feature_scale of 1e200 squares
    # past the largest float in the variance); that is checked below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _NOISE_BLOCK_ROWS):
            block = features[lo:lo + _NOISE_BLOCK_ROWS]
            noise = rng.normal(size=block.shape)
            noise *= cfg.feature_noise
            block += noise
            # a stack of 1 x d by d x 1 products: numpy computes each as the
            # vector dot w[s] @ row, so the signal is that dot bit for bit
            w_rows = w[point_stratum[lo:lo + len(block)], :, None]
            signal[lo:lo + len(block)] = np.matmul(block[:, None, :], w_rows)[:, 0, 0]

        signal_var = float(np.var(signal))
        if not math.isfinite(signal_var):
            raise SynthError(f"the signal variance overflows ({signal_var}); "
                             "lower feature_scale or feature_noise")
        if cfg.target_snr is not None:
            sigma = float(np.sqrt(signal_var / cfg.target_snr)) if signal_var > 0 else 0.0
        else:
            sigma = cfg.noise
        if not math.isfinite(sigma * sigma):   # the snr below divides by it
            raise SynthError(f"the label noise variance overflows (sigma {sigma}); "
                             "lower noise or feature_scale")
        labels = signal + sigma * rng.normal(size=n)
    if not np.isfinite(labels).all():   # a backstop: both variances above are finite
        raise SynthError("a label overflows; lower feature_scale, feature_noise or noise")

    split_seed = int(rng.integers(2**31 - 1))
    ds = build_dataset(
        point_ids=point_ids,
        coords=coords,
        features=features,
        labels=labels,
        point_cluster=point_cluster,
        cluster_stratum=cluster_stratum,
        split_seed=split_seed,
        test_fraction=cfg.test_fraction,
    )
    if not ds.train_mask.any():
        raise SynthError(f"test_fraction {cfg.test_fraction} puts every labeled point "
                         "on the test side, leaving no source cluster to sample")
    truth = GroundTruth(
        coefficients=w_by_stratum,
        noise_sigma=sigma,
        signal_variance=signal_var,
        snr=(signal_var / sigma**2) if sigma > 0 else None,
    )
    return ds, truth


def save_truth(truth: GroundTruth, bundle: str | Path) -> None:
    doc = {
        "coefficients": {sid: [float(v) for v in w] for sid, w in truth.coefficients.items()},
        "noise_sigma": truth.noise_sigma,
        "signal_variance": truth.signal_variance,
        "snr": truth.snr,
    }
    write_json(Path(bundle) / "truth.json", doc)
