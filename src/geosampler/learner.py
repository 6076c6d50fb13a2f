"""Prediction head and evaluation metrics.

The prediction head is a closed-form ridge regression with an unpenalized
intercept (features and labels are centered per training fold), tuned by
5-fold cross-validation over 10 log-spaced regularization strengths from
1e-5 to 1e5. Each CV fold forms its centered Gram matrix ``Xc'Xc`` and
``Xc'yc`` once and solves the whole alpha grid in one batched
``np.linalg.solve`` (ESL §3.4.1).

Also provides k-means grouping and rank-correlation diagnostics. Lloyd's
algorithm assigns points from the expanded distances ``|x|^2 - 2XC' + |c|^2``
(one GEMM per block of rows, ``|x|^2`` once per run); rows whose two nearest
centroids are within the expansion's rounding bound are re-decided from the
directly summed ``sum((x - c)^2)``, and the inertia that picks the winning
restart is that exact sum. A centroid is the masked mean of its rows.
Assignments, centroids and inertia equal those of the (n, G, d)
difference-tensor form bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, SampleState, write_json


class LearnerError(ValueError):
    pass


DEFAULT_ALPHAS = tuple(np.logspace(-5, 5, 10))   # ascending
CV_FOLDS = 5
KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float
    cv_table: tuple[tuple[float, float], ...]   # (alpha, mean validation MSE)

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise LearnerError("ridge weights must be finite")


def _centered_gram(
    X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.floating, np.ndarray, np.ndarray]:
    """(x_mean, y_mean, Xc' Xc, Xc' yc) for the rows centered on their means."""
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    return x_mean, y_mean, Xc.T @ Xc, Xc.T @ yc


def ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form ridge with unpenalized intercept via centering.

    Returns (weights, intercept) solving the regularized normal equations on
    centered data: (Xc' Xc + alpha I) w = Xc' yc.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean, y_mean, gram, rhs = _centered_gram(X, y)
    w = np.linalg.solve(gram + alpha * np.eye(X.shape[1]), rhs)
    return w, float(y_mean - x_mean @ w)


def ridge_fit_cv(X: np.ndarray, y: np.ndarray, seed: int = 0) -> RidgeModel:
    """Fit ridge regression, choosing alpha from DEFAULT_ALPHAS by CV_FOLDS-fold CV.

    Alpha minimizing the mean validation squared error wins; ties go to the
    smaller alpha. The final model is refit on all rows.

    Each fold centers its training rows and forms ``Xc' Xc`` and ``Xc' yc``
    once; one batched ``np.linalg.solve`` over the stacked ``Xc' Xc + alpha I``
    of the whole grid then gives every alpha's weights. That is the LAPACK
    solve `ridge_solve` makes, on the same matrices, so the CV table equals a
    per-alpha `ridge_solve` replay bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n < CV_FOLDS:
        raise LearnerError(f"need at least {CV_FOLDS} rows for {CV_FOLDS}-fold CV, got {n}")
    if float(np.var(y)) == 0.0:
        raise LearnerError("labels have zero variance")
    grid = np.asarray(DEFAULT_ALPHAS)
    penalties = grid[:, None, None] * np.eye(d)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_slices = np.array_split(perm, CV_FOLDS)

    mean_mse = np.zeros(len(grid))
    for fold_rows in fold_slices:
        val = np.zeros(n, dtype=bool)
        val[fold_rows] = True
        x_mean, y_mean, gram, rhs = _centered_gram(X[~val], y[~val])
        X_va, y_va = X[val], y[val]
        # b stacked to (alphas, d, 1): numpy 1.x and 2.x both read that as one column per matrix
        rhs_stack = np.broadcast_to(rhs[:, None], (len(grid), d, 1))
        weights = np.linalg.solve(gram + penalties, rhs_stack)[:, :, 0]
        for a_i, w in enumerate(weights):
            pred = X_va @ w + float(y_mean - x_mean @ w)
            mean_mse[a_i] += float(np.mean((pred - y_va) ** 2)) / CV_FOLDS

    best = int(np.argmin(mean_mse))   # grid ascending -> ties resolve to smaller alpha
    alpha = float(grid[best])
    w, b = ridge_solve(X, y, alpha)
    return RidgeModel(
        weights=w,
        intercept=b,
        alpha=alpha,
        cv_table=tuple((float(a), float(m)) for a, m in zip(grid, mean_mse)),
    )


def predict(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise LearnerError(
            f"feature dimension mismatch: model has {len(model.weights)}, "
            f"input has {X.shape[-1] if X.ndim == 2 else 'non-matrix'}"
        )
    return X @ model.weights + model.intercept


def r2_score(y: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape or y.size < 2:
        raise LearnerError("r2_score needs two equal-length vectors of size >= 2")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise LearnerError("r2_score undefined for zero-variance targets")
    ss_res = float(np.sum((y - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


def average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties replaced by their average rank."""
    a = np.asarray(a, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a), dtype=np.float64)
    ranks[order] = np.arange(1, len(a) + 1, dtype=np.float64)
    # average ranks within tied runs
    sorted_vals = a[order]
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average-ranked values."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise LearnerError("spearman_rho needs two equal-length vectors of size >= 2")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise LearnerError("spearman_rho undefined for constant input")
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


# -- k-means ---------------------------------------------------------------


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    inertia_trace: tuple[float, ...]   # winning restart's per-iteration inertia, expanded distances


def _kmeanspp_init(X: np.ndarray, G: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((G, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    dist_sq = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, G):
        total = dist_sq.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
            continue
        probs = dist_sq / total
        centroids[j] = X[rng.choice(n, p=probs)]
        dist_sq = np.minimum(dist_sq, np.sum((X - centroids[j]) ** 2, axis=1))
    return centroids


# Rows per block of the distance passes: a block's temporaries stay in cache.
_BLOCK_ROWS = 2048


def _nearest(
    X: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every row, and the expanded squared distance to it.

    The distances are ``|x|^2 - 2 x.c + |c|^2``, one GEMM per block of rows,
    with ``x_sq`` holding ``|x|^2``. This expansion and the directly summed
    ``sum((x - c)^2)`` each stay within their forward error bound of the true
    distance, together under ``(2d + 5) eps (|x|^2 + max |c|^2)``. So only a
    row whose runner-up lies within twice that of its minimum can have another
    argmin than the direct sums; ``tol`` = ``8 (d + 4) eps (...)`` covers it
    with room to spare. Those rows (and any with a NaN) are decided again from
    the direct sums over all centroids, so the assignment equals the argmin of
    the direct sums bit for bit, exact ties included (the lower index wins).
    The returned distances, clipped at 0, are the expanded ones.
    """
    n, d = X.shape
    G = centroids.shape[0]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    tol = 8.0 * (d + 4) * np.finfo(np.float64).eps * (x_sq + c_sq.max())
    index = np.arange(G)
    assignment = np.empty(n, dtype=np.int64)
    dist_sq = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        # (G, rows) layout: the reductions over centroids run along contiguous rows
        approx = centroids @ X[rows].T
        approx *= -2.0
        approx += c_sq[:, None]
        approx += x_sq[rows]
        low = approx.min(axis=0)
        hits = approx <= low + tol[rows]
        best = index @ hits   # the one hit's index wherever there is exactly one
        close = np.flatnonzero(hits.sum(axis=0) != 1)
        if close.size:
            tied = X[start + close]
            direct = ((tied[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            best[close] = direct.argmin(axis=1)
        assignment[rows] = best
        dist_sq[rows] = np.maximum(low, 0.0)
    return assignment, dist_sq


def _assigned_dist_sq(X: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Directly summed ``sum((x - c)^2)`` of every row to its assigned centroid;
    the same per-row reduction as the (n, G, d) difference tensor."""
    dist_sq = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        diff = X[rows] - centroids[assignment[rows]]
        diff *= diff
        dist_sq[rows] = diff.sum(axis=1)
    return dist_sq


def _lloyd(
    X: np.ndarray, centroids: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Lloyd iterations from ``centroids`` (updated in place).

    Each pass assigns rows with `_nearest`; ``|x|^2`` is computed once per
    call. A centroid is the mean of its rows, ``X[assignment == j].mean(axis=0)``,
    set in every pass. An empty cluster takes over the row farthest from its
    centroid, visiting the clusters in index order. The returned inertia,
    which picks the winning restart, sums the exact per-row distances
    `_assigned_dist_sq`; the per-iteration trace sums the expanded ones, so
    it can differ from the exact sums in the last bits.
    """
    n, G = X.shape[0], centroids.shape[0]
    x_sq = np.einsum("ij,ij->i", X, X)
    assignment = np.full(n, -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(max_iters):
        new_assignment, dist_sq = _nearest(X, x_sq, centroids)
        trace.append(float(dist_sq.sum()))
        if np.array_equal(new_assignment, assignment):
            break   # centroids unchanged since this pass: it is the final assignment
        assignment = new_assignment
        previous = centroids.copy()
        for j in range(G):
            mask = assignment == j
            if mask.any():
                centroids[j] = X[mask].mean(axis=0)
            else:
                # empty cluster: take over the point farthest from its centroid
                far = int(np.argmax(_assigned_dist_sq(X, previous, assignment)))
                centroids[j] = X[far]
                assignment[far] = j
    else:
        # final assignment pass so every point sits with its nearest centroid
        assignment, _ = _nearest(X, x_sq, centroids)
    inertia = float(_assigned_dist_sq(X, centroids, assignment).sum())
    return centroids, assignment, inertia, trace


def kmeans_groups(features: np.ndarray, G: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, best inertia of KMEANS_RESTARTS runs."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise LearnerError(f"features must be a 2-d matrix with a column, not shape {X.shape}")
    if G < 1 or G > X.shape[0]:
        raise LearnerError(f"need 1 <= G <= {X.shape[0]}, got {G}")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    for _ in range(KMEANS_RESTARTS):
        init = _kmeanspp_init(X, G, rng)
        cand = _lloyd(X, init.copy(), KMEANS_MAX_ITERS)
        if best is None or cand[2] < best[2]:
            best = cand
    centroids, assignment, inertia, trace = best
    return KMeansResult(
        centroids=centroids,
        assignment=assignment,
        inertia=inertia,
        inertia_trace=tuple(trace),
    )


# -- the evaluation harness --------------------------------------------------


def fit_on_sample(ds: Dataset, state: SampleState, seed: int = 0) -> tuple[RidgeModel, float]:
    """Train the ridge head on the sample's labeled points; returns the model
    and its R^2 on the held-out test split."""
    rows = np.sort(state.labeled)
    if not rows.size:
        raise LearnerError("cannot evaluate an empty sample")
    unknown = np.flatnonzero(np.isnan(ds.labels[rows]))
    if unknown.size:
        bad = ds.point_ids[rows[unknown[0]]]
        raise LearnerError(f"sample contains point {bad!r} with unknown label")
    model = ridge_fit_cv(ds.features[rows], ds.labels[rows], seed=seed)
    test_rows = np.flatnonzero(ds.test_mask)
    y_true = ds.labels[test_rows]
    y_pred = predict(model, ds.features[test_rows])
    return model, r2_score(y_true, y_pred)


def evaluate_sample(ds: Dataset, state: SampleState, seed: int = 0) -> float:
    """R^2 of the ridge head trained on the sample, scored on the test split."""
    _, r2 = fit_on_sample(ds, state, seed=seed)
    return r2


def save_model(model: RidgeModel, path: str | Path) -> None:
    doc = {
        "alpha": model.alpha,
        "intercept": model.intercept,
        "weights": [float(w) for w in model.weights],
        "cv_table": [[a, m] for a, m in model.cv_table],
    }
    write_json(path, doc)
