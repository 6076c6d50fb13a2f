"""Proxy utility functions over (possibly fractional) cluster inclusion vectors.

Two utilities are provided: expected dataset size, and a group-representation
score that trades balanced group coverage against overall size,

    U(s) = -lam * sum_g gamma_g * (n_g(s) + eps)^(-1/2)
           - (1 - lam) * (n(s) + eps)^(-1/2)

with n_g(s) = sum_i s_i * e_{i,g} and n(s) = sum_i s_i * e_i. The group term
is weighted by ``lam``: at lam = 0 the expression collapses to the pure
overall-size term, and at lam = 1 only group coverage matters. The eps > 0
smoothing keeps the expression bounded when a group count is zero.

Both utilities depend on s only through the aggregates z = (n_g(s), n(s))
(size reads n(s) alone), so each is implemented once as a function phi(z) with
gradient grad phi(z). The solver computes z once per iteration and takes the
value, the gradient and the line search from it; :func:`utility_value`
evaluates U on an array of inclusion values, the one entry point that takes s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExpectedCounts, SampleState
from .groups import GroupModel

UTILITY_KINDS = ("size", "group_rep")


class UtilityError(ValueError):
    pass


@dataclass(frozen=True)
class InclusionVector:
    """Per-cluster value in [0, 1], aligned with Dataset.cluster_ids.

    Binary entries denote committed/selected clusters; fractional entries are
    sampling probabilities. ``committed`` marks clusters fixed at 1.
    """

    values: np.ndarray
    committed: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != self.committed.shape:
            raise UtilityError("values and committed mask must have equal length")
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise UtilityError("inclusion values must lie in [0, 1]")
        if np.any(np.abs(v[self.committed] - 1.0) > 1e-12):
            raise UtilityError("committed clusters must have inclusion value 1")


@dataclass(frozen=True)
class UtilitySpec:
    """Which utility to optimize and its parameters."""

    kind: str = "group_rep"
    lam: float = 0.5
    epsilon: float = 1e-6
    groups: GroupModel | None = None

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise UtilityError(f"unknown utility kind {self.kind!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise UtilityError("lambda must lie in [0, 1]")
        if not (self.epsilon > 0):
            raise UtilityError("epsilon must be positive")
        if self.kind == "group_rep" and self.groups is None:
            raise UtilityError("group_rep utility requires a group model")


def utility_value(values: np.ndarray, counts: ExpectedCounts, spec: UtilitySpec) -> float:
    """U(s) for the inclusion values of s (unchecked against the box, as an
    :class:`InclusionVector` checks them), after checking that they and the
    group model match ``counts``."""
    if len(values) != len(counts.e):
        raise UtilityError(
            f"inclusion vector has {len(values)} clusters, counts have {len(counts.e)}"
        )
    if spec.kind == "group_rep" and counts.n_groups != spec.groups.n_groups:
        raise UtilityError("expected counts were built with a different group model")
    return phi(aggregates(values, counts), spec)


def aggregates(values: np.ndarray, counts: ExpectedCounts) -> np.ndarray:
    """The aggregates z = values @ A that both utilities depend on.

    A is the (m, G + 1) matrix of the counts' group split followed by e (z =
    n_g(s), then n(s)), G = 0 for ``size``; U(s) = phi(z) and grad U(s) =
    A @ grad phi(z). The group sums are one weighted bincount over the split's
    triples: O(nnz + m), nnz = m for admin groups."""
    z = np.empty(counts.n_groups + 1)
    z[:-1] = np.bincount(
        counts.cols, weights=values[counts.rows] * counts.vals, minlength=counts.n_groups
    )
    z[-1] = values @ counts.e
    return z


def phi(z: np.ndarray, spec: UtilitySpec) -> float:
    """The utility as a function of its aggregates z (see :func:`aggregates`)."""
    if spec.kind == "size":
        return float(z[-1])
    eps = spec.epsilon
    group_term = float(np.sum(spec.groups.gamma * (z[:-1] + eps) ** -0.5))
    return -spec.lam * group_term - (1.0 - spec.lam) * (float(z[-1]) + eps) ** -0.5


def phi_gradient(z: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """Gradient of :func:`phi` in z."""
    if spec.kind == "size":
        return np.append(np.zeros(len(z) - 1), 1.0)
    eps = spec.epsilon
    w = np.empty(len(z))
    w[:-1] = spec.lam * 0.5 * spec.groups.gamma * (z[:-1] + eps) ** -1.5
    w[-1] = (1.0 - spec.lam) * 0.5 * (z[-1] + eps) ** -1.5
    return w


def utility_gradient_raw(w: np.ndarray, counts: ExpectedCounts) -> np.ndarray:
    """Gradient in s, A @ w, given w = phi_gradient(z, spec) at the point
    whose aggregates are z (see :func:`aggregates`): a bincount over the
    split's rows, O(nnz + m) with nnz = m for admin groups. Taking w rather
    than s lets a caller that already holds it skip a second product and a
    second grad phi."""
    return np.bincount(
        counts.rows, weights=counts.vals * w[counts.cols], minlength=len(counts.e)
    ) + counts.e * w[-1]


def utility_of_sample(state: SampleState, spec: UtilitySpec) -> float:
    """Evaluate the utility on a realized sample, using the actual labeled
    points per group rather than expectations: the aggregates are the
    sample's own group counts and size."""
    n_g = (np.bincount(spec.groups.assignment[state.labeled], minlength=spec.groups.n_groups)
           if spec.kind == "group_rep" else np.zeros(0))   # size: G = 0, as in its counts
    return phi(np.append(n_g.astype(np.float64), float(state.n_labeled)), spec)
