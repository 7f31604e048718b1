"""Divergence metrics scoring a candidate network against the target.

Scores are computed over the concatenated multi-time array without
renormalizing across slices, so the total is the sum of per-time
divergences.  Lower is fitter; zero means the candidate reproduces the
target exactly.
"""
from __future__ import annotations

import enum

import numpy as np

from .ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, concatenated_distribution
from .errors import ShapeError
from .graph import CouplingString

__all__ = ["Metric", "TARGET_CLAMP", "kld", "kolmogorov", "fitness"]

# Floor applied to target (denominator) entries so that scores stay
# finite when sampled targets contain empty bins.
TARGET_CLAMP = 1e-12


class Metric(enum.Enum):
    KLD = "kld"
    KOLMOGOROV = "kolmogorov"


def _flat_pair(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> tuple[np.ndarray, np.ndarray]:
    if model.n != target.n or model.k != target.k:
        raise ShapeError(
            f"model is {model.k} slices of {model.n}, target is {target.k} slices of {target.n}"
        )
    return model.flat, target.flat


def kld(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> float:
    """Kullback-Leibler divergence sum_x model_x ln(model_x / target_x).

    Target entries are clamped at TARGET_CLAMP; model-side zeros
    contribute 0 by the 0 ln 0 = 0 convention.  Natural logarithm.
    """
    m, t = _flat_pair(model, target)
    return batch_kld(m[None, :], t)[0]


def kolmogorov(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> float:
    """Half the absolute-difference sum over the concatenated array."""
    m, t = _flat_pair(model, target)
    return batch_kolmogorov(m[None, :], t)[0]


def fitness(
    candidate: CouplingString,
    target: ConcatenatedDistribution,
    psi0: ProbeState,
    grid: TimeGrid,
    metric: Metric = Metric.KLD,
) -> float:
    """Score a coupling string: its walk statistics against the target."""
    model = concatenated_distribution(candidate, psi0, grid)
    if metric is Metric.KLD:
        return kld(model, target)
    return kolmogorov(model, target)


def batch_kld(models: np.ndarray, target_flat: np.ndarray) -> np.ndarray:
    """KLD of each row of an (m, K*n) model array against one target.

    Each term is m ln(m / max(t, TARGET_CLAMP)), and 0 where m = 0.
    The termwise sum can round slightly below zero when a model matches
    the target; such rows score 0.0, and positive sums are unchanged.
    """
    clamped = np.maximum(target_flat, TARGET_CLAMP)
    logs = np.log(models / clamped, out=np.zeros_like(models), where=models > 0)
    return np.maximum((models * logs).sum(axis=1), 0.0)


def batch_kolmogorov(models: np.ndarray, target_flat: np.ndarray) -> np.ndarray:
    """Kolmogorov distance of each model row against one target."""
    return 0.5 * np.abs(models - target_flat[None, :]).sum(axis=1)
