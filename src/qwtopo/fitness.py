"""Divergence metrics scoring a candidate network against the target.

Scores are computed over the concatenated multi-time array without
renormalizing across slices, so the total is the sum of per-time
divergences.  Lower is fitter; zero means the candidate reproduces the
target exactly.
"""
from __future__ import annotations

import enum

import numpy as np

__all__ = ["Metric", "TARGET_CLAMP", "batch_kld", "batch_kolmogorov"]

# Floor applied to target (denominator) entries so that scores stay
# finite when sampled targets contain empty bins.
TARGET_CLAMP = 1e-12


class Metric(enum.Enum):
    KLD = "kld"
    KOLMOGOROV = "kolmogorov"


def batch_kld(models: np.ndarray, target_flat: np.ndarray) -> np.ndarray:
    """KL(model || target) of each row of an (m, K*n) model array, natural log.

    Each term is m ln(m / max(t, TARGET_CLAMP)), and 0 where m = 0.
    The termwise sum can round slightly below zero when a model matches
    the target; such rows score 0.0, and positive sums are unchanged.
    """
    clamped = np.maximum(target_flat, TARGET_CLAMP)
    logs = np.log(models / clamped, out=np.zeros_like(models), where=models > 0)
    return np.maximum((models * logs).sum(axis=1), 0.0)


def batch_kolmogorov(models: np.ndarray, target_flat: np.ndarray) -> np.ndarray:
    """Kolmogorov distance of each model row against one target: half the absolute-difference sum."""
    return 0.5 * np.abs(models - target_flat[None, :]).sum(axis=1)
