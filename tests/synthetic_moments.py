"""Exact feature moments of a synthetic class, the yardstick the tests hold
the generator and the base statistics to."""

import math

import numpy as np

from fsdc.features_io import _LATENT_SIGMA


def abs_power_moments(u: np.ndarray, sigma: float, power: float):
    """Exact mean and variance of |u + sigma*z|**power per component.

    Closed form at power 2; Gauss-Hermite quadrature otherwise (the integrand
    is smooth away from a measure-zero kink, and 96 nodes are plenty for the
    moderate powers used here).
    """
    if power == 2:
        mean = u ** 2 + sigma ** 2
        var = 4.0 * u ** 2 * sigma ** 2 + 2.0 * sigma ** 4
        return mean, var
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    y = np.abs(u[:, None] + sigma * math.sqrt(2.0) * nodes[None, :])
    w = weights / math.sqrt(math.pi)
    m1 = (w * y ** power).sum(axis=1)
    m2 = (w * y ** (2.0 * power)).sum(axis=1)
    return m1, m2 - m1 ** 2


def feature_moments(latent_mean: np.ndarray, skew_power: float):
    """Exact per-feature mean and variance of the synthetic class whose
    latent mean ``generate_synthetic`` returned as ``latent_mean``."""
    return abs_power_moments(latent_mean, _LATENT_SIGMA, skew_power)
