"""Closed forms the benchmark checks conescore's outputs against.

Written from the formulas, not from conescore's code: a 1-D Gaussian
mixture's value and derivatives with the Gaussian product integral for
the quadratic score, and the diagonal-Gaussian identities in the plane.
Means and variances are numpy arrays, one entry per component or axis.
"""

from __future__ import annotations

import numpy as np


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def mixture_scores(x, means, variances, weights, scale):
    """Logarithmic, quadratic and Hyvarinen scores of a 1-D mixture at ``x``.

    The mixture is ``scale * sum_i w_i N(mu_i, v_i)``; its total mass is
    ``scale * sum(w)``.
    """
    x = np.asarray(x, dtype=float)[:, None]
    phi = weights * _normal_pdf(x, means, variances)
    value = scale * phi.sum(axis=1)
    grad = scale * (phi * (-(x - means) / variances)).sum(axis=1)
    curv = scale * (phi * ((x - means) ** 2 / variances**2 - 1.0 / variances)).sum(axis=1)
    mass = scale * weights.sum()
    wn = weights / weights.sum()
    sq = float(np.sum(wn[:, None] * wn[None, :] * _normal_pdf(means[:, None], means[None, :], variances[:, None] + variances[None, :])))
    return {
        "logarithmic": np.log(value / mass),
        "quadratic": 2.0 * value / mass - sq,
        "hyvarinen": -2.0 * curv / value + (grad / value) ** 2,
    }


def gaussian_kl(mp, vp, mq, vq) -> float:
    """KL(N(mp, diag vp) || N(mq, diag vq))."""
    return float(0.5 * np.sum(vp / vq + (mq - mp) ** 2 / vq - 1.0 + np.log(vq / vp)))


def gaussian_fisher(mp, vp, mq, vq) -> float:
    """Fisher divergence E_p |grad log p - grad log q|^2."""
    return float(np.sum(((mp - mq) / vq) ** 2 + (1.0 / vq - 1.0 / vp) ** 2 * vp))


def gaussian_product(mp, vp, mq, vq) -> float:
    """Integral of N(mp, diag vp) N(mq, diag vq)."""
    return float(np.prod(_normal_pdf(mp, mq, vp + vq)))


def gaussian_l2(mp, vp, mq, vq) -> float:
    """Squared L2 distance between the two normalised Gaussians."""
    return gaussian_product(mp, vp, mp, vp) + gaussian_product(mq, vq, mq, vq) - 2.0 * gaussian_product(mp, vp, mq, vq)


def gaussian_neg_shannon(v) -> float:
    """Negated Shannon entropy of N(m, diag v): -0.5 sum log(2 pi e v)."""
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * np.e * v)))


def gaussian_fisher_information(v) -> float:
    """Trace of the Fisher information of N(m, diag v)."""
    return float(np.sum(1.0 / v))
