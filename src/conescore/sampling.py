"""Seeded sample families for the verification suites.

Everything here is deterministic in the seed: suites draw their densities
through these helpers so a report is reproducible byte for byte. The
analytic family is Gaussian mixtures with up to three components, means
in [-2, 2], variances in [0.25, 4], and unnormalised weights; the grid
family is smooth positive profiles on [0, 1] with optional flat plateaus
for the supremum rule.
"""

from __future__ import annotations

import numpy as np

from . import pairing
from .densities import Field, GaussianDensity, GridDensity, GridInfo, MixtureDensity
from .errors import InvalidParameterError

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_GRID",
    "sample_mixture",
    "sample_mixture_pairs",
    "sample_fd_pairs",
    "perturbed_mixture",
    "sample_grid_density",
    "sample_plateau_grid",
    "reweighted_mixture",
    "normalized_l1_distance",
]

DEFAULT_SEED = 42
DEFAULT_GRID = GridInfo(0.0, 1.0, 401)


def _checked_seed(seed: int) -> int:
    """``seed``, refused when negative: numpy's seed streams take non-negative integers only."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def sample_mixture(rng: np.random.Generator) -> MixtureDensity:
    """One denormalised Gaussian mixture from the seeded family: one to three components."""
    k = int(rng.integers(1, 4))
    means = rng.uniform(-2.0, 2.0, size=k)
    variances = rng.uniform(0.25, 4.0, size=k)
    weights = rng.uniform(0.2, 1.0, size=k)
    comps = tuple(GaussianDensity(m, v) for m, v in zip(means, variances))
    return MixtureDensity(comps, tuple(weights))


def sample_mixture_pairs(n: int, seed: int = DEFAULT_SEED) -> list[tuple[MixtureDensity, MixtureDensity]]:
    rng = np.random.default_rng(_checked_seed(seed))
    return [(sample_mixture(rng), sample_mixture(rng)) for _ in range(n)]


def perturbed_mixture(q: MixtureDensity, rng: np.random.Generator) -> MixtureDensity:
    """Mixture near q: each component nudged in mean, width, and weight.

    Mean shifts are bounded in units of the component width and variance
    ratios stay within [0.85, 1.2], so every moment of the perturbation
    against q (p^k relative to q^{k-1}) stays integrable with room to
    spare. Difference quotients of the smooth entropies along such a
    direction converge at rate t with moderate constants, which is what
    the finite-difference certificates need; an independently drawn
    mixture can put fat or far-off-center components over q's thin tail,
    where the section's curvature is unbounded and no step schedule
    converges.
    """
    comps = []
    weights = []
    for comp, w in zip(q.components, q.weights):
        shift = rng.uniform(-0.3, 0.3, size=comp.var.shape)
        ratio = rng.uniform(0.85, 1.2, size=comp.var.shape)
        mean = np.clip(comp.mean + shift * np.sqrt(comp.var), -2.0, 2.0)
        var = np.clip(comp.var * ratio, 0.25, 4.0)
        comps.append(GaussianDensity(mean, var))
        weights.append(w * rng.uniform(0.6, 1.5))
    return MixtureDensity(tuple(comps), tuple(weights), scale=q.scale)


def sample_fd_pairs(n: int, seed: int = DEFAULT_SEED) -> list[tuple[MixtureDensity, MixtureDensity]]:
    """Seeded (p, q) pairs safe for finite-difference derivatives at q."""
    pairs = []
    rng = np.random.default_rng(_checked_seed(seed))
    for _ in range(n):
        q = sample_mixture(rng)
        pairs.append((perturbed_mixture(q, rng), q))
    return pairs


def _grid_profile(rng: np.random.Generator, grid: GridInfo) -> np.ndarray:
    x = grid.points()
    span = grid.hi - grid.lo
    vals = np.full(grid.n, rng.uniform(0.1, 0.5))
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(grid.lo, grid.hi)
        width = rng.uniform(0.03, 0.2) * span
        amp = rng.uniform(0.5, 2.0)
        vals = vals + amp * np.exp(-0.5 * ((x - center) / width) ** 2)
    return vals


def sample_grid_density(rng: np.random.Generator, grid: GridInfo = DEFAULT_GRID) -> GridDensity:
    """Smooth positive profile on the grid: baseline plus Gaussian humps."""
    return GridDensity(grid.lo, grid.hi, _grid_profile(rng, grid))


def sample_plateau_grid(rng: np.random.Generator, grid: GridInfo = DEFAULT_GRID) -> GridDensity:
    """Grid density whose maximum is attained on a flat run of cells.

    The plateau height clears the off-plateau profile by a fixed margin,
    so the mode set is exactly the plateau and stays stable under the
    small steps of the derivative schedules.
    """
    vals = _grid_profile(rng, grid)
    vals = vals / np.max(vals)
    lo_idx = int(rng.integers(0, grid.n - 20))
    run = int(rng.integers(8, 40))
    hi_idx = min(grid.n - 1, lo_idx + run)
    height = 2.0
    vals = np.minimum(vals, 1.2)
    vals[lo_idx : hi_idx + 1] = height
    return GridDensity(grid.lo, grid.hi, vals)


def reweighted_mixture(q: MixtureDensity, rng: np.random.Generator) -> MixtureDensity:
    """Mixture with q's components and each weight scaled by a factor in [0.6, 1.4].

    The density ratio to q is bounded by the weight-ratio range, which
    keeps p - q a genuinely two-sided direction at q: q + t(p - q) stays
    positive for every step of the default schedules.
    """
    factors = rng.uniform(0.6, 1.4, size=len(q.weights))
    weights = tuple(w * f for w, f in zip(q.weights, factors))
    return MixtureDensity(q.components, weights, scale=q.scale)


def normalized_l1_distance(p: Field, q: Field, scheme: pairing.QuadratureScheme | None = None) -> float:
    """L1 distance of the normalised densities on a shared node set."""
    return _l1_on(pairing.nodes_for(p + q, scheme), p, q)


def _l1_on(ns: pairing.NodeSet, p: Field, q: Field) -> float:
    """normalized_l1_distance on a node set covering p and q."""
    pv, qv = ns.sample(p).value, ns.sample(q).value
    return float(np.sum(ns.weights * np.abs(pv / ns.mass(p) - qv / ns.mass(q))))
