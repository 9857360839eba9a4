"""Denormalised predictive densities, their JSON configs, and prediction cones.

A *field* is a scalar function on R^d (d = 1 or 2) or on a 1-D grid box,
exposing pointwise value, gradient, and Laplacian where the family supports
them. Fields form a real vector space via ``+``, ``-`` and scalar ``*``;
the nonnegative members with family metadata are the densities, and signed
combinations serve as directions for the derivative machinery.

Densities are deliberately *denormalised*: the cone of positive scalings is
the natural home of the entropy calculus, where entropies extend
1-homogeneously and scores 0-homogeneously.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConeMembershipError,
    DivergenceError,
    DomainError,
    InvalidParameterError,
    UnsupportedFamilyError,
)

__all__ = [
    "Field",
    "Sample",
    "Combination",
    "GaussianDensity",
    "MixtureDensity",
    "PowerLawDensity",
    "GridField",
    "GridDensity",
    "Bump",
    "GridInfo",
    "ConeSpec",
    "ShannonEnvelope",
    "HyvarinenGrowth",
    "QuadraticNorm",
    "GridPositive",
    "ConeWitness",
    "ConeReport",
    "density_from_config",
    "cone_spec_from_config",
    "cone_check",
    "require_cone",
    "probe_points",
]

# Values below this are treated as numerically indistinguishable from zero
# when forming ratios like grad/value at far-tail probe points.
_RATIO_FLOOR = 1e-280


class GridInfo(NamedTuple):
    """Identity of a uniform 1-D grid; fields sharing it are combinable."""

    lo: float
    hi: float
    n: int

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Normalise point input to shape (n, dim); report whether it was scalar-like."""
    a = np.asarray(x, dtype=float)
    if dim == 1:
        scalar = a.ndim == 0
        return np.atleast_1d(a).reshape(-1, 1), scalar
    if a.ndim == 1:
        if a.shape[0] != dim:
            raise InvalidParameterError(f"expected a point in R^{dim}, got shape {a.shape}")
        return a.reshape(1, dim), True
    if a.ndim == 2 and a.shape[1] == dim:
        return a, False
    raise InvalidParameterError(f"expected points of shape (n, {dim}), got {a.shape}")


def _squeeze(values: np.ndarray, scalar: bool):
    if not scalar:
        return values
    return float(values[0]) if values.ndim == 1 else values[0]


def _axis_sum(a) -> np.ndarray:
    """Sum over the leading axis, of length 1 or 2, added in order."""
    return a[0] if len(a) == 1 else a[0] + a[1]


class Sample(NamedTuple):
    """One pass of a field over points: values, plus the gradient and Laplacian when asked for."""

    value: np.ndarray
    gradient: np.ndarray | None = None
    laplacian: np.ndarray | None = None


class Field:
    """Scalar field on R^d with optional derivatives and decay metadata.

    Families implement ``sample``, one pass for the values and, when asked, the
    gradient and Laplacian; ``value``, ``gradient`` and ``laplacian`` read it.
    """

    dim: int = 1

    # -- pointwise evaluation -------------------------------------------------
    def sample(self, x, order: int = 0) -> Sample:
        """Values at ``x``, with the gradient (order >= 1) and the Laplacian (order 2)."""
        raise NotImplementedError

    def sample_on(self, ns, order: int = 0) -> Sample:
        """``sample`` at the nodes of a ``pairing.NodeSet``; separable families override it."""
        return self.sample(ns.points, order)

    def ratio_sample(self, x, order: int = 0) -> Sample:
        """``sample`` with each point's row over a positive factor: what reads only ratios to the value there.

        The factor is 1 here; a family whose derivatives underflow before their ratios to the value divides by more.
        """
        return self.sample(x, order)

    def value(self, x):
        return self.sample(x).value

    def gradient(self, x):
        return self.sample(x, 1).gradient

    def laplacian(self, x):
        return self.sample(x, 2).laplacian

    # -- quadrature metadata --------------------------------------------------
    @property
    def grid(self) -> GridInfo | None:
        return None

    def core_radius(self) -> float:
        """Truncation radius capturing the bulk of |field| mass."""
        raise NotImplementedError

    def tail_mass_bound(self, radius: float) -> float:
        """Analytic upper bound on the |field| mass beyond ``radius``."""
        raise NotImplementedError

    def half_max_width(self) -> float:
        """Full width at half maximum of the narrowest feature; 0 if unknown (node sets then use the panel cap)."""
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        """Ascending 1-D points where the field is not smooth; node sets put a panel edge at each."""
        return ()

    # -- vector-space structure -----------------------------------------------
    def terms(self) -> tuple[tuple[float, "Field"], ...]:
        return ((1.0, self),)

    def scaled(self, c: float) -> "Field":
        return Combination((float(c),), (self,))

    def __add__(self, other: "Field") -> "Field":
        return Combination((1.0, 1.0), (self, other))

    def __sub__(self, other: "Field") -> "Field":
        return Combination((1.0, -1.0), (self, other))

    def __mul__(self, c) -> "Field":
        return self.scaled(c)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self.scaled(-1.0)

    # -- mass -----------------------------------------------------------------
    def total_mass(self, scheme=None) -> float:
        """Total mass (this . 1) by quadrature, cached per scheme."""
        from . import pairing  # deferred: pairing depends on this module

        key = scheme if scheme is not None else pairing.DEFAULT_SCHEME
        cache = self.__dict__.setdefault("_mass_cache", {})
        if key not in cache:
            cache[key] = pairing.total_mass(self, scheme=key)
        return cache[key]


def _gaussian_values(pts: np.ndarray, mean: np.ndarray, var: np.ndarray, factor: np.ndarray) -> tuple:
    """Values (m, n) at points (n, d) of m Gaussians, with their offsets x - mean (d, m, n) and variances (d, m, 1).

    ``mean`` and ``var`` are (m, d), ``factor`` (m,) each scale over its
    normaliser. One exp per point and Gaussian.
    """
    var = var.T[:, :, None]
    d = pts.T[:, None, :] - mean.T[:, :, None]  # (d, m, n)
    with np.errstate(over="ignore"):  # a z-score that overflows gives the value 0, as exp(-inf)
        value = _axis_sum(d**2 / var)  # in place from here on: no further (m, n) temporaries
    value *= -0.5
    np.exp(value, out=value)
    with np.errstate(invalid="ignore"):  # an overflowed factor times an exp that underflowed is nan, refused as non-finite mass
        value *= factor[:, None]
    return value, d, var


def _gaussian_rows(value: np.ndarray, offsets, var, order: int, out: list | None = None) -> list:
    """Values v (m, ...) of m Gaussians, gradients -z v (m, d, ...) at order >= 1, Laplacians (|z|^2 - sum 1/var) v at 2.

    ``offsets`` x - mean and ``var`` hold one entry per axis, broadcasting against v; z is offset / var.
    Given ``out``, an earlier call's rows, it adds each row into them as it goes: one row's temporary at a time.
    """
    rows = [value if out is None else np.add(out[0], value, out=out[0])]
    if order >= 1:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing z-scores give non-finite rows, refused downstream
            z = [a / -s for a, s in zip(offsets, var)]  # -z: the gradient's sign, with z's squares
            gradient = np.empty((len(z),) + value.shape) if out is None else out[1].swapaxes(0, 1)
            for a, row in zip(z, gradient):
                if out is None:
                    np.multiply(a, value, out=row)
                else:
                    row += a * value
            rows.append(gradient.swapaxes(0, 1))
            if order >= 2:
                laplacian = _axis_sum([np.square(a) for a in z])
                laplacian -= _axis_sum(1.0 / var)
                laplacian *= value
                rows.append(laplacian if out is None else np.add(out[2], laplacian, out=out[2]))
    return rows


class _GaussianSum(Field):
    """Weighted diagonal Gaussians, many sampled per pass.

    ``_rows`` holds their means and variances (m, d) and their scales over
    their normalisers (m,); ``_coeffs`` holds their weights.
    """

    def sample(self, x, order: int = 0) -> Sample:
        """Each Gaussian's weighted sample, added in order."""
        pts, scalar = _as_points(x, self.dim)
        out = None
        step = max(1, 2**14 // pts.size)  # Gaussians per pass: (d, step, n) temporaries within 2**14 floats, or one
        for i in range(0, len(self._coeffs), step):
            rows = _gaussian_rows(*_gaussian_values(pts, *(a[i : i + step] for a in self._rows)), order)
            for c, *terms in zip(self._coeffs[i : i + step], *rows):
                terms = terms if c == 1.0 else [c * t for t in terms]  # 1 * t is t
                out = terms if out is None else [np.add(total, t, out=total) for total, t in zip(out, terms)]
        if order >= 1:  # (d, n) as the pointwise gradient: (n,) in 1-D, (n, 2) in 2-D
            out[1] = out[1][0] if self.dim == 1 else out[1].T
        return Sample(*(_squeeze(a, scalar) for a in out))

    def sample_on(self, ns, order: int = 0) -> Sample:
        """On a tensor square, outer products of 1-D profiles on ``ns.axis``, one ``_gaussian_values`` pass per axis.

        The x profiles carry each Gaussian's factor and weight, the y profiles 1. Each Gaussian adds, in order,
        the ``_gaussian_rows`` of its value v = vx vy, with its offsets shaped along their axes.
        """
        if ns.axis is None:
            return super().sample_on(ns, order)
        (mean, var, factor), x, out = self._rows, ns.axis[:, None], None
        factors = (factor * self._coeffs, np.ones_like(factor))
        (vx, dx, _), (vy, dy, _) = (_gaussian_values(x, mean[:, [k]], var[:, [k]], f) for k, f in enumerate(factors))
        for j, value in enumerate(map(np.multiply.outer, vx, vy)):
            out = _gaussian_rows(value[None], (dx[0, [j], :, None], dy[0, [j], None, :]), var[j], order, out)
        return Sample(*(a[0].ravel() if a.ndim == 3 else a[0].reshape(2, -1).T for a in out))


class Combination(Field):
    """Finite linear combination of fields (flattened, signed)."""

    def __init__(self, coeffs: Sequence[float], fields: Sequence[Field]):
        if len(coeffs) != len(fields):
            raise InvalidParameterError("coeffs and fields must have equal length")
        flat_c: list[float] = []
        flat_f: list[Field] = []
        for c, f in zip(coeffs, fields):
            for ci, fi in f.terms():
                flat_c.append(float(c) * ci)
                flat_f.append(fi)
        if not flat_f:
            raise InvalidParameterError("empty combination")
        dims = {f.dim for f in flat_f}
        if len(dims) != 1:
            raise InvalidParameterError(f"mixed dimensions in combination: {sorted(dims)}")
        grids = {f.grid for f in flat_f if f.grid is not None}
        if len(grids) > 1:
            raise InvalidParameterError("combination mixes incompatible grids")
        self.coeffs = tuple(flat_c)
        self.fields = tuple(flat_f)
        self.dim = flat_f[0].dim
        self._grid = grids.pop() if grids else None

    @property
    def grid(self) -> GridInfo | None:
        return self._grid

    def terms(self):
        return tuple(zip(self.coeffs, self.fields))

    def sample(self, x, order: int = 0) -> Sample:
        """Sum of c * (each term's one-pass sample), added in term order."""
        total = None  # added in place: one running array per quantity
        for c, f in zip(self.coeffs, self.fields):
            part = [c * a for a in f.sample(x, order)[: order + 1]]
            total = part if total is None else list(map(operator.iadd, total, part))
        return Sample(*total)

    def core_radius(self) -> float:
        return max(f.core_radius() for f in self.fields)

    def half_max_width(self) -> float:
        return min(f.half_max_width() for f in self.fields)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({b for f in self.fields for b in f.breakpoints()}))

    def tail_mass_bound(self, radius: float) -> float:
        return sum(abs(c) * f.tail_mass_bound(radius) for c, f in zip(self.coeffs, self.fields))


def _validate_positive(name: str, value: float):
    if not np.isfinite(value) or value <= 0:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class GaussianDensity(_GaussianSum):
    """Gaussian with diagonal covariance, scaled by a positive factor."""

    mean: np.ndarray
    var: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.asarray(self.var, dtype=float)
        if var.ndim == 0:
            var = np.full_like(mean, float(var))
        if mean.shape != var.shape or mean.ndim != 1:
            raise InvalidParameterError("mean and var must be vectors of equal length")
        if mean.size not in (1, 2):
            raise InvalidParameterError("only dimensions 1 and 2 are supported")
        if not np.all(np.isfinite(mean)):
            raise InvalidParameterError("mean must be finite")
        if not np.all(np.isfinite(var)) or np.any(var <= 0):
            raise InvalidParameterError("var must be positive and finite")
        _validate_positive("scale", self.scale)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "dim", mean.size)
        # node sets read the metadata on every call: plain floats, computed once
        m, v = np.abs(mean).tolist(), var.tolist()
        sigma = [math.sqrt(x) for x in v]
        object.__setattr__(self, "_core", max(8.0, *(6.0 * s + a for s, a in zip(sigma, m))))
        object.__setattr__(self, "_tail", tuple((a, s * math.sqrt(2.0)) for a, s in zip(m, sigma)))
        object.__setattr__(self, "_width", math.sqrt(8.0 * math.log(2.0) * min(v)))
        factor = self.scale / math.prod(math.sqrt(2.0 * math.pi * x) for x in v)
        object.__setattr__(self, "_rows", (mean[None], var[None], np.array([factor])))
        object.__setattr__(self, "_coeffs", (1.0,))

    def core_radius(self) -> float:
        return self._core

    def tail_mass_bound(self, radius: float) -> float:
        return float(self.scale * sum(math.erfc(max((radius - m) / s, 0.0)) for m, s in self._tail))

    def half_max_width(self) -> float:
        return self._width


@dataclass(frozen=True, eq=False)
class MixtureDensity(_GaussianSum):
    """Positive combination of Gaussians; weights need not sum to one."""

    components: tuple
    weights: tuple
    scale: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        weights = tuple(float(w) for w in self.weights)
        if not comps:
            raise InvalidParameterError("mixture needs at least one component")
        if len(comps) != len(weights):
            raise InvalidParameterError("components and weights must have equal length")
        if any(not isinstance(c, GaussianDensity) for c in comps):
            raise InvalidParameterError("mixture components must be GaussianDensity")
        if any(not np.isfinite(w) or w <= 0 for w in weights):
            raise InvalidParameterError("weights must be positive and finite")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise InvalidParameterError("mixture components must share a dimension")
        _validate_positive("scale", self.scale)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim", comps[0].dim)
        object.__setattr__(self, "_rows", tuple(np.concatenate(parts) for parts in zip(*(c._rows for c in comps))))
        object.__setattr__(self, "_coeffs", tuple(self.scale * w for w in weights))

    def core_radius(self) -> float:
        return max(c.core_radius() for c in self.components)

    def tail_mass_bound(self, radius: float) -> float:
        return self.scale * sum(w * c.tail_mass_bound(radius) for w, c in zip(self.weights, self.components))

    def half_max_width(self) -> float:
        return min(c.half_max_width() for c in self.components)


@dataclass(frozen=True, eq=False)
class PowerLawDensity(Field):
    """Normalised density proportional to (1 + |x|^2)^(-beta/2), scaled.

    Requires beta > dim for integrability. beta = 2 in dimension 1 is the
    Cauchy density.
    """

    beta: float
    dim: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidParameterError("only dimensions 1 and 2 are supported")
        object.__setattr__(self, "dim", int(self.dim))
        if not np.isfinite(self.beta) or self.beta <= self.dim:
            raise InvalidParameterError(f"beta must exceed the dimension {self.dim}, got {self.beta!r}")
        _validate_positive("scale", self.scale)
        object.__setattr__(self, "_norm", self._normaliser())

    def _normaliser(self) -> float:
        b = float(self.beta)
        if self.dim == 2:
            return 2.0 * math.pi / (b - 2.0)
        if b < 340.0:  # the ratio of Gammas is accurate to a few ulps; Gamma(b/2) overflows near b = 343
            return math.sqrt(math.pi) * math.gamma((b - 1) / 2) / math.gamma(b / 2)
        return math.exp(0.5 * math.log(math.pi) + math.lgamma((b - 1) / 2) - math.lgamma(b / 2))

    def sample(self, x, order: int = 0) -> Sample:
        return self._rows(x, order, ratios=False)

    def ratio_sample(self, x, order: int = 0) -> Sample:
        """Each row over q where q is positive: 1, grad q / q and lap q / q, finite where q's derivatives underflow."""
        return self._rows(x, order, ratios=True)

    def _rows(self, x, order: int, ratios: bool) -> Sample:
        pts, scalar = _as_points(x, self.dim)
        with np.errstate(over="ignore"):  # past |x| ~ 1e154 r^2 is inf, where q is 0
            r2 = (pts**2).sum(axis=1)
        b, d, u = self.beta, self.dim, 1.0 + r2
        values = (self.scale / self._norm) * u ** (-0.5 * b)
        if ratios:
            values = np.where(values > 0, 1.0, values)
        out = [values]
        if order >= 1:
            g = values[:, None] * (-b * pts / u[:, None])
            out.append(g[:, 0] if d == 1 else g)
        if order >= 2:
            try:
                c = b**2 + 2.0 * b
            except OverflowError:  # beta^2 past the float range
                raise DomainError(f"the power law's Laplacian overflows at beta = {b!r}") from None
            ratio = np.divide(r2, u, out=np.ones_like(u), where=u < np.inf)  # its limit 1 where r^2 is inf, and q is 0
            out.append(values * ((c * ratio - b * d) / u))  # no (1 + r^2)^2 to overflow
        return Sample(*(_squeeze(a, scalar) for a in out))

    def core_radius(self) -> float:
        return 8.0

    def tail_mass_bound(self, radius: float) -> float:
        # beyond radius >= 1 the kernel is bounded by |x|^(-beta)
        r = max(radius, 1.0)
        b = self.beta
        if self.dim == 1:
            return 2.0 * self.scale * r ** (1.0 - b) / (self._norm * (b - 1.0))
        return 2.0 * math.pi * self.scale * r ** (2.0 - b) / (self._norm * (b - 2.0))

    def half_max_width(self) -> float:
        return 2.0 * math.sqrt(math.expm1(2.0 * math.log(2.0) / self.beta))


@dataclass(frozen=True, eq=False)
class GridField(Field):
    """Signed values on a uniform 1-D grid; evaluation interpolates linearly.

    Gradients come from central differences, so the Hyvarinen rule refuses
    grid fields; there is no Laplacian (sampled values carry no trustworthy
    curvature).
    """

    lo: float
    hi: float
    values: np.ndarray

    dim = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise InvalidParameterError("grid values must be a 1-D array with at least two points")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("grid values must be finite")
        if not np.finfo(float).tiny <= (float(self.hi) - float(self.lo)) / (values.size - 1) < np.inf:  # so lo < hi, finite
            raise InvalidParameterError("grid domain must satisfy lo < hi, with a finite width and a spacing in the normal float range")
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> GridInfo:
        return GridInfo(float(self.lo), float(self.hi), int(self.values.size))

    def _check_domain(self, pts: np.ndarray):
        eps = 1e-12 * (self.hi - self.lo)
        outside = (pts < self.lo - eps) | (pts > self.hi + eps)
        if np.any(outside):
            bad = float(pts[outside][0])
            raise DomainError(f"point {bad} outside grid domain [{self.lo}, {self.hi}]")

    def sample(self, x, order: int = 0) -> Sample:
        if order >= 2:
            raise UnsupportedFamilyError("grid fields expose no Laplacian")
        pts, scalar = _as_points(x, 1)
        self._check_domain(pts)
        grid = self.grid
        knots = grid.points()
        out = [np.interp(pts[:, 0], knots, self.values)]
        if order >= 1:
            out.append(np.interp(pts[:, 0], knots, np.gradient(self.values, grid.spacing)))
        return Sample(*(_squeeze(a, scalar) for a in out))


class GridDensity(GridField):
    """Nonnegative grid field with at least one strictly positive value."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values < 0):
            raise InvalidParameterError("grid density values must be nonnegative")
        if not np.any(self.values > 0):
            raise InvalidParameterError("grid density must be positive somewhere")


@dataclass(frozen=True, eq=False)
class Bump(Field):
    """Compactly supported polynomial bump a*(1 - u^2)^2, u = |x - c|/h.

    C^1 with closed-form gradient and Laplacian, which jumps where u = 1
    (the breakpoints c -+ h in 1-D); the natural sign-changing direction.
    """

    center: np.ndarray
    halfwidth: float
    amplitude: float = 1.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.size not in (1, 2):
            raise InvalidParameterError("only dimensions 1 and 2 are supported")
        _validate_positive("halfwidth", self.halfwidth)
        if not np.isfinite(self.amplitude) or self.amplitude == 0:
            raise InvalidParameterError("amplitude must be finite and nonzero")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.size)

    def _u2(self, pts: np.ndarray) -> np.ndarray:
        return ((pts - self.center) ** 2).sum(axis=1) / self.halfwidth**2

    def sample(self, x, order: int = 0) -> Sample:
        pts, scalar = _as_points(x, self.dim)
        u2 = self._u2(pts)
        inside, a, h2, d = u2 < 1.0, self.amplitude, self.halfwidth**2, self.dim
        out = [np.where(inside, a * (1.0 - u2) ** 2, 0.0)]
        if order >= 1:
            g = np.where(inside[:, None], -4.0 * a * (1.0 - u2)[:, None] * (pts - self.center) / h2, 0.0)
            out.append(g[:, 0] if d == 1 else g)
        if order >= 2:
            out.append(np.where(inside, -4.0 * a / h2 * (d - (d + 2.0) * u2), 0.0))
        return Sample(*(_squeeze(v, scalar) for v in out))

    def exact_mass(self) -> float:
        """Closed-form integral of the bump over R^d."""
        if self.dim == 1:
            return self.amplitude * self.halfwidth * 16.0 / 15.0
        return self.amplitude * math.pi * self.halfwidth**2 / 3.0

    def core_radius(self) -> float:
        return float(np.max(np.abs(self.center)) + self.halfwidth)

    def half_max_width(self) -> float:
        # a 2-D bump's kink is a circle no panel edge can follow, so its node sets keep the cap
        return 2.0 * self.halfwidth * math.sqrt(1.0 - math.sqrt(0.5)) if self.dim == 1 else 0.0

    def breakpoints(self) -> tuple[float, ...]:
        c, h = float(self.center[0]), float(self.halfwidth)
        return (c - h, c + h) if self.dim == 1 else ()

    def tail_mass_bound(self, radius: float) -> float:
        # the bump keeps one sign, so its |field| mass is |exact mass|
        return 0.0 if radius >= self.core_radius() else abs(self.exact_mass())


# ---------------------------------------------------------------------------
# construction from configs
# ---------------------------------------------------------------------------

def _holds_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _read(config, key: str, table: dict, what: str):
    """The constructor that ``config[key]`` names in ``table``, called with the config's other fields as keywords.

    A config that is not a dict, names no constructor, holds a boolean, or has
    a field its constructor cannot take (a ``KeyError``, ``TypeError``, ``ValueError``
    or ``OverflowError``) is an :class:`InvalidParameterError`; a constructor's own keeps its message.
    """
    if not isinstance(config, dict):
        raise InvalidParameterError(f"{what} config must be a dict, got {type(config).__name__}")
    fields = dict(config)
    name = str(fields.pop(key, None)).lower()
    if name not in table:
        raise InvalidParameterError(f"unknown {what} {key} {config.get(key)!r}; expected one of {sorted(table)}")
    if booleans := [field for field, value in fields.items() if _holds_bool(value)]:
        raise InvalidParameterError(f"bad {what} config: {booleans[0]!r} holds a boolean where a number is expected")
    try:
        return table[name](**fields)
    except InvalidParameterError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"bad {what} config: {exc}") from exc


def _mixture(components, weights, scale: float = 1.0) -> MixtureDensity:
    comps = [_read({"family": "gaussian", **c}, "family", {"gaussian": GaussianDensity}, "mixture component") for c in components]
    return MixtureDensity(comps, weights, scale=scale)


def _grid(domain, values, scale: float = 1.0) -> GridDensity:
    lo, hi = domain
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range is refused as a non-finite value
        return GridDensity(float(lo), float(hi), scale * np.asarray(values, dtype=float))


_FAMILIES = {"gaussian": GaussianDensity, "mixture": _mixture, "power_law": PowerLawDensity, "grid": _grid}


def density_from_config(config: dict) -> Field:
    """Build a density from its JSON-style config dict: each field but ``family`` is its constructor's keyword.

    A mixture's ``components`` are gaussian configs (``family`` optional); a
    grid's ``domain`` is ``[lo, hi]`` and its ``scale`` multiplies ``values``.
    Nothing is integrated until a caller picks a scheme.
    """
    return _read(config, "family", _FAMILIES, "density")


# ---------------------------------------------------------------------------
# prediction cones
# ---------------------------------------------------------------------------

def probe_points(dim: int = 1) -> np.ndarray:
    """Default cone-check probe grid: a dense core plus dyadic tail points."""
    radii = np.unique(np.concatenate([np.linspace(0.0, 20.0, 201), 2.0 ** np.arange(0, 11)]))
    if dim == 1:
        return np.unique(np.concatenate([-radii[::-1], radii]))
    angles = np.arange(8) * (np.pi / 4.0)
    pts = [np.zeros((1, 2))]
    for r in radii[1:]:
        pts.append(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
    return np.vstack(pts)


def _validate_probes(spec) -> None:
    """Envelope and growth probes, when given, are finite points: (n,) or (n, 1) in 1-D, (n, 2) in 2-D."""
    if spec.probes is None:
        return
    try:
        pts = np.asarray(spec.probes, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"cone probes must be numbers: {exc}") from exc
    shaped = (pts.ndim == 2 and pts.shape[1] == spec.dim) or (spec.dim == 1 and pts.ndim == 1)
    if not (shaped and pts.size and np.all(np.isfinite(pts))):
        raise InvalidParameterError(f"cone probes must be finite points of shape (n, {spec.dim}), got {pts.shape}")


@dataclass(frozen=True)
class ShannonEnvelope:
    """Power-law envelope cone: c1*(1+|x|)^(-a) <= q-hat <= c2*(1+|x|)^(-(d+1))."""

    a: float
    c1: float
    c2: float
    dim: int = 1
    probes: tuple | None = None
    kind: ClassVar[str] = "shannon_envelope"

    def __post_init__(self):
        _validate_positive("c1", self.c1)
        _validate_positive("c2", self.c2)
        if not (np.isfinite(self.a) and self.a >= self.dim + 1):
            raise InvalidParameterError(f"decay exponent a must be finite and >= dim+1 = {self.dim + 1}")
        _validate_probes(self)


@dataclass(frozen=True)
class HyvarinenGrowth:
    """Growth cone: |grad q/q| + |lap q/q| <= c1*(1+|x|)^k and
    q-hat <= c2*(1+|x|)^(-(d+1+k^2))."""

    c1: float
    k: float
    c2: float
    dim: int = 1
    probes: tuple | None = None
    kind: ClassVar[str] = "hyvarinen_growth"

    def __post_init__(self):
        _validate_positive("c1", self.c1)
        _validate_positive("c2", self.c2)
        _validate_positive("k", self.k)
        _validate_probes(self)


@dataclass(frozen=True)
class QuadraticNorm:
    """Weighted-L2 annulus cone: k1 - eps < ||q-hat||_{2,w} < k2 + eps
    with weight (1+|x|)^(dim+1)."""

    k1: float
    k2: float
    eps: float = 0.05
    dim: int = 1
    kind: ClassVar[str] = "quadratic_norm"

    def __post_init__(self):
        _validate_positive("k1", self.k1)
        _validate_positive("k2", self.k2)
        if self.k2 < self.k1:
            raise InvalidParameterError("k2 must be >= k1")
        if not 0 < self.eps < min(1.0, self.k1):
            raise InvalidParameterError("eps must lie in (0, min(1, k1))")


@dataclass(frozen=True)
class GridPositive:
    """Grid cone: values nonnegative everywhere, positive somewhere."""

    dim: int = 1
    kind: ClassVar[str] = "grid_positive"


ConeSpec = ShannonEnvelope | HyvarinenGrowth | QuadraticNorm | GridPositive


_CONE_KINDS = {
    "shannon_envelope": ShannonEnvelope,
    "hyvarinen_growth": HyvarinenGrowth,
    "quadratic_norm": QuadraticNorm,
    "grid_positive": GridPositive,
}


def cone_spec_from_config(config: dict) -> ConeSpec:
    """Build a cone spec from its JSON-style config dict: each field but ``kind`` is its dataclass's keyword."""
    return _read(config, "kind", _CONE_KINDS, "cone")


@dataclass(frozen=True)
class ConeWitness:
    point: tuple
    constraint: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ConeReport:
    member: bool
    worst_residual: float
    witnesses: tuple
    checked: int


_MAX_WITNESSES = 8


# relative allowance on cone inequalities: envelopes chosen to touch the
# density with equality must not fail membership over float rounding
_CONE_RTOL = 1e-9


def _collect(slack: np.ndarray, pts: np.ndarray, constraint: str, lhs: np.ndarray, rhs: np.ndarray):
    """Turn a slack array into (worst slack, witnesses for negative entries).

    Slack is measured with a ``_CONE_RTOL`` relative allowance against the
    magnitude of the two sides.
    """
    tol = _CONE_RTOL * (np.abs(lhs) + np.abs(rhs))
    adjusted = slack + tol
    worst = float(np.min(adjusted)) if adjusted.size else 0.0
    witnesses = []
    bad = np.argsort(adjusted)[: _MAX_WITNESSES]
    for i in bad:
        if adjusted[i] >= 0:
            break
        point = tuple(np.atleast_1d(pts[i]).tolist())
        witnesses.append(ConeWitness(point, constraint, float(lhs[i]), float(rhs[i])))
    return worst, witnesses


def cone_check(q: Field, spec: ConeSpec, scheme=None) -> ConeReport:
    """Check the cone inequalities for ``q`` on the spec's probe grid.

    Membership is tested with the spec's own constants against the
    normalised density, so the verdict is invariant under positive scaling
    of ``q``. Violations come back as witnesses with the worst (most
    negative) slack; only a spec that does not apply to ``q`` raises.
    """
    from . import pairing

    if spec.dim != q.dim:
        raise InvalidParameterError(f"{spec.kind} cone of dimension {spec.dim} does not apply to a {q.dim}-D density")
    if isinstance(spec, GridPositive):
        if q.grid is None:
            raise InvalidParameterError("grid_positive cone applies to grid fields")
        ns = pairing.nodes_for(q)
        vals = ns.sample(q).value
        worst, witnesses = _collect(vals, ns.points, "nonnegative", vals, np.zeros_like(vals))
        member = worst >= 0 and bool(np.any(vals > 0))
        if not np.any(vals > 0):
            witnesses = list(witnesses) + [ConeWitness((q.grid.lo,), "somewhere_positive", 0.0, 0.0)]
            worst = min(worst, -1.0)
        return ConeReport(member, worst, tuple(witnesses), vals.size)

    mass = q.total_mass(scheme)
    if not np.isfinite(mass) or mass <= 0:
        return ConeReport(False, -float("inf"), (ConeWitness((), "positive_mass", mass, 0.0),), 0)

    if isinstance(spec, QuadraticNorm):
        lo, hi = spec.k1 - spec.eps, spec.k2 + spec.eps
        if not np.isfinite(1.0 / mass):  # a subnormal mass: q / (q.1) overflows, so q-hat has no norm to check
            return ConeReport(False, -float("inf"), (ConeWitness((), "normal_mass", mass, float(np.finfo(float).tiny)),), 0)
        try:
            norm = pairing.weighted_norm(q.scaled(1.0 / mass), spec.dim + 1, scheme=scheme)
        except DivergenceError:  # a norm not shown finite is never a member
            return ConeReport(False, -float("inf"), (ConeWitness((), "norm_finite", float("inf"), hi),), 0)
        tol = _CONE_RTOL * (abs(norm) + max(abs(lo), abs(hi)))
        slack = np.array([norm - lo + tol, hi - norm + tol])
        witnesses = []
        if slack[0] < 0:
            witnesses.append(ConeWitness((), "norm_lower", norm, lo))
        if slack[1] < 0:
            witnesses.append(ConeWitness((), "norm_upper", norm, hi))
        worst = float(slack.min())
        return ConeReport(worst >= 0, worst, tuple(witnesses), 1)

    pts = np.asarray(spec.probes, dtype=float) if spec.probes is not None else probe_points(spec.dim)
    radii = np.abs(pts) if pts.ndim == 1 else np.sqrt((pts**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = q.sample(pts, 2 if isinstance(spec, HyvarinenGrowth) else 0)
    vhat = s.value / mass

    worsts: list[float] = []
    witnesses: list[ConeWitness] = []
    if isinstance(spec, ShannonEnvelope):
        lower = spec.c1 * (1.0 + radii) ** (-spec.a)
        upper = spec.c2 * (1.0 + radii) ** (-(spec.dim + 1.0))
        w, ws = _collect(vhat - lower, pts, "lower_envelope", vhat, lower)
        worsts.append(w)
        witnesses += ws
        w, ws = _collect(upper - vhat, pts, "upper_envelope", vhat, upper)
        worsts.append(w)
        witnesses += ws
    elif isinstance(spec, HyvarinenGrowth):
        gnorm = np.abs(s.gradient) if spec.dim == 1 else np.sqrt((s.gradient**2).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(s.value > _RATIO_FLOOR, (gnorm + np.abs(s.laplacian)) / np.maximum(s.value, _RATIO_FLOOR), 0.0)
        growth = spec.c1 * (1.0 + radii) ** spec.k
        w, ws = _collect(growth - ratio, pts, "growth", ratio, growth)
        worsts.append(w)
        witnesses += ws
        upper = spec.c2 * (1.0 + radii) ** (-(spec.dim + 1.0 + spec.k**2))
        w, ws = _collect(upper - vhat, pts, "upper_envelope", vhat, upper)
        worsts.append(w)
        witnesses += ws
    else:  # pragma: no cover - exhaustive over spec kinds
        raise InvalidParameterError(f"unknown cone spec {spec!r}")

    worst = min(worsts)
    return ConeReport(worst >= 0, worst, tuple(witnesses[:_MAX_WITNESSES]), int(vhat.size))


def require_cone(q: Field, spec: ConeSpec, scheme=None):
    """Strict-mode gate: raise when ``q`` fails its cone check."""
    report = cone_check(q, spec, scheme=scheme)
    if not report.member:
        first = report.witnesses[0] if report.witnesses else None
        raise ConeMembershipError(
            f"density fails {spec.kind} cone check (worst residual {report.worst_residual:.3e}"
            + (f" at {first.point} [{first.constraint}]" if first else "")
            + ")"
        )
    return report
