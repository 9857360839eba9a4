"""Boundary pathologies of sublinear entropies, made executable.

Three phenomena live here. The binary Shannon entropy's gradient blows up
toward the boundary of the positive quadrant, so no subgradient exists at
boundary points. The positive cone of integrable functions is nowhere
dense: for any candidate center f and radius witness g built from dyadic
shell masses, f - alpha*g leaves the cone at a finite shell, for every
alpha. And the supremum entropy on a grid splits into two regimes: a
plateau mode set carries an integrable subgradient, a singleton mode set
does not, and any integrable candidate is defeated by a probe
concentrated away from the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import pairing, rules
from .densities import Field, GridDensity
from .errors import DomainError, InvalidParameterError, ModeMeasureZeroError, NoWitnessError

__all__ = [
    "BinaryShannon",
    "binary_shannon",
    "BlowupTrace",
    "boundary_blowup_trace",
    "DyadicSequence",
    "nowhere_dense_witness",
    "DichotomyCheck",
    "SupDichotomyReport",
    "sup_dichotomy_demo",
]


class BinaryShannon(NamedTuple):
    """Value and partial derivatives of the binary Shannon entropy."""

    value: float
    partials: tuple


def binary_shannon(x: float, y: float) -> BinaryShannon:
    """Binary Shannon entropy x ln(x/(x+y)) + y ln(y/(x+y)) and its partials.

    The value is 1-homogeneous and the partials (ln(x/(x+y)), ln(y/(x+y)))
    are 0-homogeneous. Defined on the open quadrant only: the partials
    diverge to -inf at the boundary, which is the point of the exercise.
    """
    x, y = float(x), float(y)
    if not (x > 0 and y > 0 and np.isfinite(x) and np.isfinite(y)):
        raise DomainError(f"binary entropy needs positive finite arguments, got ({x!r}, {y!r})")
    s = x + y
    px = math.log(x / s)
    py = math.log(y / s)
    return BinaryShannon(x * px + y * py, (px, py))


@dataclass(frozen=True)
class BlowupTrace:
    """Partials of the binary entropy along a path to the boundary."""

    xs: tuple
    y0: float
    partials: tuple
    strictly_decreasing: bool
    threshold: float | None
    crossed_at: int | None

    def final(self) -> float:
        return self.partials[-1]


def boundary_blowup_trace(
    xs: Sequence[float],
    y0: float = 1.0,
    threshold: float | None = None,
) -> BlowupTrace:
    """Trace d/dx of the binary entropy along (x_k, y0) with x_k decreasing to 0.

    Records whether the partials decrease strictly and, when a threshold
    is given, the first index where they pass below it (None if never).
    """
    xs = tuple(float(x) for x in xs)
    if not xs or any(x <= 0 for x in xs):
        raise InvalidParameterError("path abscissae must be positive")
    if any(a <= b for a, b in zip(xs, xs[1:])):
        raise InvalidParameterError("path abscissae must decrease strictly")
    partials = tuple(binary_shannon(x, y0).partials[0] for x in xs)
    decreasing = all(b < a for a, b in zip(partials, partials[1:]))
    crossed = None
    if threshold is not None:
        below = [i for i, v in enumerate(partials) if v < threshold]
        crossed = below[0] if below else None
    return BlowupTrace(xs, float(y0), partials, decreasing, threshold, crossed)


@dataclass(frozen=True)
class DyadicSequence:
    """Dyadic shell masses a_k with tails r_k and the comparison scale b_k.

    ``a`` holds the shell masses of the cone element f, ``r`` the tail
    sums of a candidate neighborhood center, and ``b = a / sqrt(r)`` the
    shell masses of the witness direction g. The sum of b converging while
    a/b -> 0 is what defeats every neighborhood radius alpha.
    """

    a: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if a.ndim != 1 or a.size == 0 or a.shape != r.shape:
            raise InvalidParameterError("a and r must be equal-length nonempty vectors")
        if np.any(a <= 0) or not np.all(np.isfinite(a)):
            raise InvalidParameterError("shell masses must be positive and finite")
        if np.any(r <= 0) or np.any(np.diff(r) >= 0):
            raise InvalidParameterError("tails must be positive and strictly decreasing")
        if np.any(r[:-1] - r[1:] < a[:-1] * (1.0 - 1e-9)):
            raise InvalidParameterError("tails must dominate their shell masses: r_k - r_{k+1} = a_k")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)

    @classmethod
    def geometric(cls, ratio: float = 0.5, size: int = 200) -> "DyadicSequence":
        """a_k = ratio^k with exact infinite tails r_k = a_k/(1-ratio)."""
        if not 0 < ratio < 1:
            raise InvalidParameterError("ratio must lie in (0, 1)")
        if size < 1:
            raise InvalidParameterError("size must be positive")
        k = np.arange(size)
        a = ratio**k
        return cls(a, a / (1.0 - ratio))

    @property
    def b(self) -> np.ndarray:
        return self.a / np.sqrt(self.r)

    def b_partial_sums(self) -> np.ndarray:
        return np.cumsum(self.b)


def nowhere_dense_witness(seq: DyadicSequence, alphas: Sequence[float]) -> list[tuple[float, int]]:
    """First shell index where a_k - alpha*b_k turns negative, per alpha.

    A negative shell mass means f - alpha*g has left the positive cone,
    so the candidate ball of radius alpha around f is not contained in
    it. Since a_k/b_k = sqrt(r_k) -> 0, a witness exists for every alpha;
    not finding one only means the truncation is too short, which raises
    :class:`NoWitnessError`.
    """
    ratios = seq.a / seq.b
    out = []
    for alpha in alphas:
        alpha = float(alpha)
        if alpha <= 0:
            raise InvalidParameterError("alpha must be positive")
        hits = np.flatnonzero(ratios < alpha)
        if hits.size == 0:
            raise NoWitnessError(
                f"no shell with a_k < {alpha}*b_k within {seq.a.size} shells; extend the truncation"
            )
        out.append((alpha, int(hits[0])))
    return out


@dataclass(frozen=True)
class DichotomyCheck:
    label: str
    lhs: float
    rhs: float
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class SupDichotomyReport:
    """Outcome of the supremum-subgradient dichotomy on one grid density."""

    regime: str
    mode_measure: float
    height: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "mode_measure": self.mode_measure,
            "height": self.height,
            "checks": [
                {
                    "label": c.label,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "pass": bool(c.passed),
                    **({"note": c.note} if c.note is not None else {}),
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }


def _probe_densities(grid, count: int, seed: int) -> list[GridDensity]:
    rng = np.random.default_rng([seed, 31])
    x = grid.points()
    span = grid.hi - grid.lo
    probes = []
    for _ in range(count):
        center = rng.uniform(grid.lo, grid.hi)
        width = rng.uniform(0.05, 0.3) * span
        u = np.clip(np.abs(x - center) / width, 0.0, 1.0)
        vals = rng.uniform(0.05, 0.3) + rng.uniform(0.5, 2.0) * (1.0 - u) ** 2
        probes.append(GridDensity(grid.lo, grid.hi, vals))
    return probes


def _dirac_candidates(qv: np.ndarray, w: np.ndarray, mode: rules.ModeSet) -> list[tuple[str, np.ndarray]]:
    """Integrable subgradient candidates to defeat in the Dirac regime, from q's grid values and weights."""
    grid = mode.grid
    off = (np.abs(grid.points() - mode.argmax) > 4 * grid.spacing).astype(float)
    shapes = [("uniform", np.ones(grid.n)), ("proportional-to-q", qv), ("off-mode-indicator", off)]
    return [(label, g / float(np.sum(w * g))) for label, g in shapes]


def sup_dichotomy_demo(q: Field, n_probes: int = 20, seed: int = 42) -> SupDichotomyReport:
    """Demonstrate the subgradient existence dichotomy for the sup entropy.

    Positive mode measure: build the plateau subgradient q* and check
    q.q* = max q exactly and p.q* <= max p on probe densities. Measure
    zero: report the Dirac regime and defeat each integrable candidate
    g by a probe concentrated where g carries mass away from the mode,
    violating the subgradient inequality p.g <= derivative along p.
    """
    mode, qv = rules._mode(q)
    grid, ns = mode.grid, pairing.nodes_for(q)
    checks: list[DichotomyCheck] = []
    if mode.measure > 0:
        paired = rules._sup_pair(qv, mode)
        checks.append(
            DichotomyCheck(
                "euler-pairing",
                paired,
                mode.height,
                abs(paired - mode.height) <= 1e-12 * max(1.0, mode.height),
            )
        )
        for i, p in enumerate(_probe_densities(grid, n_probes, seed)):
            pv = ns.sample(p).value
            lhs, rhs = rules._sup_pair(pv, mode), float(np.max(pv))
            checks.append(DichotomyCheck(f"probe{i:02d}-support", lhs, rhs, lhs <= rhs + 1e-12))
        return SupDichotomyReport("integrable-subgradient", mode.measure, mode.height, tuple(checks))

    try:
        rules.ModeIndicator(mode)
        checks.append(DichotomyCheck("no-subgradient", 0.0, 0.0, False, note="construction unexpectedly succeeded"))
    except ModeMeasureZeroError:
        checks.append(
            DichotomyCheck(
                "no-subgradient",
                0.0,
                0.0,
                True,
                note="measure-zero mode set: subgradient construction refused",
            )
        )
    pts, w = ns.points, ns.weights
    width = max(4 * grid.spacing, 0.02 * (grid.hi - grid.lo))
    # probes are centered where their candidate carries mass, strictly off the mode so that their derivative along
    # the sup entropy vanishes; a grid with no node that far out has no such probe, and one that has gives every candidate mass
    allowed = np.abs(pts - mode.argmax) > width + 2 * grid.spacing
    for label, gvals in _dirac_candidates(qv, w, mode) if allowed.any() else ():
        center = pts[int(np.argmax(np.where(allowed, gvals, -np.inf)))]
        u = np.clip(np.abs(pts - center) / width, 0.0, 1.0)
        pv = (1.0 - u) ** 2
        mp = float(np.sum(w * pv))
        lhs = float(np.sum(w * pv * gvals)) / mp
        rhs = rules._sup_pair(pv, mode) / mp
        checks.append(
            DichotomyCheck(
                f"defeats-{label}",
                lhs,
                rhs,
                lhs > rhs,
                note="probe pairing exceeds the directional derivative at the mode",
            )
        )
    return SupDichotomyReport("dirac", mode.measure, mode.height, tuple(checks))
