"""The four scoring rules: entropies, scores, divergences, mode machinery.

Every rule is exposed in denormalised form: the entropy is 1-homogeneous,
the score is 0-homogeneous, and the divergence of the normalised pair is

    D(p, q) = entropy(p-hat) - expected_score(p-hat, q-hat),

which is nonnegative exactly when the score is a subgradient of the
entropy. Each call builds one node set, samples each field there once to
the order ``_ENTROPY_ORDER`` or ``_SCORE_ORDER`` names, refuses it by the
one policy ``_refusals``, and evaluates one kernel: ``_entropy`` (per row
too, for the entropy lines of :mod:`conescore.convexity`), ``_score`` on
the inputs ``_scored`` gathers, and the pairing ``_pair`` write each
formula once, on one discrete measure. The logarithmic and quadratic
divergences reduce to discrete Jensen (or a discrete squared distance) and
are nonnegative to floating point, while the Hyvarinen case leans on the
integration-by-parts identity and the tail design of :mod:`conescore.pairing`.

The supremum rule lives on grid densities: ``_require_family`` refuses any
other field for it where it refuses grids for the Hyvarinen rule. ``_mode``
reads q once, on its grid node set, into the mode set; ``_sup_pair`` pairs
grid values with the subgradient, cell-restricted on a plateau (exact for
piecewise-linear densities against the piecewise-constant 1_M / mu(M), so
the plateau identities hold to 1e-12, not to grid resolution) and the value
at the argmax in the Dirac regime, which has no integrable subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairing
from .densities import Field, GridInfo, Sample
from .errors import (
    InvalidParameterError,
    ModeMeasureZeroError,
    UnsupportedFamilyError,
    ZeroDensityError,
    ZeroMassError,
)

__all__ = [
    "RULE_IDS",
    "SMOOTH_RULES",
    "canonical_rule",
    "DELTA_MODE",
    "LOG_CLAMP",
    "entropy",
    "score_at",
    "expected_score",
    "divergence",
    "hyvarinen_divergence_direct",
    "ModeSet",
    "ModeIndicator",
    "mode_set",
    "sup_subgradient",
    "mode_pairing",
    "euler_residual",
]

# the rules certified on analytic densities; the supremum rule needs a grid
SMOOTH_RULES = ("logarithmic", "hyvarinen", "quadratic")
RULE_IDS = SMOOTH_RULES + ("supremum",)

_ALIASES = {
    "log": "logarithmic",
    "logarithmic": "logarithmic",
    "hyv": "hyvarinen",
    "hyvarinen": "hyvarinen",
    "quad": "quadratic",
    "quadratic": "quadratic",
    "brier": "quadratic",
    "sup": "supremum",
    "supremum": "supremum",
}

# mode detection tolerance: values within this relative margin of the grid
# maximum count as modal
DELTA_MODE = 1e-9

# floor inside logarithms; clamping where the paired density is above the
# support threshold is flagged, not silently absorbed
LOG_CLAMP = 1e-300


def canonical_rule(name: str) -> str:
    key = str(name).strip().lower()
    if key not in _ALIASES:
        raise InvalidParameterError(f"unknown rule {name!r}; expected one of {sorted(set(_ALIASES))}")
    return _ALIASES[key]


def _require_family(rule: str | None, f: Field, label: str) -> None:
    """Refuse what a rule cannot read: grids for the Hyvarinen rule's exact derivatives, non-grids for the supremum's mode cells."""
    if rule == "hyvarinen" and f.grid is not None:
        raise UnsupportedFamilyError(f"the hyvarinen rule needs exact derivatives of {label}; grid families do not provide them")
    if rule == "supremum" and f.grid is None:
        raise UnsupportedFamilyError(f"the supremum rule needs {label} on a grid; only grid families provide mode cells")


def _refusals(rule: str | None, values: np.ndarray, mass: np.ndarray, label: str = "the field") -> list:
    """Per row of sampled ``values`` and its ``mass``: the domain error refusing it, or None.

    The log and Hyvarinen rules refuse negative values. All rules but the supremum, and None
    (a field that is only normalised), refuse a nonpositive or non-finite mass.
    """
    negative = np.any(values < 0, axis=-1) if rule in ("logarithmic", "hyvarinen") else np.zeros(mass.shape, bool)
    massless = ~(np.isfinite(mass) & (mass > 0)) & (rule != "supremum")
    return [
        ZeroDensityError(f"{label} leaves the {rule} rule's nonnegative cone on the node set") if neg
        else ZeroMassError(f"{label} has nonpositive mass {m!r}") if empty
        else None
        for neg, empty, m in zip(negative.tolist(), massless.tolist(), mass.tolist())
    ]


def _sampled(rule: str | None, f: Field, ns: pairing.NodeSet, order: int, label: str) -> tuple[Sample, float]:
    """``f``'s sample and mass on the node set, refused as ``_require_family`` and ``_refusals`` say."""
    _require_family(rule, f, label)
    s = ns.sample(f, order)
    mass = float((ns.weights * s.value).sum())
    (refusal,) = _refusals(rule, s.value[None], np.array([mass]), label)
    if refusal is not None:
        raise refusal
    return s, mass


# ---------------------------------------------------------------------------
# the rule core: entropy, score and pairing on sampled arrays
# ---------------------------------------------------------------------------

# derivatives of q that each rule's entropy, and each smooth rule's score, reads
_ENTROPY_ORDER = {"logarithmic": 0, "hyvarinen": 1, "quadratic": 0, "supremum": 0}
_SCORE_ORDER = {"logarithmic": 0, "hyvarinen": 2, "quadratic": 0}


def _norm_sq(s: Sample) -> np.ndarray:
    """|gradient|^2 of a sample (or of rows of samples) in 1-D or 2-D."""
    g = s.gradient
    return g**2 if np.ndim(g) == np.ndim(s.value) else g[..., 0] ** 2 + g[..., 1] ** 2


def _log_gradient(s: Sample, floor: float = LOG_CLAMP) -> Sample:
    """grad q / q with q floored at ``floor``, as the gradient of a sample.

    Dividing before squaring keeps |grad q / q|^2 finite where |grad q|^2
    and q^2 underflow.
    """
    g, qf = s.gradient, np.maximum(s.value, floor)
    return Sample(s.value, g / (qf if np.ndim(g) == np.ndim(qf) else np.expand_dims(qf, -1)))


def _scored(rule: str, q: Field, ns: pairing.NodeSet) -> tuple[Sample, float, float | None]:
    """What ``_score`` reads of q on the node set: its sample, its mass, and q.q for the quadratic rule (else None)."""
    s, mass = _sampled(rule, q, ns, _SCORE_ORDER[rule], "q")
    return s, mass, float(np.sum(ns.weights * s.value**2)) if rule == "quadratic" else None


def _entropy(rule: str, w, s: Sample, mass):
    """Entropy of sampled q; rows of samples give one entropy per row.

    ``mass`` has the shape of the result: a float, or one mass per row.
    """
    qv = s.value
    if rule == "supremum":
        return np.max(qv, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if rule == "logarithmic":
            terms = np.where(qv > 0, qv * _score(rule, s, np.expand_dims(mass, -1)), 0.0)
        elif rule == "hyvarinen":
            terms = np.where(qv > 0, _norm_sq(s) / np.maximum(qv, LOG_CLAMP), 0.0)
        else:
            return (w * qv**2).sum(axis=-1) / mass
    return (w * terms).sum(axis=-1)


def _score(rule: str, s: Sample, mass, q2: float | None = None, floor: float = LOG_CLAMP):
    """Score of q at its sampled points; ``mass`` (and ``q2`` = q.q) come from q's node set.

    Inside logarithms and ratios q is floored at ``floor``; the Hyvarinen
    score is +inf where q vanishes.
    """
    qv = s.value
    if rule == "quadratic":
        return 2.0 * qv / mass - q2 / mass**2
    with np.errstate(divide="ignore", invalid="ignore"):
        qf = np.maximum(qv, floor)
        if rule == "logarithmic":
            return np.log(qf / mass)
        return np.where(qv > 0, -2.0 * s.laplacian / qf + _norm_sq(_log_gradient(s, floor)), np.inf)


def _pair(rule: str, w, pv, scores, support: float) -> float:
    """Raw pairing: the weighted sum of p S over the nodes.

    A non-finite score raises where |p| exceeds ``support`` and counts as
    zero elsewhere (the measure-zero convention 0 * inf = 0).
    """
    live = np.isfinite(scores)
    if np.any(~live & (np.abs(pv) > support)):
        raise ZeroDensityError(f"{rule} score blows up where p has support")
    return float(np.sum(w * np.where(live & (pv != 0), pv * np.where(live, scores, 0.0), 0.0)))


def _entropy_of(rule: str, ns: pairing.NodeSet, f: Field) -> float:
    """Entropy of one field on the node set, or the domain error refusing it."""
    s, mass = _sampled(rule, f, ns, _ENTROPY_ORDER[rule], "the field")
    return float(_entropy(rule, ns.weights, s, mass))


def _row_entropies(rule: str, w, s: Sample) -> list:
    """Entropy of each row of a sample's rows: a float, or the domain error refusing the row."""
    mass = (w * s.value).sum(axis=-1)
    values = _entropy(rule, w, s, mass).tolist()
    return [v if refusal is None else refusal for v, refusal in zip(values, _refusals(rule, s.value, mass))]


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def entropy(rule: str, q: Field, scheme: pairing.QuadratureScheme | None = None) -> float:
    """1-homogeneous entropy of the denormalised density ``q``.

    logarithmic: integral of q ln(q/(q.1)); hyvarinen: integral of
    |grad q|^2/q; quadratic: (q.1)^{-1} integral of q^2; supremum: max q
    on the grid.
    """
    return _entropy_of(canonical_rule(rule), pairing.nodes_for(q, scheme), q)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def score_at(rule: str, q: Field, x, scheme: pairing.QuadratureScheme | None = None, strict: bool = True):
    """Score function of ``q`` evaluated at point(s) ``x``; 0-homogeneous.

    The logarithmic and Hyvarinen scores are undefined where q vanishes:
    ``strict`` raises :class:`ZeroDensityError` there, otherwise those
    points score -inf and +inf. The supremum rule returns the plateau
    subgradient value at ``x`` and raises :class:`ModeMeasureZeroError`
    in the Dirac regime.
    """
    rule = canonical_rule(rule)
    if rule == "supremum":
        return sup_subgradient(q).sample(x).value
    s = q.sample(x, _SCORE_ORDER[rule])  # order 2: grid fields refuse it
    if strict and rule != "quadratic" and np.any(np.asarray(s.value) <= 0):
        raise ZeroDensityError(f"{rule} score undefined where q vanishes")
    _, mass, q2 = _scored(rule, q, pairing.nodes_for(q, scheme))
    return np.asarray(_score(rule, s, mass, q2, floor=0.0), dtype=float)[()]


# ---------------------------------------------------------------------------
# mode machinery for the supremum rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeSet:
    """Where a grid density attains its maximum, as closed grid cells.

    ``region`` lists merged intervals of cells whose *both* endpoints are
    within the relative tolerance of the maximum; ``measure`` is their
    total length. An isolated modal point contributes no cell, so a strict
    unimodal peak has measure zero (the Dirac regime).
    """

    region: tuple
    measure: float
    height: float
    argmax: float
    cells: tuple
    grid: GridInfo


def _modal(vals: np.ndarray) -> np.ndarray:
    """Mask of the values within relative tolerance ``DELTA_MODE`` of their maximum."""
    return vals >= np.max(vals) * (1.0 - DELTA_MODE)


def mode_set(q: Field) -> ModeSet:
    """Mode cells of a grid density: both cell ends within relative tolerance ``DELTA_MODE`` of the maximum."""
    return _mode(q)[0]


def _mode(q: Field) -> tuple[ModeSet, np.ndarray]:
    """mode_set, and q's values on its grid node set, from which it was read: the one read of q."""
    _require_family("supremum", q, "q")
    grid, ns = q.grid, pairing.nodes_for(q)
    pts, vals = ns.points, ns.sample(q).value
    vmax = float(np.max(vals))
    if vmax <= 0:
        raise ZeroMassError("grid density has no positive values")
    modal = _modal(vals)
    cells = np.flatnonzero(modal[:-1] & modal[1:])
    measure = grid.spacing * cells.size
    runs = np.split(cells, np.flatnonzero(np.diff(cells) != 1) + 1)  # cells of consecutive indices
    region = tuple((float(pts[r[0]]), float(pts[r[-1] + 1])) for r in runs if r.size)
    return ModeSet(
        region=region,
        measure=float(measure),
        height=vmax,
        argmax=float(pts[int(np.argmax(vals))]),
        cells=tuple(int(i) for i in cells),
        grid=grid,
    ), vals


@dataclass(frozen=True, eq=False)
class ModeIndicator(Field):
    """Plateau subgradient 1_M / mu(M) of the supremum entropy."""

    mode: ModeSet

    dim = 1

    def __post_init__(self):
        if self.mode.measure <= 0:
            raise ModeMeasureZeroError(
                "mode set has measure zero; the supremum entropy has no "
                "density-integrable subgradient there (Dirac regime)"
            )

    @property
    def grid(self) -> GridInfo:
        return self.mode.grid

    def sample(self, x, order: int = 0) -> Sample:
        if order >= 1:
            raise UnsupportedFamilyError("mode indicators have no gradient or Laplacian")
        a = np.asarray(x, dtype=float)
        scalar = a.ndim == 0
        pts = np.atleast_1d(a)
        inside = np.zeros(pts.shape, dtype=bool)
        for lo, hi in self.mode.region:
            inside |= (pts >= lo) & (pts <= hi)
        vals = np.where(inside, 1.0 / self.mode.measure, 0.0)
        return Sample(float(vals[0]) if scalar else vals)


def sup_subgradient(q: Field) -> ModeIndicator:
    """Subgradient of the supremum entropy at a grid density.

    Only exists when the mode set has positive measure; a measure-zero
    mode set raises :class:`ModeMeasureZeroError`, mirroring the
    nonexistence of a density-integrable subgradient in that regime.
    """
    return ModeIndicator(mode_set(q))


def mode_pairing(p: Field, mode: ModeSet) -> float:
    """Raw pairing p . (1_M / mu(M)) by cell-restricted trapezoid.

    Exact for the piecewise-linear grid interpolant of ``p`` against the
    piecewise-constant subgradient: the result is a convex combination of
    node values of ``p``, which is what makes q.q* = max q and
    p.q* <= max p hold to floating point.
    """
    if mode.measure <= 0:
        raise ModeMeasureZeroError("mode set has measure zero; no pairing is defined")
    return _sup_pair(_one_grid(p, mode).sample(p).value, mode)


def _one_grid(p: Field, q) -> pairing.NodeSet:
    """p's grid node set, which q (a field or a mode set) must share; a field off a grid is refused as the supremum rule refuses it."""
    for f, label in ((q, "q"), (p, "p")):
        _require_family("supremum", f, label)
    if p.grid != q.grid:
        raise InvalidParameterError("p and q live on different grids")
    return pairing.nodes_for(p)


def _sup_pair(values: np.ndarray, mode: ModeSet) -> float:
    """Raw pairing of grid values with the sup subgradient: cell-restricted on a plateau, the argmax's value in the Dirac regime."""
    if mode.measure <= 0:
        return float(np.interp(mode.argmax, mode.grid.points(), values))  # the argmax is a node: its value, exactly
    cells = np.asarray(mode.cells, dtype=int)
    cell_means = 0.5 * (values[cells] + values[cells + 1])
    return float(mode.grid.spacing * np.sum(cell_means) / mode.measure)


# ---------------------------------------------------------------------------
# expectations and divergences on shared node sets
# ---------------------------------------------------------------------------

def _sup_expected(p: Field, q: Field, diagnostics: dict | None) -> tuple[float, float]:
    """max p-hat and the sup expectation p-hat . S(q-hat): plateau pairing, or Dirac evaluation."""
    ps, mp = _sampled(None, p, _one_grid(p, q), 0, "p")
    mode, _ = _mode(q)
    if mode.measure <= 0 and diagnostics is not None:
        diagnostics["dirac"] = True
        diagnostics["note"] = "measure-zero mode set: point evaluation p(x0), not P-integrable"
    return float(np.max(ps.value) / mp), _sup_pair(ps.value, mode) / mp


def expected_score(
    rule: str,
    p: Field,
    q: Field,
    scheme: pairing.QuadratureScheme | None = None,
    diagnostics: dict | None = None,
) -> float:
    """Expected score p-hat . S(q-hat), reported per unit mass of ``p``.

    Both densities are sampled once on one shared node set. ``diagnostics``
    (a dict, mutated in place) collects the log-clamp flag and the Dirac
    flag of the supremum rule.
    """
    rule = canonical_rule(rule)
    if rule == "supremum":
        return _sup_expected(p, q, diagnostics)[1]
    ns = pairing.nodes_for(p + q, scheme)
    ps, mp = _sampled(None, p, ns, 0, "p")  # a direction: p may be signed
    qs, mq, q2 = _scored(rule, q, ns)
    pv, support = ps.value, pairing.SUPPORT_THRESHOLD * mp
    if rule == "logarithmic" and diagnostics is not None and bool(np.any((qs.value < LOG_CLAMP) & (np.abs(pv) > support))):
        diagnostics["log_clamped"] = True
    return _pair(rule, ns.weights, pv, _score(rule, qs, mq, q2), support) / mp


def divergence(
    rule: str,
    p: Field,
    q: Field,
    scheme: pairing.QuadratureScheme | None = None,
    diagnostics: dict | None = None,
) -> float:
    """Divergence D(p, q) = entropy(p-hat) - p-hat . S(q-hat), on shared nodes.

    Nonnegative for all four rules; zero at p = q and, for the strict
    rules, only at positively collinear pairs. The logarithmic and
    quadratic cases pair p-hat with the score difference S(p-hat) - S(q-hat)
    and sum (p-hat - q-hat)^2, which are nonnegative to floating point.
    """
    rule = canonical_rule(rule)
    if rule == "supremum":
        top, paired = _sup_expected(p, q, diagnostics)
        return top - paired
    ns = pairing.nodes_for(p + q, scheme)
    w = ns.weights
    ps, mp = _sampled(rule, p, ns, _ENTROPY_ORDER[rule], "p")
    qs, mq = _sampled(rule, q, ns, _SCORE_ORDER[rule], "q")
    if rule == "hyvarinen":
        cross = _pair(rule, w, ps.value, _score(rule, qs, mq), pairing.SUPPORT_THRESHOLD * mp)
        return float(_entropy(rule, w, ps, mp)) / mp - cross / mp
    ph, qh = ps.value / mp, qs.value / mq
    if rule == "quadratic":
        return float(np.sum(w * (ph - qh) ** 2))
    if diagnostics is not None and bool(np.any((qh < LOG_CLAMP) & (ph > pairing.SUPPORT_THRESHOLD))):
        diagnostics["log_clamped"] = True
    log_ratio = _score(rule, Sample(ph), 1.0) - _score(rule, Sample(qh), 1.0)
    return _pair(rule, w, ph, log_ratio, pairing.SUPPORT_THRESHOLD)


def hyvarinen_divergence_direct(
    p: Field,
    q: Field,
    scheme: pairing.QuadratureScheme | None = None,
) -> float:
    """Fisher divergence: integral of |grad p/p - grad q/q|^2 p-hat.

    Must agree with divergence('hyvarinen', p, q) up to the surface term;
    the agreement is the integration-by-parts identity.
    """
    ns = pairing.nodes_for(p + q, scheme)
    ps, mp = _sampled("hyvarinen", p, ns, 1, "p")
    qs, _ = _sampled("hyvarinen", q, ns, 1, "q")
    live = (ps.value > 0) & (qs.value > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff2 = _norm_sq(Sample(ps.value, _log_gradient(ps).gradient - _log_gradient(qs).gradient))
    terms = np.where(live, ps.value * np.where(np.isfinite(diff2), diff2, 0.0), 0.0)
    return float(np.sum(ns.weights * terms) / mp)


# ---------------------------------------------------------------------------
# Euler identity
# ---------------------------------------------------------------------------

def euler_residual(rule: str, q: Field, scheme: pairing.QuadratureScheme | None = None) -> float:
    """Relative Euler residual |q.S(q) - entropy(q)| / |entropy(q)|.

    Score and entropy read one sample of q on one node set, so the
    residual measures the homogeneous-function identity, not quadrature
    disagreement. For the supremum rule the pairing is the cell-restricted
    one (plateau regime) or the Dirac evaluation q(x0) (measure-zero
    regime); both reproduce max q.
    """
    rule = canonical_rule(rule)
    if rule == "supremum":
        mode, vals = _mode(q)  # its height is the entropy max q
        return abs(_sup_pair(vals, mode) - mode.height) / abs(mode.height)
    ns = pairing.nodes_for(q, scheme)
    s, mass, q2 = _scored(rule, q, ns)
    phi = float(_entropy(rule, ns.weights, s, mass))
    scores = _score(rule, s, mass, q2)
    paired = _pair(rule, ns.weights, s.value, scores, pairing.SUPPORT_THRESHOLD * mass)
    denom = abs(phi) if abs(phi) > 0 else 1.0
    return abs(paired - phi) / denom
