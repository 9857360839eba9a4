"""The four scoring rules: one ``Rule`` record each, and the supremum's mode machinery.

Every rule is exposed in denormalised form: the entropy is 1-homogeneous,
the score is 0-homogeneous, and the divergence of the normalised pair is

    D(p, q) = entropy(p-hat) - expected_score(p-hat, q-hat),

which is nonnegative exactly when the score is a subgradient of the
entropy. Each call reads the rule's record in ``RULES``: it takes one node
set from ``pairing.nodes_for`` (the previous call's, when that was on the
same fields and scheme), samples each field there once to the record's
orders, with each leaf's mass kept beside its sample, refuses it by the
one policy ``_refusals`` reads from the record, and evaluates the record's
kernels on those arrays, each formula written once. A lone leaf's sample
keeps what ``_derived`` gets from it: its sign facts, each rule's entropy
and the latest rule's scores, read-only, so each runs once per sample and
lives as long as it; a kernel that raises keeps nothing. A kernel computes on
one fresh array in place, in its formula's operation order, and never
writes into a sample, which the node set keeps read-only. The
logarithmic and quadratic divergences are nonnegative to floating point;
the Hyvarinen case leans on integration by parts and the tail design of
:mod:`conescore.pairing`. The supremum record has no score kernel, so its
calls reach the mode machinery: ``_mode`` reads q once, on its grid node
set, into the mode set; ``_sup_pair`` pairs grid values with the
subgradient, cell-restricted on a plateau (exact for piecewise-linear
densities, so the plateau identities hold to 1e-12) and the argmax's value
in the Dirac regime, which has no integrable subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pairing
from .densities import ConeSpec, Field, GridInfo, GridPositive, HyvarinenGrowth, QuadraticNorm, Sample, ShannonEnvelope
from .errors import DomainError, InvalidParameterError, ModeMeasureZeroError, UnsupportedFamilyError, ZeroDensityError, ZeroMassError

__all__ = [
    "Rule",
    "RULES",
    "RULE_IDS",
    "canonical_rule",
    "default_cone_spec",
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

# mode detection tolerance: values within this relative margin of the grid
# maximum count as modal
DELTA_MODE = 1e-9

# floor inside logarithms; clamping where the paired density is above the
# support threshold is flagged, not silently absorbed
LOG_CLAMP = 1e-300


# ---------------------------------------------------------------------------
# the rule core: entropy, score and divergence kernels on sampled arrays
# ---------------------------------------------------------------------------

def _columns(g, v) -> tuple:
    """A gradient ``g`` of values ``v`` (or of rows of them) as its columns: itself in 1-D, its two in 2-D."""
    return (g,) if np.ndim(g) == np.ndim(v) else (g[..., 0], g[..., 1])


def _norm_sq(g, v, qf=None) -> np.ndarray:
    """|g|^2, or |g / qf|^2, on a new array, for gradients ``g`` of values ``v``, a column at a time.

    Dividing by q's floored values ``qf`` before squaring keeps |grad q / q|^2
    finite where |grad q|^2 and q^2 underflow.
    """
    t = None
    for c in _columns(g, v):
        if qf is not None:
            c = np.asarray(c / qf)  # 0-d at one point
        c = np.square(c, out=None if qf is None else c)
        t = c if t is None else np.add(t, c, out=t)
    return t


def _pair(name: str, w, pv, scores, support: float, finite: bool = False, kept: dict | None = None) -> float:
    """Raw pairing: the weighted sum of p S over the nodes.

    A non-finite score raises where |p| exceeds ``support`` and counts as
    zero elsewhere (the measure-zero convention 0 * inf = 0); a node where
    p = 0 adds +0.0 whatever its score. Scores known to be ``finite`` skip
    the first pass, and p's ``kept`` sign facts the second where p has no zero.
    """
    dead = None if finite else ~np.isfinite(scores)
    if dead is not None and dead.any() and np.any(np.abs(pv[dead]) > support):
        raise ZeroDensityError(f"{name} score blows up where p has support")
    with np.errstate(invalid="ignore"):  # 0 * inf at a dead node, zeroed next
        t = pv * scores
    if dead is not None:
        t[dead] = 0.0
    if kept is None or _signs(kept, pv)[1]:
        t[pv == 0] = 0.0
    t *= w
    return float(t.sum())


def _quiet(kernel: Callable) -> Callable:
    """``kernel`` without NumPy's divide and invalid warnings: the kernels mask the nodes where q vanishes."""
    return np.errstate(divide="ignore", invalid="ignore")(kernel)


# Each kernel computes its formula on one new array, in place and in the formula's operation order,
# and never writes into a sample: a node set keeps its samples read-only.
# Entropy kernels (w, s, m) give the entropy of sampled q of mass m, one per row for rows of samples.
# Score kernels (s, mass, w, ref, floor) give q's score at its sample ``s``, where ``ref`` is q's
# sample on the node set of weights ``w``, with q floored at ``floor`` in logarithms and ratios.
# Divergence kernels (w, ps, mp, qs, mq, diagnostics) give D(p, q) from both samples and masses.

@_quiet
def _log_ratio(qv, mass, floor: float = LOG_CLAMP) -> np.ndarray:
    t = np.asarray(np.maximum(qv, floor))  # 0-d at one point
    t /= mass
    return np.log(t, out=t)


@_quiet
def _log_entropy(w, s: Sample, m):
    v = s.value
    t = _log_ratio(v, np.expand_dims(m, -1))
    dead = ~(v > 0) | (t == -np.inf)  # and where q / m underflows to 0: q ln(q / m) is 0 to within m * 4e-321 there
    t *= v
    t[dead] = 0.0
    t *= w
    return t.sum(axis=-1)


@_quiet
def _log_divergence(w, ps: Sample, mp: float, qs: Sample, mq: float, diagnostics: dict | None) -> float:
    ph, qh = ps.value / mp, qs.value / mq
    if diagnostics is not None and bool(np.any((qh < LOG_CLAMP) & (ph > pairing.SUPPORT_THRESHOLD))):
        diagnostics["log_clamped"] = True
    t = np.maximum(ph, LOG_CLAMP)
    np.log(t, out=t)
    np.maximum(qh, LOG_CLAMP, out=qh)
    t -= np.log(qh, out=qh)
    del qh  # freed before the pairing's product
    return _pair("logarithmic", w, ph, t, pairing.SUPPORT_THRESHOLD)


@_quiet
def _hyvarinen_entropy(w, s: Sample, m):
    v = s.value
    with np.errstate(over="ignore"):
        t = _norm_sq(s.gradient, v)
        t /= np.maximum(v, LOG_CLAMP)
        t[~(v > 0)] = 0.0
        t *= w
        h = t.sum(axis=-1)
    bad = ~np.isfinite(h) & np.isfinite(m)  # a non-finite mass is refused as every rule refuses it
    if np.any(bad):  # inf, or nan from a gradient whose z-score overflowed
        raise DomainError(f"the hyvarinen entropy of q overflows: |grad q|^2 / q sums to {float(np.asarray(h)[bad].flat[0])!r}")
    return h


@_quiet
def _hyvarinen_score(s: Sample, mass, w, ref, floor: float):
    v = np.asarray(s.value)  # 0-d at one point
    qf = np.maximum(v, floor)
    g = _norm_sq(s.gradient, v, qf)  # before t, so three arrays are live at most
    t = np.asarray(np.multiply(s.laplacian, -2.0))
    t /= qf
    t += g
    t[~(v > 0)] = np.inf
    return t


def _quadratic_score(s: Sample, mass, w, ref, floor: float):
    with np.errstate(over="ignore"):
        q2, m2 = np.sum(w * ref.value**2), np.float64(mass) ** 2
    if not (np.isfinite(q2) and np.isfinite(m2)):
        raise DomainError(f"the quadratic score of q overflows: q.q = {float(q2)!r}, (q.1)^2 = {float(m2)!r}")
    if min(q2, m2) < np.finfo(float).tiny:  # q.q / (q.1)^2 would be 0 / 0, or a ratio of subnormals that lost digits
        raise DomainError(f"the quadratic score of q underflows: q.q = {float(q2)!r}, (q.1)^2 = {float(m2)!r}")
    t = np.asarray(np.multiply(s.value, 2.0))  # 0-d at one point
    t /= mass
    t -= q2 / m2
    return t


@_quiet
def _quadratic_entropy(w, s: Sample, m):
    with np.errstate(over="ignore"):
        q2 = (w * s.value**2).sum(axis=-1)
    if np.any(np.isinf(q2) & np.isfinite(m)):  # a non-finite mass is refused as every rule refuses it
        raise DomainError("the quadratic entropy of q overflows: q.q = inf")
    return q2 / m


def _quadratic_divergence(w, ps: Sample, mp: float, qs: Sample, mq: float, diagnostics: dict | None) -> float:
    t = ps.value / mp
    t -= qs.value / mq
    np.square(t, out=t)
    t *= w
    return float(t.sum())


def _fisher_divergence(w, ps: Sample, mp: float, qs: Sample) -> float:
    """The weighted sum of p |grad p/p - grad q/q|^2 over the nodes where p and q are positive, over p's mass."""
    pv, qv, t = ps.value, qs.value, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for gp, gq in zip(_columns(ps.gradient, pv), _columns(qs.gradient, qv)):  # three arrays live at most
            d, b = np.maximum(pv, LOG_CLAMP), np.maximum(qv, LOG_CLAMP)
            np.divide(gp, d, out=d)
            d -= np.divide(gq, b, out=b)
            del b
            np.square(d, out=d)
            t = d if t is None else np.add(t, d, out=t)
    t[~np.isfinite(t)] = 0.0
    t *= pv
    t[~((pv > 0) & (qv > 0))] = 0.0
    t *= w
    return float(t.sum() / mp)


@dataclass(frozen=True)
class Rule:
    """One scoring rule: everything the package decides by rule. One without a score kernel reaches the mode machinery."""

    name: str
    aliases: tuple[str, ...]  # what canonical_rule accepts for it, its name among them
    entropy_order: int  # the derivatives of q its entropy reads
    score_order: int  # the derivatives of q its score reads
    grids: bool  # it accepts grid fields
    analytic: bool  # it accepts non-grid fields
    positive: bool  # it refuses negative node values, and a strict score_at points where q vanishes
    massless: bool  # it refuses a nonpositive or non-finite mass
    strict: bool  # its divergence vanishes only at positively collinear pairs
    log_clamp: bool  # its expected score flags q clamped at LOG_CLAMP where p has support
    entropy: Callable
    score: Callable | None
    divergence: Callable | None  # None: entropy(p-hat) - p-hat . S(q-hat)
    cone: Callable[[int], ConeSpec]  # its report-only default cone in a dimension
    ratios: bool = False  # its score at a point reads only ratios to q's value there: score_at reads q.ratio_sample


# the default cones contain the seeded sampling families where the rule's cone admits them at all;
# Gaussians are *not* inside any power-law lower envelope, and the Shannon cone says so
RULES = {
    r.name: r
    for r in (
        Rule("logarithmic", ("log", "logarithmic"), 0, 0, grids=True, analytic=True, positive=True, massless=True, strict=True,
             log_clamp=True, cone=lambda dim: ShannonEnvelope(a=dim + 1, c1=1e-8, c2=1e3, dim=dim), divergence=_log_divergence,
             entropy=_log_entropy, score=lambda s, mass, w, ref, floor: _log_ratio(s.value, mass, floor)),
        Rule("hyvarinen", ("hyv", "hyvarinen"), 1, 2, grids=False, analytic=True, positive=True, massless=True, strict=True,
             log_clamp=False, cone=lambda dim: HyvarinenGrowth(c1=200.0, k=2.0, c2=1e5, dim=dim), divergence=None,
             entropy=_hyvarinen_entropy, score=_hyvarinen_score, ratios=True),
        Rule("quadratic", ("quad", "quadratic", "brier"), 0, 0, grids=True, analytic=True, positive=False, massless=True, strict=True,
             log_clamp=False, cone=lambda dim: QuadraticNorm(k1=0.1, k2=10.0, eps=0.05, dim=dim),
             divergence=_quadratic_divergence, entropy=_quadratic_entropy, score=_quadratic_score),
        Rule("supremum", ("sup", "supremum"), 0, 0, grids=True, analytic=False, positive=False, massless=False, strict=False,
             log_clamp=False, cone=lambda dim: GridPositive(dim=dim), divergence=None,
             entropy=lambda w, s, m: np.max(s.value, axis=-1), score=None),
    )
}
RULE_IDS = tuple(RULES)


def canonical_rule(name: str) -> str:
    key = str(name).strip().lower()
    for rule in RULES.values():
        if key in rule.aliases:
            return rule.name
    raise InvalidParameterError(f"unknown rule {name!r}; expected one of {sorted(a for r in RULES.values() for a in r.aliases)}")


def default_cone_spec(rule: str, dim: int = 1) -> ConeSpec:
    """The rule's report-only default cone in dimension ``dim``."""
    return RULES[canonical_rule(rule)].cone(dim)


def _require_family(rule: Rule | None, f: Field, label: str) -> None:
    """Refuse what a rule cannot read: grids where it reads exact derivatives, non-grids where it reads mode cells."""
    if rule is not None and f.grid is not None and not rule.grids:
        raise UnsupportedFamilyError(f"the {rule.name} rule needs exact derivatives of {label}; grid families do not provide them")
    if rule is not None and f.grid is None and not rule.analytic:
        raise UnsupportedFamilyError(f"the {rule.name} rule needs {label} on a grid; only grid families provide mode cells")


def _refusals(rule: Rule | None, negative: Callable[[], np.ndarray], mass: np.ndarray, label: str = "the field") -> list:
    """Per row of a sample and its ``mass``: the domain error refusing it, or None.

    The record says whether negative values, which ``negative()`` marks by row, and a
    nonpositive or non-finite mass are refused; None (a field that is only normalised)
    refuses the mass alone.
    """
    negative = negative() if rule is not None and rule.positive else np.zeros(mass.shape, bool)
    massless = ~(np.isfinite(mass) & (mass > 0)) & (rule is None or rule.massless)
    return [
        ZeroDensityError(f"{label} leaves the {rule.name} rule's nonnegative cone on the node set") if neg
        else ZeroMassError(f"{label} has {'nonpositive' if np.isfinite(m) else 'non-finite'} mass {m!r}") if empty
        else None
        for neg, empty, m in zip(negative.tolist(), massless.tolist(), mass.tolist())
    ]


def _derived(kept: dict | None, slot: str, tag, compute: Callable):
    """``compute()``, kept in ``slot`` of a lone leaf's ``kept`` results (None: not kept) unless held there for ``tag``."""
    if kept is None:
        return compute()
    held = kept.get(slot)
    if held is None or held[0] != tag:
        kept.pop(slot, None)  # the slot's last result is released before the next is computed
        held = kept[slot] = (tag, compute())
    return held[1]


def _signs(kept: dict | None, v: np.ndarray) -> tuple[bool, bool]:
    """Whether the values ``v`` hold a negative and whether they hold a zero: one pass where none is negative or nan."""

    def compute():
        least = v.min()
        return (False, bool(least == 0)) if least >= 0 else (bool(np.any(v < 0)), bool(np.any(v == 0)))

    return _derived(kept, "signs", None, compute)


def _sampled(rule: Rule | None, f: Field, ns: pairing.NodeSet, order: int, label: str) -> tuple[Sample, float, dict | None]:
    """``f``'s sample, mass and kept results on the node set, refused as ``_require_family`` and ``_refusals`` say."""
    _require_family(rule, f, label)
    s, mass, kept = ns.sampled(f, order)  # a mass past the float range is refused as non-finite
    (refusal,) = _refusals(rule, lambda: np.array([_signs(kept, s.value)[0]]), np.array([mass]), label)
    if refusal is not None:
        raise refusal
    return s, mass, kept


def _scored(rule: Rule, q: Field, ns: pairing.NodeSet) -> tuple[Sample, float, dict | None, np.ndarray, bool]:
    """q's sample, mass and kept results on the node set, its scores there, read-only, and whether all are finite."""
    s, mass, kept = _sampled(rule, q, ns, rule.score_order, "q")

    def compute():
        scores = rule.score(s, mass, ns.weights, s, LOG_CLAMP)
        scores.flags.writeable = False
        return scores, bool(np.isfinite(scores).all())

    return (s, mass, kept, *_derived(kept, "score", rule.name, compute))  # one rule's scores kept at a time


def _entropy(rule: Rule, w, s: Sample, mass: float, kept: dict | None) -> float:
    """The rule's entropy of the sample ``s`` of mass ``mass``, run once per lone leaf's sample."""
    return _derived(kept, rule.name, None, lambda: float(rule.entropy(w, s, mass)))


def _entropy_of(rule: Rule, ns: pairing.NodeSet, f: Field) -> float:
    """Entropy of one field on the node set, or the domain error refusing it."""
    return _entropy(rule, ns.weights, *_sampled(rule, f, ns, rule.entropy_order, "the field"))


def _row_entropies(rule: Rule, w, s: Sample) -> list:
    """Entropy of each row of a sample's rows: a float, or the domain error refusing the row."""
    mass = (w * s.value).sum(axis=-1)
    values = rule.entropy(w, s, mass).tolist()
    refusals = _refusals(rule, lambda: np.any(s.value < 0, axis=-1), mass)
    return [v if refusal is None else refusal for v, refusal in zip(values, refusals)]


# ---------------------------------------------------------------------------
# entropies and scores
# ---------------------------------------------------------------------------

def entropy(rule: str, q: Field, scheme: pairing.QuadratureScheme | None = None) -> float:
    """1-homogeneous entropy of the denormalised density ``q``.

    logarithmic: integral of q ln(q/(q.1)); hyvarinen: integral of
    |grad q|^2/q; quadratic: (q.1)^{-1} integral of q^2; supremum: max q
    on the grid.
    """
    return _entropy_of(RULES[canonical_rule(rule)], pairing.nodes_for(q, scheme), q)


def score_at(rule: str, q: Field, x, scheme: pairing.QuadratureScheme | None = None, strict: bool = True):
    """Score function of ``q`` evaluated at point(s) ``x``; 0-homogeneous.

    The logarithmic and Hyvarinen scores are undefined where q vanishes:
    ``strict`` raises :class:`ZeroDensityError` there, otherwise those
    points score -inf and +inf. The supremum rule returns the plateau
    subgradient value at ``x`` and raises :class:`ModeMeasureZeroError`
    in the Dirac regime.
    """
    rule = RULES[canonical_rule(rule)]
    if rule.score is None:
        return sup_subgradient(q).sample(x).value
    s = (q.ratio_sample if rule.ratios else q.sample)(x, rule.score_order)  # order 2: grid fields refuse it
    if strict and rule.positive and np.any(np.asarray(s.value) <= 0):
        raise ZeroDensityError(f"{rule.name} score undefined where q vanishes")
    ns = pairing.nodes_for(q, scheme)
    ref, mass, _ = _sampled(rule, q, ns, rule.score_order, "q")
    return np.asarray(rule.score(s, mass, ns.weights, ref, 0.0), dtype=float)[()]


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
    _require_family(RULES["supremum"], q, "q")
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
        _require_family(RULES["supremum"], f, label)
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
    ps, mp, _ = _sampled(None, p, _one_grid(p, q), 0, "p")
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
    rule = RULES[canonical_rule(rule)]
    if rule.score is None:
        return _sup_expected(p, q, diagnostics)[1]
    ns = pairing.nodes_for(p + q, scheme)
    ps, mp, kept = _sampled(None, p, ns, 0, "p")  # a direction: p may be signed
    qs, _, _, scores, finite = _scored(rule, q, ns)
    pv, support = ps.value, pairing.SUPPORT_THRESHOLD * mp
    if rule.log_clamp and diagnostics is not None and bool(np.any((qs.value < LOG_CLAMP) & (np.abs(pv) > support))):
        diagnostics["log_clamped"] = True
    return _pair(rule.name, ns.weights, pv, scores, support, finite, kept) / mp


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
    rule = RULES[canonical_rule(rule)]
    if rule.score is None:
        top, paired = _sup_expected(p, q, diagnostics)
        return top - paired
    ns = pairing.nodes_for(p + q, scheme)
    w = ns.weights
    ps, mp, kept = _sampled(rule, p, ns, rule.entropy_order, "p")
    if rule.divergence is not None:
        qs, mq, _ = _sampled(rule, q, ns, rule.score_order, "q")
        return rule.divergence(w, ps, mp, qs, mq, diagnostics)
    scores, finite = _scored(rule, q, ns)[3:]
    cross = _pair(rule.name, w, ps.value, scores, pairing.SUPPORT_THRESHOLD * mp, finite, kept)
    return _entropy(rule, w, ps, mp, kept) / mp - cross / mp


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
    ps, mp, _ = _sampled(RULES["hyvarinen"], p, ns, 1, "p")
    qs, _, _ = _sampled(RULES["hyvarinen"], q, ns, 1, "q")
    return _fisher_divergence(ns.weights, ps, mp, qs)


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
    rule = RULES[canonical_rule(rule)]
    if rule.score is None:
        mode, vals = _mode(q)  # its height is the entropy max q
        return abs(_sup_pair(vals, mode) - mode.height) / abs(mode.height)
    ns = pairing.nodes_for(q, scheme)
    s, mass, kept, scores, finite = _scored(rule, q, ns)
    phi = _entropy(rule, ns.weights, s, mass, kept)
    paired = _pair(rule.name, ns.weights, s.value, scores, pairing.SUPPORT_THRESHOLD * mass, finite, kept)
    denom = abs(phi) if abs(phi) > 0 else 1.0
    return abs(paired - phi) / denom
