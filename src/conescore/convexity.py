"""Directional derivatives of entropies and the certification suites.

The finite-difference engine works on a *frozen* node set: the entropy
callbacks produced by :func:`entropy_line` discretise the entropy once,
on nodes covering every field the caller will touch, sample each field
there once, and evaluate ``FD_STEPS`` (2^-3 ... 2^-18), the only step
schedule, in one pass as blocks of (steps x nodes) rows: one quotient
routine, given the side's sign, reads the whole schedule for both
one-sided estimators (Richardson order k = 1), the Gateaux check the
symmetric quotients at its last two steps (k = 2). The
discretised entropy is genuinely convex and homogeneous on that measure,
so right difference quotients are nonincreasing to floating point,
Richardson extrapolation is safe, and the quotient trace doubles as a
convexity certificate rather than a quadrature diagnostic.

Suites return :class:`VerificationReport`, a plain record of per-case
residuals and tolerances with a deterministic JSON form: two runs with
the same seed and scheme produce byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import pairing, rules, sampling
from .densities import (
    Bump,
    Combination,
    Field,
    GridDensity,
    Sample,
    cone_check,
)
from .errors import (
    ConescoreError,
    DomainError,
    InfeasibleStepError,
    InvalidParameterError,
    OneSidedOnlyError,
    ZeroMassError,
)

__all__ = [
    "FD_STEPS",
    "TOL_FD",
    "MONOTONE_SLACK",
    "DerivativeEstimate",
    "TwoSidedDerivative",
    "CaseResult",
    "VerificationReport",
    "entropy_line",
    "right_directional_derivative",
    "left_directional_derivative",
    "two_sided_derivative",
    "analytic_directional_derivative",
    "derivative_against_closed_form",
    "certify_sublinearity",
    "certify_directional_derivatives",
    "gateaux_check",
    "run_suite",
    "SUITES",
]

# the step schedule of every estimator, t_j = 2^-j, j = 3..18; halving steps
# make the Richardson step 2*Q(t) - Q(2t) exact through the linear error term
FD_STEPS = tuple(2.0**-j for j in range(3, 19))

TOL_FD = 1e-5

# allowed floating-point slack when counting quotient-monotonicity breaks
MONOTONE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# frozen-node entropy lines
# ---------------------------------------------------------------------------

# elements (steps x nodes) per evaluated block: bounds the temporaries of
# one pass, so a 65,536-node 2-D line runs one step at a time
_BLOCK_ELEMENTS = 2**15


def entropy_line(rule: str, *fields: Field, scheme: pairing.QuadratureScheme | None = None) -> Callable[[Field], float]:
    """Entropy callback discretised on one node set covering ``fields``.

    The returned callable evaluates the rule's entropy of any field by
    restriction to the frozen nodes, where the node set samples each leaf
    field once (values, and gradients for the Hyvarinen rule). Its attribute
    ``along(q, p, ts)`` evaluates a whole step schedule as qs + t ps in
    blocks of steps and returns, per step, a float or the domain error the
    callable would raise, refused as the rules refuse it; ``nodes`` is that
    node set, which holds the samples and the quadrature weights.
    """
    rule = rules.RULES[rules.canonical_rule(rule)]
    cover = fields[0] if len(fields) == 1 else Combination((1.0,) * len(fields), fields)
    rules._require_family(rule, cover, "the line's fields")
    ns = pairing.nodes_for(cover, scheme)
    order = rule.entropy_order

    def along(q: Field, p: Field, ts: Sequence[float]) -> list:
        qs, ps, ts = ns.sample(q, order)[: order + 1], ns.sample(p, order)[: order + 1], np.asarray(ts, dtype=float)
        rows = max(1, _BLOCK_ELEMENTS // ns.weights.size)
        out: list = []
        for i in range(0, ts.size, rows):
            tb = ts[i : i + rows]
            block = Sample(*(a + tb.reshape((-1,) + (1,) * a.ndim) * b for a, b in zip(qs, ps)))
            out += rules._row_entropies(rule, ns.weights, block)
        return out

    phi = functools.partial(rules._entropy_of, rule, ns)
    phi.along, phi.nodes = along, ns
    return phi


# ---------------------------------------------------------------------------
# derivative estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeEstimate:
    """Directional-derivative estimate with its difference-quotient trace.

    ``trace`` lists (step, quotient) in schedule order; ``value`` is the
    Richardson combination of the last two quotients; ``converged`` means
    the last two quotients agree within the requested tolerance;
    ``monotonicity_violations`` counts breaks of the convexity ordering
    beyond the floating-point slack.
    """

    value: float
    trace: tuple
    side: str
    converged: bool
    monotonicity_violations: int

    def max_monotonicity_excess(self) -> float:
        """Largest break of the quotient ordering, 0.0 when none."""
        qs = [q if self.side == "right" else -q for _, q in self.trace]
        return max([0.0, *(nxt - prev for prev, nxt in zip(qs, qs[1:]))])


@dataclass(frozen=True)
class TwoSidedDerivative:
    """Right and left estimates; ``value`` is set when the sides agree."""

    right: DerivativeEstimate
    left: DerivativeEstimate
    gap: float
    value: float | None
    matched: bool


def _richardson(trace: list[tuple[float, float]], k: int) -> float:
    """Richardson step (r^k Q_last - Q_prev) / (r^k - 1), r = t_prev / t_last, exact for Q(t) = D + c t^k; or Q_last alone."""
    if len(trace) == 1:
        return trace[-1][1]
    (t_prev, q_prev), (t_last, q_last) = trace[-2], trace[-1]
    rk = (t_prev / t_last) ** k
    return (rk * q_last - q_prev) / (rk - 1.0)


def _entropy_along(phi: Callable[[Field], float], q: Field, p: Field, ts: Sequence[float]) -> list:
    """``phi`` at q + t p for each t (q itself at t = 0): a float, or the error refusing the step.

    A line's ``along`` lives in its ``__dict__``, so ``functools.wraps`` copies
    keep the one-pass path; any other callable is called once per step.
    """
    along = getattr(phi, "along", None)
    return along(q, p, ts) if along else [_attempt(phi, q + t * p if t else q) for t in ts]


def _attempt(phi: Callable[[Field], float], f: Field):
    try:
        return phi(f)
    except ConescoreError as exc:
        return exc


def _checked(value, t: float) -> float:
    """The entropy at step ``t`` (0 for the base point), or InfeasibleStepError naming the step."""
    if not isinstance(value, ConescoreError) and np.isfinite(value):
        return value
    where = "the base point" if t == 0 else f"step t={t:g}"
    if isinstance(value, ConescoreError):
        why = f"entropy undefined at {where}" if t == 0 else f"{where} leaves the entropy's domain"
        raise InfeasibleStepError(f"{why}: {value}", step=t) from value
    raise InfeasibleStepError(f"entropy not finite at {where}", step=t)


def _one_sided(phi: Callable[[Field], float], q: Field, p: Field, sign: float, tol_fd: float) -> DerivativeEstimate:
    """Quotients (sign v - sign phi(q)) / t at v = phi(q + sign t p) over FD_STEPS: the right side at sign 1, the left at -1.

    Consecutive quotients a, b break monotonicity when sign b > sign a + MONOTONE_SLACK; the value is their k = 1
    Richardson step. An infeasible right step raises; infeasible left steps are skipped.
    """
    base, *values = _entropy_along(phi, q, p, (0.0, *(sign * t for t in FD_STEPS)))
    phi_q = _checked(base, 0.0)
    kept = [(t, v) for t, v in zip(FD_STEPS, values) if sign > 0 or not isinstance(v, ConescoreError) and np.isfinite(v)]
    trace = [(t, (sign * _checked(v, t) - sign * phi_q) / t) for t, v in kept]
    if not trace:
        raise OneSidedOnlyError("the reversed direction leaves the cone at every scheduled step")
    violations = sum(1 for (_, a), (_, b) in zip(trace, trace[1:]) if sign * b > sign * a + MONOTONE_SLACK)
    converged = len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) < tol_fd
    return DerivativeEstimate(_richardson(trace, 1), tuple(trace), "right" if sign > 0 else "left", converged, violations)


def right_directional_derivative(
    phi: Callable[[Field], float],
    q: Field,
    p: Field,
    tol_fd: float = TOL_FD,
) -> DerivativeEstimate:
    """Right derivative of ``phi`` at ``q`` along ``p`` by monotone quotients over ``FD_STEPS``.

    For a convex ``phi`` the quotient trace is nonincreasing down the
    schedule; an entropy failure at some step raises
    :class:`InfeasibleStepError` naming it.
    """
    return _one_sided(phi, q, p, 1.0, tol_fd)


def left_directional_derivative(
    phi: Callable[[Field], float],
    q: Field,
    p: Field,
    tol_fd: float = TOL_FD,
) -> DerivativeEstimate:
    """Left derivative: quotients of q - t p over ``FD_STEPS``, skipping steps that exit the cone.

    Large steps may be infeasible even when the direction is two-sided;
    those are skipped. If every step fails, the direction is one-sided and
    :class:`OneSidedOnlyError` is raised.
    """
    return _one_sided(phi, q, p, -1.0, tol_fd)


def two_sided_derivative(
    phi: Callable[[Field], float],
    q: Field,
    p: Field,
    tol_fd: float = TOL_FD,
) -> TwoSidedDerivative:
    """Both one-sided derivatives; the two-sided value exists when they agree.

    Raises :class:`OneSidedOnlyError` when the reversed direction never
    enters the domain, i.e. the direction is not two-sided at ``q``.
    """
    right = right_directional_derivative(phi, q, p, tol_fd)
    left = left_directional_derivative(phi, q, p, tol_fd)
    gap = abs(right.value - left.value)
    matched = gap < tol_fd
    value = 0.5 * (right.value + left.value) if matched else None
    return TwoSidedDerivative(right, left, gap, value, matched)


def analytic_directional_derivative(
    rule: str,
    q: Field,
    p: Field,
    scheme: pairing.QuadratureScheme | None = None,
) -> float:
    """Closed-form right derivative of the rule's entropy at q along p.

    For the smooth rules this is the expected score p-hat . S(q-hat); for
    the supremum rule it is the maximum of p-hat over the modal nodes of
    q (Dirac evaluation when the mode set is a single point).
    """
    if rules.RULES[rules.canonical_rule(rule)].score is not None:
        return rules.expected_score(rule, p, q, scheme)
    ns = rules._one_grid(p, q)
    modal = rules._modal(ns.sample(q).value)
    return float(np.max(ns.sample(p).value[modal]) / ns.mass(p))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseResult:
    case_id: str
    residual: float | None
    tol: float
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Per-case residuals of one suite run, with a deterministic JSON form."""

    suite: str
    cases: tuple
    seed: int | None
    scheme: pairing.QuadratureScheme

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        cases = []
        for c in self.cases:
            rec = {
                "id": c.case_id,
                "residual": None if c.residual is None else float(c.residual),
                "tol": float(c.tol),
                "pass": bool(c.passed),
            }
            if c.note is not None:
                rec["note"] = c.note
            cases.append(rec)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "scheme": asdict(self.scheme),
            "cases": cases,
            "summary": {"pass": sum(1 for c in self.cases if c.passed), "total": len(self.cases)},
        }

    def to_json(self) -> str:
        return report_json(self.to_dict())


def _non_finite_at(value, path: str = "") -> str | None:
    """Path of the first non-finite float in a report, in key order; None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_at(item, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key)
        if found is not None:
            return found
    return None


def report_json(report: dict) -> str:
    """``report`` as sorted, indented strict JSON; a non-finite number is a DomainError naming its field."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        path = _non_finite_at(report)
        if path is None:
            raise
        raise DomainError(f"report value {path} is not a finite number") from exc


def _normalized(f: Field, scheme) -> Field:
    mass = f.total_mass(scheme)
    if not (np.isfinite(mass) and mass > 0):
        raise ZeroMassError(f"cannot normalise a field of nonpositive mass {mass!r}")
    return f * (1.0 / mass)


def derivative_against_closed_form(rule: str, q: Field, p: Field, scheme=None) -> tuple[DerivativeEstimate, float]:
    """FD right derivative of the entropy at q-hat along p-hat on their line, and its closed form at q along p."""
    qh, ph = _normalized(q, scheme), _normalized(p, scheme)
    est = right_directional_derivative(entropy_line(rule, qh, ph, scheme=scheme), qh, ph)
    return est, analytic_directional_derivative(rule, q, p, scheme)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def certify_sublinearity(
    rule: str,
    samples: Sequence[Field],
    tol: float = 1e-8,
    scheme: pairing.QuadratureScheme | None = None,
) -> VerificationReport:
    """Certify homogeneity, subadditivity, and segment convexity of the entropy.

    Homogeneity is checked at the scales 0.5, 2 and 7. Strict rules must
    additionally show a subadditivity margin of at least 1e-6 on pairs
    separated in normalised L1 distance. The report carries no seed.
    """
    rule = rules.canonical_rule(rule)
    cases: list[CaseResult] = []
    for i, f in enumerate(samples):
        line = entropy_line(rule, f, scheme=scheme)
        phi_f = line(f)
        worst = 0.0
        for lam in (0.5, 2.0, 7.0):
            resid = abs(line(lam * f) - lam * phi_f) / max(abs(lam * phi_f), 1e-12)
            worst = max(worst, resid)
        cases.append(CaseResult(f"{rule}/sublinearity/scale{i:03d}", worst, tol, worst <= tol))
    for i in range(len(samples) - 1):
        f, g = samples[i], samples[i + 1]
        line = entropy_line(rule, f, g, scheme=scheme)
        phi_f, phi_g = line(f), line(g)
        margin = phi_f + phi_g - line(f + g)
        cases.append(
            CaseResult(f"{rule}/sublinearity/subadd{i:03d}", margin, tol, margin >= -tol)
        )
        if rules.RULES[rule].strict and sampling._l1_on(line.nodes, f, g) >= 0.1:  # the line's set is nodes_for(f + g)
            cases.append(
                CaseResult(
                    f"{rule}/sublinearity/strict{i:03d}",
                    margin,
                    1e-6,
                    margin >= 1e-6,
                    note="pair separated in normalised L1",
                )
            )
        worst = -np.inf
        for t in (0.25, 0.5, 0.75):
            excess = line((1.0 - t) * f + t * g) - ((1.0 - t) * phi_f + t * phi_g)
            worst = max(worst, excess)
        cases.append(CaseResult(f"{rule}/sublinearity/segment{i:03d}", worst, tol, worst <= tol))
    return VerificationReport("sublinearity", tuple(cases), None, scheme or pairing.DEFAULT_SCHEME)


def certify_directional_derivatives(
    rule: str,
    q: Field,
    one_sided: Sequence[Field],
    two_sided: Sequence[Field],
    tol_fd: float = TOL_FD,
    scheme: pairing.QuadratureScheme | None = None,
    case_prefix: str = "",
) -> VerificationReport:
    """Certify the structural properties of the right directional derivative.

    One record per property: monotone quotient traces; sublinearity of the
    derivative in the direction; invariance under scaling of the base
    point; the support inequality with equality along the base ray; the
    left-right ordering; and additivity on two-sided directions.
    ``one_sided`` directions must be cone elements; ``two_sided``
    directions must be feasible both ways at ``q``.
    """
    rule = rules.canonical_rule(rule)
    if len(one_sided) < 2 or len(two_sided) < 2:
        raise InvalidParameterError("need at least two one-sided and two two-sided directions")
    prefix = case_prefix or f"{rule}/derivatives"
    qh = _normalized(q, scheme)
    phi = entropy_line(rule, qh, *one_sided, *two_sided, scheme=scheme)

    right = functools.partial(right_directional_derivative, phi, tol_fd=tol_fd)
    cases: list[CaseResult] = []

    ests = [right(qh, d) for d in one_sided]
    worst_excess = max(e.max_monotonicity_excess() for e in ests)
    total_violations = sum(e.monotonicity_violations for e in ests)
    cases.append(
        CaseResult(
            f"{prefix}/monotone-quotients",
            worst_excess,
            MONOTONE_SLACK,
            total_violations == 0,
            note=f"{len(ests)} traces, {len(FD_STEPS)} steps each",
        )
    )

    d0, d1 = one_sided[0], one_sided[1]
    v0, v1 = ests[0].value, ests[1].value
    homog = abs(right(qh, 2.0 * d0).value - 2.0 * v0)
    subadd = right(qh, d0 + d1).value - (v0 + v1)
    resid = max(homog, subadd)
    cases.append(CaseResult(f"{prefix}/derivative-sublinear", resid, tol_fd, homog <= tol_fd and subadd <= tol_fd))

    worst = 0.0
    for lam in (0.5, 2.0, 7.0):
        worst = max(worst, abs(right(lam * qh, d0).value - v0))
    cases.append(CaseResult(f"{prefix}/base-scale-invariance", worst, 1e-6, worst <= 1e-6))

    ineq_excess = 0.0
    for d, est in zip(one_sided, ests):
        ineq_excess = max(ineq_excess, est.value - phi(d))
    eq_resid = abs(right(qh, qh).value - phi(qh))
    cases.append(
        CaseResult(
            f"{prefix}/support-inequality",
            max(ineq_excess, eq_resid),
            1e-6,
            ineq_excess <= 1e-6 and eq_resid <= 1e-8,
            note=f"equality residual at the base ray {eq_resid:.3e}",
        )
    )

    two = [two_sided_derivative(phi, qh, d, tol_fd) for d in two_sided]
    order_excess = max(t.left.value - t.right.value for t in two)
    cases.append(CaseResult(f"{prefix}/left-right-order", order_excess, 1e-6, order_excess <= 1e-6))

    r0, r1 = two_sided[0], two_sided[1]
    t0, t1 = two[0], two[1]
    tsum = two_sided_derivative(phi, qh, r0 + r1, tol_fd)
    if t0.matched and t1.matched and tsum.matched:
        resid = abs(tsum.value - (t0.value + t1.value))
        cases.append(CaseResult(f"{prefix}/two-sided-additivity", resid, tol_fd, resid <= tol_fd))
    else:
        gaps = f"gaps {t0.gap:.3e}, {t1.gap:.3e}, {tsum.gap:.3e}"
        cases.append(
            CaseResult(
                f"{prefix}/two-sided-additivity",
                None,
                tol_fd,
                False,
                note=f"two-sided values did not match: {gaps}",
            )
        )
    return VerificationReport("derivatives", tuple(cases), None, scheme or pairing.DEFAULT_SCHEME)


def _symmetric_derivative(phi, q: Field, p: Field) -> float:
    """k = 2 Richardson step on the symmetric quotients at the last two steps of FD_STEPS, the only four rows evaluated."""
    ts = [s for t in FD_STEPS[-2:] for s in (t, -t)]
    values = [_checked(v, t) for t, v in zip(ts, _entropy_along(phi, q, p, ts))]
    return _richardson([(t, (a - b) / (2.0 * t)) for t, a, b in zip(FD_STEPS[-2:], values[0::2], values[1::2])], 2)


def gateaux_check(
    q: Field,
    directions: Sequence[Field],
    tol: float = TOL_FD,
    scheme: pairing.QuadratureScheme | None = None,
    case_prefix: str = "",
) -> VerificationReport:
    """Gateaux differentiability of the quadratic entropy at an interior point.

    For each direction p (sign-changing allowed, any integral) the
    derivative must equal the pairing of the gradient field
    2q/(q.1) - (q.q)/(q.1)^2 with p within ``tol``, and be additive and
    homogeneous in p within 1e-7. The derivative is the k = 2 Richardson
    step on the symmetric quotients at the last two entries of ``FD_STEPS``;
    larger steps are not evaluated, so a direction leaving the domain only
    far from q is still certified, and an infeasible row raises
    :class:`InfeasibleStepError` naming its step.
    """
    if not directions:
        raise InvalidParameterError("need at least one direction")
    prefix = case_prefix or "quadratic/gateaux"
    quadratic = rules.RULES["quadratic"]
    phi = entropy_line(quadratic.name, q, *directions, scheme=scheme)
    ns = phi.nodes
    grad_values = rules._scored(quadratic, q, ns)[3]
    symmetric = functools.partial(_symmetric_derivative, phi, q)

    margin = cone_check(q, quadratic.cone(q.dim), scheme).worst_residual
    cone_note = f"cone margin {margin:.3e}"

    cases: list[CaseResult] = []
    derivs = []
    for i, p in enumerate(directions):
        d = symmetric(p)
        derivs.append(d)
        expected = float(np.sum(ns.weights * grad_values * ns.sample(p).value))
        resid = abs(d - expected)
        note = cone_note if i == 0 else None
        cases.append(CaseResult(f"{prefix}/gradient{i:03d}", resid, tol, resid <= tol, note=note))
    for i in range(len(directions) - 1):
        p, r = directions[i], directions[i + 1]
        resid = abs(symmetric(p + r) - (derivs[i] + derivs[i + 1]))
        cases.append(CaseResult(f"{prefix}/additivity{i:03d}", resid, 1e-7, resid <= 1e-7))
    resid = abs(symmetric(2.0 * directions[0]) - 2.0 * derivs[0])
    cases.append(CaseResult(f"{prefix}/homogeneity", resid, 1e-7, resid <= 1e-7))
    return VerificationReport("gateaux", tuple(cases), None, scheme or pairing.DEFAULT_SCHEME)


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

def _grid_samples(n: int, seed: int, plateau_every: int = 4) -> list[GridDensity]:
    rng = np.random.default_rng([seed, 7])
    out = []
    for i in range(n):
        if plateau_every and i % plateau_every == plateau_every - 1:
            out.append(sampling.sample_plateau_grid(rng))
        else:
            out.append(sampling.sample_grid_density(rng))
    return out


def _euler_cases(rule_ids, samples, seed, scheme, tol) -> list[CaseResult]:
    cases = []
    n_grid = max(1, (2 * samples) // 5)
    mixtures = [sampling.sample_mixture(np.random.default_rng([seed, 1, k])) for k in range(samples)]
    grids = _grid_samples(n_grid, seed)
    # each rule on every family it accepts: mixtures, then grids; the analytic rules run back to back
    # on each mixture, whose node set then serves them all
    analytic = [r for r in rule_ids if rules.RULES[r].analytic]
    resids = {(rule, i): rules.euler_residual(rule, q, scheme) for i, q in enumerate(mixtures) for rule in analytic}
    for rule in analytic:
        for i in range(len(mixtures)):
            resid = resids[rule, i]
            cases.append(CaseResult(f"{rule}/euler/mix{i:03d}", resid, tol, resid <= tol))
    for rule in [r for r in rule_ids if rules.RULES[r].grids]:
        for i, q in enumerate(grids):
            resid = rules.euler_residual(rule, q, scheme)
            cases.append(CaseResult(f"{rule}/euler/grid{i:03d}", resid, tol, resid <= tol))
    return cases


def _not_strict_witness(seed: int) -> tuple[GridDensity, GridDensity]:
    """p != q sharing one mode plateau, so the supremum divergence vanishes."""
    rng = np.random.default_rng([seed, 11])
    q = sampling.sample_plateau_grid(rng)
    vals = np.asarray(q.values).copy()
    plateau = rules._modal(vals)
    other = 0.4 + 0.4 * np.sin(np.linspace(0.0, 9.0, vals.size)) ** 2
    pv = np.where(plateau, np.max(vals), other)
    return GridDensity(q.lo, q.hi, pv), q


def _propriety_cases(rule_ids, samples, seed, scheme, tol) -> list[CaseResult]:
    cases = []
    mix_pairs = sampling.sample_mixture_pairs(samples, seed)
    # the strict rules are the smooth ones, which share the mixture pairs
    separated = functools.cache(lambda i: sampling.normalized_l1_distance(*mix_pairs[i], scheme) >= 0.1)
    grid_pairs = list(zip(_grid_samples(samples, seed + 1), _grid_samples(samples, seed + 2)))

    def div(rule, p, q) -> tuple[float, str | None]:
        diagnostics: dict = {}
        return rules.divergence(rule, p, q, scheme, diagnostics), diagnostics.get("note")

    # the analytic rules run back to back on each mixture pair, with its separation if a strict rule
    # reads it, then on its p against itself: the pair's node set serves them all; the cases are
    # emitted rule by rule
    analytic, done = [r for r in rule_ids if rules.RULES[r].analytic], {}
    for i, (p, q) in enumerate(mix_pairs):
        done.update({(rule, i): div(rule, p, q) for rule in analytic})
        if any(rules.RULES[rule].strict for rule in analytic):
            separated(i)
        done.update({(rule, "self", i): div(rule, p, p) for rule in analytic if i < 10})
    for rule in rule_ids:
        record = rules.RULES[rule]
        pair_set = mix_pairs if record.analytic else grid_pairs
        for i, (p, q) in enumerate(pair_set):
            d, note = done.get((rule, i)) or div(rule, p, q)
            cases.append(CaseResult(f"{rule}/propriety/pair{i:03d}", d, tol, d >= -tol, note=note))
            if record.strict and separated(i):
                cases.append(
                    CaseResult(f"{rule}/propriety/strict{i:03d}", d, 1e-6, d >= 1e-6)
                )
        for i, (p, _) in enumerate(pair_set[: min(10, len(pair_set))]):
            self_div = (done.get((rule, "self", i)) or div(rule, p, p))[0]
            cases.append(
                CaseResult(f"{rule}/propriety/self{i:03d}", abs(self_div), tol, abs(self_div) <= tol)
            )
        if not record.strict:
            p, q = _not_strict_witness(seed)
            d = rules.divergence(rule, p, q, scheme)
            apart = sampling.normalized_l1_distance(p, q, scheme) >= 0.1
            cases.append(
                CaseResult(
                    f"{rule}/propriety/not-strict-witness",
                    d,
                    1e-12,
                    apart and abs(d) <= 1e-12,
                    note="distinct densities sharing a mode plateau: proper but not strict",
                )
            )
    return cases


def _score_invariance_residual(rule, q, scheme) -> float:
    if q.grid is not None:
        lo, hi = q.grid.lo, q.grid.hi
        xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
    else:
        xs = np.array([-1.0, -0.25, 0.0, 0.5, 1.5])
    worst = 0.0
    base = np.asarray(rules.score_at(rule, q, xs, scheme), dtype=float)
    for lam in (0.5, 2.0, 10.0):
        scaled = np.asarray(rules.score_at(rule, lam * q, xs, scheme), dtype=float)
        worst = max(worst, float(np.max(np.abs(scaled - base) / np.maximum(np.abs(base), 1.0))))
    return worst


def _homogeneity_cases(rule_ids, samples, seed, scheme, tol) -> list[CaseResult]:
    cases = []
    n = max(3, min(samples, 12))
    mixtures = [sampling.sample_mixture(np.random.default_rng([seed, 3, k])) for k in range(n)]
    # plateau grids only: the supremum score is undefined in the Dirac regime
    plateaus = _grid_samples(n, seed + 5, plateau_every=1)
    for rule in rule_ids:
        fields = mixtures if rules.RULES[rule].analytic else plateaus
        report = certify_sublinearity(rule, fields, tol=tol, scheme=scheme)
        cases.extend(report.cases)
        for i, q in enumerate(fields[:4]):
            resid = _score_invariance_residual(rule, q, scheme)
            cases.append(CaseResult(f"{rule}/homogeneity/score{i:03d}", resid, tol, resid <= tol))
            mass = q.total_mass(scheme)
            worst = 0.0
            for lam in (0.5, 2.0, 10.0):
                worst = max(worst, abs(pairing.total_mass(lam * q, scheme) - lam * mass) / (lam * mass))
            cases.append(CaseResult(f"{rule}/homogeneity/mass{i:03d}", worst, 1e-10, worst <= 1e-10))
    return cases


def _smooth_direction_sets(q, seed, scheme):
    rng = np.random.default_rng([seed, 17])
    # one-sided directions stay inside the bounded-curvature class at q,
    # otherwise the difference quotients converge too slowly to certify
    p1 = _normalized(sampling.perturbed_mixture(q, rng), scheme)
    p2 = _normalized(sampling.perturbed_mixture(q, rng), scheme)
    qh = _normalized(q, scheme)
    r1 = _normalized(sampling.reweighted_mixture(q, rng), scheme) - qh
    r2 = _normalized(sampling.reweighted_mixture(q, rng), scheme) - qh
    return [p1, p2], [r1, r2]


def _grid_direction_sets(q, seed):
    rng = np.random.default_rng([seed, 19])
    grid = q.grid
    ones = GridDensity(grid.lo, grid.hi, np.ones(grid.n))
    qh = q * (1.0 / q.total_mass())
    extra = sampling.sample_grid_density(rng, grid)
    return [ones, extra], [ones, qh]


def _derivative_cases(rule_ids, samples, seed, scheme, tol_fd) -> list[CaseResult]:
    cases = []
    n_bases = max(1, samples // 10)
    for rule in rule_ids:
        if rules.RULES[rule].analytic:
            bases = [sampling.sample_mixture(np.random.default_rng([seed, 23, k])) for k in range(n_bases)]
            directions = functools.partial(_smooth_direction_sets, scheme=scheme)
        else:
            bases = _grid_samples(n_bases, seed + 13, plateau_every=2)
            directions = _grid_direction_sets
        for k, q in enumerate(bases):
            one_sided, two_sided = directions(q, seed + k)
            report = certify_directional_derivatives(
                rule,
                q,
                one_sided,
                two_sided,
                tol_fd=tol_fd,
                scheme=scheme,
                case_prefix=f"{rule}/derivatives/base{k:02d}",
            )
            cases.extend(report.cases)
    return cases


def _gateaux_directions(rng: np.random.Generator, count: int) -> list[Field]:
    directions: list[Field] = []
    while len(directions) < count:
        kind = len(directions) % 4
        if kind == 0:
            directions.append(
                Bump(rng.uniform(-2.0, 2.0), rng.uniform(0.4, 1.2), rng.uniform(0.1, 0.4))
            )
        elif kind == 1:
            b1 = Bump(rng.uniform(-2.5, 0.0), rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.4))
            b2 = Bump(rng.uniform(0.0, 2.5), rng.uniform(0.3, 0.9), rng.uniform(0.1, 0.3))
            directions.append(b1 - b2)
        elif kind == 2:
            directions.append(Bump(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5), -rng.uniform(0.05, 0.2)))
        else:
            directions.append(sampling.sample_mixture(rng) * rng.uniform(0.05, 0.3))
    return directions


def _gateaux_cases(rule_ids, samples, seed, scheme, tol_fd) -> list[CaseResult]:
    cases = []
    n_bases = min(10, max(1, samples // 5)) if "quadratic" in rule_ids else 0
    n_dirs = max(4, (2 * samples) // 5)
    for k in range(n_bases):
        rng = np.random.default_rng([seed, 29, k])
        q = sampling.sample_mixture(rng)
        directions = _gateaux_directions(rng, n_dirs)
        report = gateaux_check(
            q,
            directions,
            tol=tol_fd,
            scheme=scheme,
            case_prefix=f"quadratic/gateaux/base{k:02d}",
        )
        cases.extend(report.cases)
    return cases


# each suite's case builder and primary tolerance, in the order "all" runs them
_SUITE_CASES = {
    "euler": (_euler_cases, 1e-8),
    "propriety": (_propriety_cases, 1e-8),
    "homogeneity": (_homogeneity_cases, 1e-8),
    "derivatives": (_derivative_cases, TOL_FD),
    "gateaux": (_gateaux_cases, TOL_FD),
}
SUITES = (*_SUITE_CASES, "all")


def _workers(n_jobs: int) -> int:
    """Processes for ``n_jobs`` jobs: one per CPU this process may run on, at most one per job; 1 where CPU affinity or memfd is missing."""
    return min(n_jobs, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create") else 1


def _outcomes(jobs) -> list:
    """Each job's result in order; the first exception stands in its job's place and every later one's."""
    out = []
    for job in jobs:
        try:
            out.append(job())
        except Exception as exc:
            return out + [exc] * (len(jobs) - len(out))
    return out


def forked(jobs: Sequence[Callable[[], object]], names: Sequence[str]) -> list:
    """Each zero-argument job's result, in job order, from W = ``_workers(len(jobs))`` processes.

    Jobs are dealt round-robin over the caller and W - 1 forked children, which
    hand their results back in memfds and so never wait on the caller. The first
    exception in job order is raised, a dead child's as a RuntimeError naming its
    jobs' ``names``, once every child is reaped. W = 1 (``taskset -c 0``) forks none.
    """
    w = _workers(len(jobs))
    shares, children, results = [jobs[k::w] for k in range(w)], {}, {}
    try:
        for k in range(1, w):
            fd = os.memfd_create("conescore-results")
            try:
                pid = os.fork()
            except OSError:  # this share runs in the caller
                os.close(fd)
                continue
            if pid == 0:  # the child never returns into the caller's code, nor flushes its stdio buffers
                try:
                    with open(fd, "wb") as out:
                        pickle.dump(_outcomes(shares[k]), out, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[k] = pid, fd
        results.update((k, _outcomes(shares[k])) for k in range(w) if k not in children)
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:  # every child reaped and every file closed, on every path
        for k, (pid, fd) in children.items():
            status = os.waitpid(pid, 0)[1]
            with open(fd, "rb") as out:
                out.seek(0)  # the child's writes moved the offset the two share
                lost = RuntimeError(f"the worker for {list(names[k::w])} exited without its results (wait status {status})")
                results[k] = pickle.load(out) if status == 0 else [lost] * len(shares[k])
    ordered = [results[i % w][i // w] for i in range(len(jobs))]  # job order
    if failed := [out for out in ordered if isinstance(out, Exception)]:
        raise failed[0]
    return ordered


def run_suite(
    suite: str,
    rule: str | None = None,
    samples: int = 50,
    seed: int = sampling.DEFAULT_SEED,
    scheme: pairing.QuadratureScheme | None = None,
    tol: float | None = None,
) -> VerificationReport:
    """Run a named verification suite and return its report.

    ``suite`` is one of ``SUITES``: a key of the ``_SUITE_CASES`` table, or
    all, which runs them in the table's order; ``rule`` restricts to one
    scoring rule (gateaux is quadratic-only). ``tol``, when given, must be
    positive and finite; it replaces the primary tolerance of every suite
    run, all's too. The suites run through :func:`forked`, over every CPU this
    process may use, and are merged in table order: the serial one-CPU run
    (``taskset -c 0``) gives the same report or error.
    """
    suite = str(suite).lower()
    if suite not in SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if samples < 1:
        raise InvalidParameterError("samples must be positive")
    if tol is not None and not 0 < tol < np.inf:
        raise InvalidParameterError(f"tol must be {'positive' if tol <= 0 else 'finite'}, got {tol!r}")
    sampling._checked_seed(seed)
    rule_ids = rules.RULE_IDS if rule is None else (rules.canonical_rule(rule),)
    if suite == "gateaux" and "quadratic" not in rule_ids:
        raise InvalidParameterError("the gateaux suite applies to the quadratic rule")
    names = [name for name in _SUITE_CASES if suite in (name, "all")]
    jobs = [functools.partial(build, rule_ids, samples, seed, scheme, tol or default_tol) for build, default_tol in map(_SUITE_CASES.get, names)]
    ordered = forked(jobs, names)
    return VerificationReport(suite, tuple(c for out in ordered for c in out), seed, scheme or pairing.DEFAULT_SCHEME)
