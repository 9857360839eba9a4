"""Scoring rules: entropies, scores, divergences, Euler identities, modes."""

import platform
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from conescore import boundary, pairing, rules, sampling
from conescore.convexity import entropy_line
from conescore.densities import Bump, GaussianDensity, GridDensity, GridField, MixtureDensity, PowerLawDensity, Sample
from conescore.errors import (
    ConescoreError,
    DomainError,
    InvalidParameterError,
    ModeMeasureZeroError,
    UnsupportedFamilyError,
    ZeroDensityError,
)

SHANNON_PHI_N01 = -1.4189385332046727
CROSS_ENTROPY_N11_N01 = -1.9189385332046727
QUAD_DIV_N01_N11 = 0.1247982940801937


def uniform_grid(n=401):
    return GridDensity(0.0, 1.0, np.ones(n))


def test_canonical_rule_aliases():
    assert rules.canonical_rule("log") == "logarithmic"
    assert rules.canonical_rule("hyv") == "hyvarinen"
    assert rules.canonical_rule("brier") == "quadratic"
    assert rules.canonical_rule("sup") == "supremum"
    with pytest.raises(InvalidParameterError):
        rules.canonical_rule("elo")


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_shannon_entropy_of_unit_gaussian():
    assert rules.entropy("logarithmic", GaussianDensity(0.0, 1.0)) == pytest.approx(
        SHANNON_PHI_N01, abs=1e-7
    )


@pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
def test_gradient_entropy_inverse_variance(var):
    assert rules.entropy("hyvarinen", GaussianDensity(0.0, var)) == pytest.approx(
        1.0 / var, abs=1e-7
    )


def test_quadratic_entropy_of_uniform():
    assert rules.entropy("quadratic", uniform_grid()) == pytest.approx(1.0, abs=1e-12)


def test_supremum_entropy_is_grid_max():
    vals = np.ones(101)
    vals[40:44] = 3.5
    assert rules.entropy("supremum", GridDensity(0.0, 1.0, vals)) == pytest.approx(3.5)


def test_entropy_is_one_homogeneous():
    q = MixtureDensity((GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 0.5)), (0.5, 0.5))
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        base = rules.entropy(rule, q)
        assert rules.entropy(rule, q * 3.0) == pytest.approx(3.0 * base, rel=1e-9)


def test_hyvarinen_entropy_needs_analytic_family():
    with pytest.raises(UnsupportedFamilyError):
        rules.entropy("hyvarinen", uniform_grid())


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def test_log_score_examples():
    q = GaussianDensity(0.0, 1.0)
    assert rules.score_at("logarithmic", q, 0.0) == pytest.approx(-0.9189385332, abs=1e-9)
    with pytest.raises(ZeroDensityError):
        rules.score_at("logarithmic", q, 60.0)  # float underflow to 0


def test_hyvarinen_score_examples():
    q = GaussianDensity(0.0, 1.0)
    np.testing.assert_allclose(
        rules.score_at("hyvarinen", q, np.array([0.0, 1.0, 2.0])),
        [2.0, 1.0, -2.0],
        atol=1e-12,
    )


def test_hyvarinen_score_survives_underflow_of_the_squares():
    # q is 1e-196 to 1e-314 here: |grad q|^2 and q^2 underflow to 0, grad q / q does not
    xs = np.array([30.0, 37.0, 38.0])
    np.testing.assert_allclose(rules.score_at("hyvarinen", GaussianDensity(0.0, 1.0), xs), 2.0 - xs**2, rtol=1e-12, atol=0)
    pts = np.array([[30.0, 0.0], [0.0, -37.0], [26.0, 26.0]])
    unit_2d = GaussianDensity([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(rules.score_at("hyvarinen", unit_2d, pts), 4.0 - (pts**2).sum(axis=1), rtol=1e-12, atol=0)


def test_expected_score_counts_infinite_scores_off_support_as_zero():
    # the Hyvarinen score of q = (1 - x^2)^2 is 8 / (1 - x^2) inside |x| < 1 and infinite on
    # q's zero set: a p vanishing there pairs to a finite number (0 * inf = 0), one with mass there raises
    q = Bump(0.0, 1.0)
    mean, _ = integrate.quad(lambda x: 8.0 / (1.0 - x * x) * (1.0 - 4.0 * x * x) ** 2 * 15.0 / 8.0, -0.5, 0.5)
    assert rules.expected_score("hyvarinen", Bump(0.0, 0.5), q) == pytest.approx(mean, abs=1e-12)
    assert mean == pytest.approx(8.3127, abs=1e-4)
    with pytest.raises(ZeroDensityError):
        rules.expected_score("hyvarinen", Bump(0.0, 2.0), q)


def test_hyvarinen_score_is_scale_invariant():
    q = GaussianDensity(0.5, 2.0)
    a = rules.score_at("hyvarinen", q, 0.3)
    b = rules.score_at("hyvarinen", q * 9.0, 0.3)
    assert a == pytest.approx(b, abs=1e-12)


def test_quadratic_score_on_uniform():
    np.testing.assert_allclose(
        rules.score_at("quadratic", uniform_grid(), np.array([0.2, 0.8])), [1.0, 1.0], atol=1e-12
    )


def test_supremum_score_is_mode_indicator():
    vals = np.ones(401)
    vals[100:141] = 2.0  # plateau on [0.25, 0.35]
    q = GridDensity(0.0, 1.0, vals)
    qstar = rules.sup_subgradient(q)
    assert qstar.value(0.3) == pytest.approx(1.0 / 0.1, rel=1e-9)
    assert qstar.value(0.8) == 0.0
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(qstar.sample(x).value, np.where((x >= 0.25) & (x <= 0.35), qstar.value(0.3), 0.0))
    # a piecewise-constant indicator has no derivatives to sample
    for call in (lambda: qstar.sample(x, 1), lambda: qstar.gradient(0.3), lambda: qstar.laplacian(0.3)):
        with pytest.raises(UnsupportedFamilyError):
            call()


# ---------------------------------------------------------------------------
# mode sets
# ---------------------------------------------------------------------------

def test_mode_set_of_plateau():
    vals = np.ones(401)
    vals[100:141] = 2.0
    ms = rules.mode_set(GridDensity(0.0, 1.0, vals))
    assert ms.height == 2.0
    assert ms.measure == pytest.approx(0.1, abs=1e-12)
    lo, hi = ms.region[0]
    assert (lo, hi) == (pytest.approx(0.25), pytest.approx(0.35))


def test_mode_set_keeps_plateaus_apart_on_a_fine_grid():
    # spacing 1e-3 lies below 1e-5 * |x| here, so comparing cell edges with a
    # relative tolerance would merge two plateaus one grid point apart
    vals = np.full(1001, 2.0)
    vals[500] = 1.0
    ms = rules.mode_set(GridDensity(1000.0, 1001.0, vals))
    x = np.linspace(1000.0, 1001.0, 1001)
    assert ms.region == ((x[0], x[499]), (x[501], x[1000]))
    assert ms.measure == pytest.approx(0.998, rel=1e-12)


def test_mode_set_of_singleton_peak():
    x = np.linspace(0.0, 1.0, 401)
    q = GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    ms = rules.mode_set(q)
    assert ms.measure == 0.0
    with pytest.raises(ModeMeasureZeroError):
        rules.sup_subgradient(q)


def test_mode_pairing_reproduces_max_exactly():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = sampling.sample_plateau_grid(rng)
        ms = rules.mode_set(q)
        assert rules.mode_pairing(q, ms) == pytest.approx(np.max(q.values), abs=1e-12)


def test_mode_pairing_below_max_for_probes():
    rng = np.random.default_rng(12)
    q = sampling.sample_plateau_grid(rng)
    ms = rules.mode_set(q)
    for _ in range(10):
        p = sampling.sample_grid_density(rng)
        assert rules.mode_pairing(p, ms) <= np.max(p.values) + 1e-12


# ---------------------------------------------------------------------------
# expected scores and divergences
# ---------------------------------------------------------------------------

def test_kl_divergence_closed_form():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(1.0, 1.0)
    assert rules.divergence("logarithmic", p, q) == pytest.approx(0.5, abs=1e-6)


def test_quadratic_divergence_closed_form():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(1.0, 1.0)
    assert rules.divergence("quadratic", p, q) == pytest.approx(QUAD_DIV_N01_N11, abs=1e-5)


def test_hyvarinen_divergence_is_fisher_divergence():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(1.0, 1.0)
    assert rules.divergence("hyvarinen", p, q) == pytest.approx(1.0, abs=1e-6)
    assert rules.hyvarinen_divergence_direct(p, q) == pytest.approx(1.0, abs=1e-9)


def test_integration_by_parts_identity():
    for p, q in sampling.sample_mixture_pairs(10, seed=5):
        direct = rules.hyvarinen_divergence_direct(p, q)
        via_score = rules.divergence("hyvarinen", p, q)
        assert via_score == pytest.approx(direct, abs=1e-6)


def test_self_divergence_vanishes():
    q = MixtureDensity((GaussianDensity(0.2, 1.0), GaussianDensity(-1.0, 0.7)), (0.6, 0.4))
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        assert abs(rules.divergence(rule, q, q)) <= 1e-8


def test_divergence_is_scale_invariant():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(0.5, 1.5)
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        a = rules.divergence(rule, p, q)
        b = rules.divergence(rule, p * 3.0, q * 0.2)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_expected_log_score_flags_clamping():
    # p has mass where q's grid density vanishes: clamped, counted
    vals = np.ones(401)
    vals[:200] = 0.0
    vals[200] = 0.5
    q = GridDensity(0.0, 1.0, vals)
    p = uniform_grid()
    diagnostics = {}
    rules.expected_score("logarithmic", p, q, diagnostics=diagnostics)
    assert diagnostics.get("log_clamped", 0) > 0


def test_supremum_expected_score_dirac_regime():
    x = np.linspace(0.0, 1.0, 401)
    q = GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    p = uniform_grid()
    diagnostics = {}
    value = rules.expected_score("supremum", p, q, diagnostics=diagnostics)
    assert diagnostics.get("dirac") is True
    assert value == pytest.approx(1.0, rel=1e-9)  # p-hat at the peak


def test_supremum_divergence_nonnegative_on_samples():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = sampling.sample_grid_density(rng)
        q = sampling.sample_plateau_grid(rng)
        assert rules.divergence("supremum", p, q) >= -1e-12


# ---------------------------------------------------------------------------
# Euler identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", ["logarithmic", "hyvarinen", "quadratic"])
def test_euler_residual_mixtures(rule):
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = sampling.sample_mixture(rng)
        assert rules.euler_residual(rule, q) <= 1e-8


class _CountingGrid(GridDensity):
    """A grid density that counts its sample calls, through which every value is read."""

    def sample(self, x, order=0):
        self.__dict__.setdefault("calls", []).append(1)
        return super().sample(x, order)


@pytest.mark.parametrize("plateau", [True, False], ids=["plateau", "dirac"])
def test_sup_euler_residual_samples_the_grid_once(plateau):
    x = np.linspace(0.0, 1.0, 201)
    vals = np.where(np.abs(x - 0.4) < 0.1, 2.0, 1.0 + x) if plateau else 2.0 - np.abs(x - 0.4)
    q = _CountingGrid(0.0, 1.0, vals)
    resid = rules.euler_residual("supremum", q)
    assert len(q.calls) == 1
    mode = rules.mode_set(GridDensity(0.0, 1.0, vals))
    assert (mode.measure > 0) == plateau
    paired = rules.mode_pairing(q, mode) if plateau else mode.height
    assert resid == abs(paired - mode.height) / abs(mode.height)


@pytest.mark.parametrize("plateau", [True, False], ids=["plateau", "dirac"])
def test_sup_expectation_and_dichotomy_demo_sample_q_once(plateau):
    x = np.linspace(0.0, 1.0, 201)
    vals = np.where(np.abs(x - 0.4) < 0.1, 2.0, 1.0 + x) if plateau else 2.0 - np.abs(x - 0.4)
    q, p = _CountingGrid(0.0, 1.0, vals), _CountingGrid(0.0, 1.0, 1.0 + x)
    diagnostics = {}
    rules.expected_score("supremum", p, q, diagnostics=diagnostics)
    assert (len(q.calls), len(p.calls)) == (1, 1)
    assert diagnostics.get("dirac", False) != plateau
    q.calls.clear()
    assert boundary.sup_dichotomy_demo(q, n_probes=3).passed
    assert len(q.calls) == 1


@pytest.mark.parametrize("rule", ["logarithmic", "quadratic", "supremum"])
def test_euler_residual_grids(rule):
    rng = np.random.default_rng(8)
    for _ in range(5):
        q = sampling.sample_plateau_grid(rng) if rule == "supremum" else sampling.sample_grid_density(rng)
        assert rules.euler_residual(rule, q) <= 1e-8


def test_euler_supremum_dirac_regime():
    x = np.linspace(0.0, 1.0, 401)
    q = GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    assert rules.euler_residual("supremum", q) <= 1e-8


# ---------------------------------------------------------------------------
# fields off the nonnegative cone
# ---------------------------------------------------------------------------

def off_cone():
    """Mass 0.5, and -0.23 at its lowest node: off the cone of the log and Hyvarinen rules."""
    return GaussianDensity(0.0, 1.0) - 0.5 * GaussianDensity(0.0, 0.1)


@pytest.mark.parametrize("rule", ["logarithmic", "hyvarinen"])
def test_off_cone_fields_are_refused_where_the_rule_reads_a_density(rule):
    f, p = off_cone(), GaussianDensity(0.0, 1.0)
    calls = [
        lambda: rules.entropy(rule, f),
        lambda: rules.euler_residual(rule, f),
        lambda: rules.expected_score(rule, p, f),
        lambda: rules.divergence(rule, f, p),
        lambda: rules.divergence(rule, p, f),
        lambda: rules.score_at(rule, f, [2.0, 3.0]),  # positive at both points: refused on q's node set
    ]
    if rule == "hyvarinen":
        calls += [lambda: rules.hyvarinen_divergence_direct(f, p), lambda: rules.hyvarinen_divergence_direct(p, f)]
    for call in calls:
        with pytest.raises(ZeroDensityError, match="nonnegative cone"):
            call()
    # expected_score's p is a direction, which may be signed
    assert np.isfinite(rules.expected_score(rule, f, p))


def test_off_cone_fields_keep_their_quadratic_answers():
    # the quadratic entropy is defined on signed densities; these are the answers before the cone check
    f, p = off_cone(), GaussianDensity(0.0, 1.0)
    assert rules.entropy("quadratic", f) == pytest.approx(0.24946753332376748, rel=1e-12)
    assert rules.euler_residual("quadratic", f) <= 1e-15
    assert rules.expected_score("quadratic", p, f) == pytest.approx(-0.13130897881420453, rel=1e-12)
    assert rules.expected_score("quadratic", f, p) == pytest.approx(0.08553129605945284, rel=1e-12)
    assert rules.divergence("quadratic", f, p) == pytest.approx(0.4134037705880834, rel=1e-12)
    assert rules.divergence("quadratic", p, f) == pytest.approx(0.4134037705880834, rel=1e-12)


def test_log_score_refuses_forecasts_off_the_cone():
    # the score's mass comes from the same refused sample as divergence's
    with pytest.raises(ZeroDensityError, match="nonnegative cone"):
        rules.score_at("logarithmic", off_cone(), 0.0, strict=False)


def _g_minus_g():
    g = GaussianDensity(0.0, 1.0)
    return g - g


# fields on the edge of, or off, each rule's domain
POLICY_FIELDS = {
    "signed-grid": lambda: GridField(0.0, 1.0, np.array([1.0, -0.5, 2.0, 0.5])),
    "zero-grid": lambda: GridField(0.0, 1.0, np.zeros(5)),
    "negative-bump": lambda: -Bump(0.0, 0.5),
    "g-minus-g": _g_minus_g,
    "grid-density": lambda: GridDensity(0.0, 1.0, 1.0 + np.linspace(0.0, 1.0, 401) ** 2),
}


def _outcome(call):
    """The call's float, or the type of the ConescoreError it raises or returns."""
    try:
        value = call()
    except ConescoreError as exc:
        return type(exc)
    return type(value) if isinstance(value, ConescoreError) else value


@pytest.mark.parametrize("rule, name", [(rule, name) for rule in rules.RULE_IDS for name in POLICY_FIELDS])
def test_entropy_and_its_lines_share_one_refusal_policy(rule, name):
    f = POLICY_FIELDS[name]()
    direct = _outcome(lambda: rules.entropy(rule, f))
    assert _outcome(lambda: entropy_line(rule, f)(f)) == direct
    assert _outcome(lambda: entropy_line(rule, f).along(f, f, [0.0])[0]) == direct


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_quadratic_entropy_whose_square_overflows_is_a_domain_error():
    components = (GaussianDensity(-0.4, 0.8), GaussianDensity(1.1, 2.2))
    with pytest.raises(DomainError, match=r"^the quadratic entropy of q overflows: q\.q = inf$"):
        rules.entropy("quadratic", MixtureDensity(components, (1e300, 1.0)))
    q = MixtureDensity(components, (0.3, 0.9))  # an ordinary field: q.q / q.1 on its node set, in that arithmetic
    ns = pairing.nodes_for(q)
    value = ns.sample(q).value
    assert rules.entropy("quadratic", q) == (ns.weights * value**2).sum() / (ns.weights * value).sum()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_hyvarinen_entropy_that_overflows_is_a_domain_error():
    q, p = GaussianDensity(0.0, 1.0, scale=1e200), GaussianDensity(0.3, 1.2)  # |grad q|^2 is past the float range
    for call in (
        lambda: rules.entropy("hyvarinen", q),
        lambda: rules.divergence("hyvarinen", q, p),
        lambda: rules.divergence("hyvarinen", q, q),
        lambda: rules.euler_residual("hyvarinen", q),
    ):
        with pytest.raises(DomainError, match=r"^the hyvarinen entropy of q overflows: \|grad q\|\^2 / q sums to inf$"):
            call()
    # q's scores and p's entropy stay in range: D(p, q) is scale-free, and the entropy at 1e150 is 1e150 times N(0, 1)'s
    assert rules.divergence("hyvarinen", p, q) == pytest.approx(rules.divergence("hyvarinen", p, GaussianDensity(0.0, 1.0)), rel=1e-9)
    assert rules.entropy("hyvarinen", GaussianDensity(0.0, 1.0, scale=1e150)) == pytest.approx(1e150, rel=1e-9)


def _cauchy_hyvarinen_score(x: float) -> float:
    """(4 - 8x^2) / (1 + x^2)^2, the Hyvarinen score of the Cauchy density, exactly and then rounded."""
    u = 1 + Fraction(x) ** 2
    return float((4 - 8 * Fraction(x) ** 2) / u**2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_power_law_hyvarinen_score_holds_its_closed_form_far_out():
    cauchy = PowerLawDensity(2.0)
    x = np.array([0.0, 0.7, 1e10, 1e78, 1e100, 1e150])  # past ~1e77 (1 + x^2)^2 overflowed and q's Laplacian underflows
    for xi, got in zip(x, rules.score_at("hyvarinen", cauchy, x)):
        assert got == pytest.approx(_cauchy_hyvarinen_score(xi), rel=1e-12, abs=0.0)
    assert np.all(np.isfinite(cauchy.sample(x, 2).laplacian))
    # past ~1e154 x^2 is inf and q is 0: refused, or +inf off strict, as wherever q vanishes
    with pytest.raises(ZeroDensityError):
        rules.score_at("hyvarinen", cauchy, [1e160])
    assert rules.score_at("hyvarinen", cauchy, [1e160, 1e300], strict=False).tolist() == [np.inf, np.inf]
    assert cauchy.sample([1e160], 1).value.tolist() == [0.0]


def test_a_ratio_sample_is_the_sample_over_a_positive_factor_per_point():
    x = np.linspace(-6.0, 6.0, 25)
    for f in (GaussianDensity(0.3, 0.8), MixtureDensity((GaussianDensity(-0.4, 0.8), GaussianDensity(1.1, 2.2)), (0.3, 0.9))):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(f.ratio_sample(x, 2), f.sample(x, 2)))
    law = PowerLawDensity(2.5, scale=0.8)
    s, r = law.sample(x, 2), law.ratio_sample(x, 2)
    assert np.all(r.value == 1.0)
    np.testing.assert_allclose(r.gradient, s.gradient / s.value, rtol=1e-15)
    np.testing.assert_allclose(r.laplacian, s.laplacian / s.value, rtol=1e-13)


# ---------------------------------------------------------------------------
# 2-D fields on a coarse scheme
# ---------------------------------------------------------------------------

# 2 panels per unit length: 256 nodes per axis on the radius-8 box
COARSE = pairing.QuadratureScheme(panels=2, nodes=8)


def mixture_2d():
    return MixtureDensity(
        (GaussianDensity([0.4, -0.3], [0.7, 1.2]), GaussianDensity([-0.6, 0.5], [1.0, 0.5])),
        (0.35, 0.8),
        scale=1.4,
    )


def test_fisher_divergence_2d_unit_covariance():
    p = GaussianDensity([0.5, -0.3], [1.0, 1.0], scale=2.0)
    q = GaussianDensity([-0.2, 0.4], [1.0, 1.0], scale=0.7)
    expected = 0.7**2 + 0.7**2  # |mu_p - mu_q|^2
    assert rules.divergence("hyvarinen", p, q, COARSE) == pytest.approx(expected, abs=1e-8)
    assert rules.hyvarinen_divergence_direct(p, q, COARSE) == pytest.approx(expected, abs=1e-8)


def test_kl_divergence_2d_diagonal_gaussians():
    mp, vp = np.array([0.3, -0.2]), np.array([0.6, 1.4])
    mq, vq = np.array([-0.1, 0.5]), np.array([1.1, 0.8])
    p, q = GaussianDensity(mp, vp, scale=1.5), GaussianDensity(mq, vq, scale=0.4)
    expected = 0.5 * float(np.sum(vp / vq + (mq - mp) ** 2 / vq - 1.0 + np.log(vq / vp)))
    assert rules.divergence("logarithmic", p, q, COARSE) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("rule", ["logarithmic", "hyvarinen", "quadratic"])
def test_euler_residual_2d_mixture(rule):
    assert rules.euler_residual(rule, mixture_2d(), COARSE) <= 1e-8


def _gaussian_product(ma, va, mb, vb):
    """Integral of N(ma, diag va) N(mb, diag vb)."""
    v = va + vb
    return float(np.prod(np.exp(-0.5 * (ma - mb) ** 2 / v) / np.sqrt(2.0 * np.pi * v)))


def test_wide_2d_gaussian_pairs_match_closed_forms():
    # the 1-D family's ranges: the uniform square refused most of these draws over its node budget
    rng = np.random.default_rng([6, 2])
    for _ in range(12):
        mp, mq, vp, vq = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2), rng.uniform(0.25, 4.0, 2), rng.uniform(0.25, 4.0, 2)
        p, q = GaussianDensity(mp, vp), GaussianDensity(mq, vq)
        expected = {
            "logarithmic": 0.5 * float(np.sum(vp / vq + (mq - mp) ** 2 / vq - 1.0 + np.log(vq / vp))),
            "hyvarinen": float(np.sum(((mp - mq) / vq) ** 2 + (1.0 / vq - 1.0 / vp) ** 2 * vp)),
            "quadratic": _gaussian_product(mp, vp, mp, vp) + _gaussian_product(mq, vq, mq, vq) - 2.0 * _gaussian_product(mp, vp, mq, vq),
        }
        for rule, value in expected.items():
            assert rules.divergence(rule, p, q) == pytest.approx(value, rel=1e-10, abs=0)


def test_each_gaussian_leaf_is_sampled_once_per_rules_call(monkeypatch):
    # value, gradient and Laplacian all go through one sample on the node set
    # the kernel pairs on; sizing the 2-D node set reads values on coarser
    # levels once, and a repeat call with the same leaves and scheme gets the
    # same set back, builds none and samples nothing.
    # A mixture samples its components in one pass, so it is the leaf counted
    samples = []  # (leaf id, node set, order); holding the sets keeps their ids unique
    kernel_sets = []
    original_nodes_for = pairing.nodes_for

    def counting(original):
        def sample_on(self, ns, order=0):
            samples.append((id(self), ns, order))
            return original(self, ns, order)

        return sample_on

    def recording(field, scheme=None):
        ns = original_nodes_for(field, scheme)
        kernel_sets.append(ns)
        return ns

    monkeypatch.setattr(GaussianDensity, "sample_on", counting(GaussianDensity.sample_on))
    monkeypatch.setattr(MixtureDensity, "sample_on", counting(MixtureDensity.sample_on))
    monkeypatch.setattr(pairing, "nodes_for", recording)
    calls = (
        lambda m, q: rules.divergence("hyvarinen", m, q, COARSE),
        lambda m, q: rules.euler_residual("hyvarinen", m, COARSE),
        lambda m, q: rules.hyvarinen_divergence_direct(m, q, COARSE),
    )
    for call, with_q in zip(calls, (True, False, True)):
        m, q = mixture_2d(), GaussianDensity([0.2, 0.1], [0.9, 1.1])
        leaves = {id(m)} | ({id(q)} if with_q else set())
        samples.clear()
        kernel_sets.clear()
        call(m, q)
        (kernel,) = kernel_sets
        on_kernel = Counter(leaf for leaf, x, _ in samples if x is kernel)
        assert set(on_kernel) == leaves and max(on_kernel.values()) == 1
        sizing = [(x, order) for _, x, order in samples if x is not kernel]
        assert sizing and all(order == 0 and x.weights.size < kernel.weights.size for x, order in sizing)
        samples.clear()
        kernel_sets.clear()
        call(m, q)
        (again,) = kernel_sets
        assert again is kernel and samples == []


def test_gaussian_fields_in_2d_never_build_the_node_points(monkeypatch):
    # Gaussians sample a tensor set from its axis, so nothing reads its (n, 2) points
    read = []
    points = pairing.NodeSet.points

    def reading(ns):
        if ns.axis is not None:
            read.append(ns)
        return points.fget(ns)

    monkeypatch.setattr(pairing.NodeSet, "points", property(reading))
    p, m = GaussianDensity([0.2, 0.1], [0.9, 1.1], scale=0.7), mixture_2d()
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        for value in (rules.divergence(rule, p, m), rules.entropy(rule, m), rules.euler_residual(rule, m)):
            assert np.isfinite(value)
    assert read == []


def test_a_power_law_in_2d_still_gets_its_node_points():
    f = PowerLawDensity(8.0, dim=2) + GaussianDensity([0.3, -0.2], [0.6, 0.9], scale=0.8)
    ns = pairing.nodes_for(f)
    xx, yy = np.meshgrid(ns.axis, ns.axis, indexing="ij")
    assert np.array_equal(ns.points, np.column_stack([xx.ravel(), yy.ravel()]))
    assert ns.points is ns.points  # built once, then kept
    assert abs(ns.mass(f) - 1.8) <= 1e-12


# minor page faults of the second 2-D divergence per smooth rule, in an interpreter that imports the package only
FAULT_PROBE = """
import resource, sys
from conescore import rules
from conescore.densities import GaussianDensity
p, q = GaussianDensity([0.3, -0.2], [0.6, 0.9]), GaussianDensity([-0.1, 0.4], [1.1, 0.7])
for rule in [name for name, r in rules.RULES.items() if r.analytic]:
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rules.divergence(rule, p, q)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(rule, faults)
print("cli", "conescore.cli" in sys.modules)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed-heap setting acts on glibc's malloc only")
def test_library_2d_divergences_keep_their_heap():
    src = str(Path(rules.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    assert counts.pop("cli") == "False"
    assert {rule: int(n) for rule, n in counts.items() if int(n) > 64} == {}


# ---------------------------------------------------------------------------
# kernels against their np.where formulas, bit for bit
# ---------------------------------------------------------------------------

# The kernels as they were written with np.where copies: the in-place kernels must give their bits.
def _quiet_ref(kernel):
    return np.errstate(divide="ignore", invalid="ignore")(kernel)


def _ref_norm_sq(s):
    g = s.gradient
    return g**2 if np.ndim(g) == np.ndim(s.value) else g[..., 0] ** 2 + g[..., 1] ** 2


def _ref_log_gradient(s, floor=rules.LOG_CLAMP):
    g, qf = s.gradient, np.maximum(s.value, floor)
    return Sample(s.value, g / (qf if np.ndim(g) == np.ndim(qf) else np.expand_dims(qf, -1)))


def _ref_pair(name, w, pv, scores, support):
    live = np.isfinite(scores)
    if np.any(~live & (np.abs(pv) > support)):
        raise ZeroDensityError(f"{name} score blows up where p has support")
    return float(np.sum(w * np.where(live & (pv != 0), pv * np.where(live, scores, 0.0), 0.0)))


@_quiet_ref
def _ref_log_ratio(qv, mass, floor=rules.LOG_CLAMP):
    return np.log(np.maximum(qv, floor) / mass)


@_quiet_ref
def _ref_log_entropy(w, s, m):
    return (w * np.where(s.value > 0, s.value * _ref_log_ratio(s.value, np.expand_dims(m, -1)), 0.0)).sum(axis=-1)


@_quiet_ref
def _ref_hyvarinen_entropy(w, s, m):
    return (w * np.where(s.value > 0, _ref_norm_sq(s) / np.maximum(s.value, rules.LOG_CLAMP), 0.0)).sum(axis=-1)


@_quiet_ref
def _ref_hyvarinen_score(s, mass, w, ref, floor):
    return np.where(s.value > 0, -2.0 * s.laplacian / np.maximum(s.value, floor) + _ref_norm_sq(_ref_log_gradient(s, floor)), np.inf)


def _ref_quadratic_score(s, mass, w, ref, floor):
    q2, m2 = np.sum(w * ref.value**2), np.float64(mass) ** 2
    return 2.0 * s.value / mass - q2 / m2


@_quiet_ref
def _ref_log_divergence(w, ps, mp, qs, mq, diagnostics):
    ph, qh = ps.value / mp, qs.value / mq
    if diagnostics is not None and bool(np.any((qh < rules.LOG_CLAMP) & (ph > pairing.SUPPORT_THRESHOLD))):
        diagnostics["log_clamped"] = True
    return _ref_pair("logarithmic", w, ph, _ref_log_ratio(ph, 1.0) - _ref_log_ratio(qh, 1.0), pairing.SUPPORT_THRESHOLD)


def _ref_quadratic_divergence(w, ps, mp, qs, mq, diagnostics):
    return float(np.sum(w * (ps.value / mp - qs.value / mq) ** 2))


def _ref_fisher_divergence(w, ps, mp, qs):
    live = (ps.value > 0) & (qs.value > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff2 = _ref_norm_sq(Sample(ps.value, _ref_log_gradient(ps).gradient - _ref_log_gradient(qs).gradient))
    terms = np.where(live, ps.value * np.where(np.isfinite(diff2), diff2, 0.0), 0.0)
    return float(np.sum(w * terms) / mp)


def _bits(x):
    """Every value's float.hex (which tells -0.0 from 0.0) and sign bit."""
    a = np.asarray(x, dtype=float).ravel()
    return [v.hex() for v in a.tolist()], np.signbit(a).tolist()


def _frozen(*arrays):
    """Read-only arrays, as a node set keeps its samples: a kernel that writes into one raises."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


def _edge_values(rng, shape):
    """Values with zeros, -0.0, negatives and values under LOG_CLAMP among ordinary positive ones."""
    v = rng.lognormal(0.0, 2.0, shape)
    pick = rng.random(shape)
    v[pick < 0.1] = 0.0
    v[(pick >= 0.1) & (pick < 0.2)] = -0.0
    v[(pick >= 0.2) & (pick < 0.3)] *= -1.0
    v[(pick >= 0.3) & (pick < 0.35)] = 1e-310
    return v


def _edge_sample(rng, shape, dim):
    """A sample of values, gradients and Laplacians; the 2-D gradient is an (..., n, 2) view, as a tensor set's is."""
    v = _edge_values(rng, shape)
    g = rng.normal(0.0, 3.0, (dim,) + shape)
    g[:, rng.random(shape) < 0.05] = -0.0
    g = g[0] if dim == 1 else np.moveaxis(g, 0, -1)
    lap = rng.normal(0.0, 3.0, shape)
    return Sample(*_frozen(v, g, lap))


_KERNEL_CASES = [(shape, dim) for shape in ((257,), (3, 257)) for dim in (1, 2)]


@pytest.mark.parametrize("shape, dim", _KERNEL_CASES, ids=lambda c: str(c))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entropy_kernels_give_the_bits_of_their_formulas(shape, dim, seed):
    rng = np.random.default_rng([seed, len(shape), dim])
    s = _edge_sample(rng, shape, dim)
    (w,) = _frozen(rng.random(shape[-1]))
    m = (w * np.abs(s.value)).sum(axis=-1)  # the finite-difference engine's rows carry one mass per row
    m = float(m) if m.ndim == 0 else _frozen(m)[0]
    assert _bits(rules._hyvarinen_entropy(w, s, m)) == _bits(_ref_hyvarinen_entropy(w, s, m))
    if dim == 1:
        assert _bits(rules._log_entropy(w, s, m)) == _bits(_ref_log_entropy(w, s, m))
        assert _bits(rules.RULES["logarithmic"].entropy(w, s, m)) == _bits(_ref_log_entropy(w, s, m))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_kernels_give_the_bits_of_their_formulas(dim, seed):
    rng = np.random.default_rng([seed, dim])
    s = _edge_sample(rng, (257,), dim)
    (w,) = _frozen(rng.random(257))
    ref = Sample(*_frozen(np.abs(s.value)))
    mass = float((w * ref.value).sum())
    points = [s] + [Sample(*(a[i] for a in s)) for i in range(12)]  # 0-d values, as score_at passes at one point
    points += [Sample(float(s.value[i]), float(s.gradient[i]) if dim == 1 else s.gradient[i], float(s.laplacian[i])) for i in range(12)]
    for x in points:
        for floor in (0.0, rules.LOG_CLAMP):
            with np.errstate(over="ignore"):  # both overflow alike, dividing by values under LOG_CLAMP
                assert _bits(rules._hyvarinen_score(x, mass, w, ref, floor)) == _bits(_ref_hyvarinen_score(x, mass, w, ref, floor))
            assert _bits(rules.RULES["logarithmic"].score(x, mass, w, ref, floor)) == _bits(_ref_log_ratio(x.value, mass, floor))
            assert _bits(rules._quadratic_score(x, mass, w, ref, floor)) == _bits(_ref_quadratic_score(x, mass, w, ref, floor))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_divergence_kernels_give_the_bits_of_their_formulas(dim, seed):
    rng = np.random.default_rng([seed, dim, 7])
    ps, qs = _edge_sample(rng, (257,), dim), _edge_sample(rng, (257,), dim)
    (w,) = _frozen(rng.random(257))
    mp, mq = float((w * np.abs(ps.value)).sum()), float((w * np.abs(qs.value)).sum())
    got, expected = {}, {}
    assert _bits(rules._log_divergence(w, ps, mp, qs, mq, got)) == _bits(_ref_log_divergence(w, ps, mp, qs, mq, expected))
    assert got == expected == {"log_clamped": True}
    assert _bits(rules._quadratic_divergence(w, ps, mp, qs, mq, None)) == _bits(_ref_quadratic_divergence(w, ps, mp, qs, mq, None))
    with np.errstate(over="ignore"):  # both overflow alike, dividing by values under LOG_CLAMP
        assert _bits(rules._fisher_divergence(w, ps, mp, qs)) == _bits(_ref_fisher_divergence(w, ps, mp, qs))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_gives_the_bits_of_its_formula(seed):
    rng = np.random.default_rng([seed, 11])
    pv = _edge_values(rng, (257,))
    scores = rng.normal(0.0, 5.0, 257)
    dead = rng.random(257) < 0.2
    scores[dead] = rng.choice([np.inf, -np.inf, np.nan], int(dead.sum()))
    pv[dead] = rng.choice([0.0, -0.0, 1e-13, -1e-13], int(dead.sum()))  # |p| <= support: a non-finite score counts as zero
    w, pv, scores = _frozen(rng.random(257), pv, scores)
    assert _bits(rules._pair("r", w, pv, scores, 1e-12)) == _bits(_ref_pair("r", w, pv, scores, 1e-12))
    with pytest.raises(ZeroDensityError, match="r score blows up"):
        rules._pair("r", w, pv, scores, 1e-14)
    # a node where p = 0 adds +0.0, so a sum of nothing but such nodes is +0.0, not -0.0
    for scores in ([-1.0, 2.0, -3.0], [-1.0, 2.0, np.inf]):
        w, pv, scores = _frozen(np.ones(3), np.array([0.0, -0.0, 0.0]), np.array(scores))
        assert _bits(rules._pair("r", w, pv, scores, 0.0)) == _bits(_ref_pair("r", w, pv, scores, 0.0)) == (["0x0.0p+0"], [False])


def test_pair_convention_holds_through_the_rule_calls():
    # on nodes out to 3, q = (1 - x^2)^2 vanishes past 1, where its Hyvarinen score is +inf: that score raises
    # where |p| > support and counts as zero where |p| <= support; a finite score where p = 0 adds +0.0
    q, scheme = Bump(0.0, 1.0), pairing.QuadratureScheme(radius=3.0)
    faint = Bump(0.2, 0.5) + 1e-14 * GaussianDensity(0.0, 1.0)  # 0 < p <= support past 1
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        record = rules.RULES[rule]
        for p in (Bump(0.2, 0.5), faint, GaussianDensity(0.0, 1.0)):
            ns = pairing.nodes_for(p + q, scheme)
            (ps, mp, _), (qs, mq, _) = ns.sampled(p), ns.sampled(q, record.score_order)
            scores = record.score(qs, mq, ns.weights, qs, rules.LOG_CLAMP)
            support = pairing.SUPPORT_THRESHOLD * mp
            assert np.all(np.isfinite(scores) == (rule != "hyvarinen") | (qs.value > 0)) and np.any(qs.value == 0)
            if np.any(~np.isfinite(scores) & (np.abs(ps.value) > support)):
                assert rule == "hyvarinen" and isinstance(p, GaussianDensity)
                with pytest.raises(ZeroDensityError, match="score blows up where p has support"):
                    rules.expected_score(rule, p, q, scheme)
                continue
            assert np.any(ps.value == 0) or np.any((ps.value != 0) & (np.abs(ps.value) <= support)) or rule != "hyvarinen"
            expected = _ref_pair(rule, ns.weights, ps.value, scores, support) / mp
            assert _bits(rules.expected_score(rule, p, q, scheme)) == _bits(expected)
        ns = pairing.nodes_for(q, scheme)
        qs, mq, _ = ns.sampled(q, record.score_order)
        scores = record.score(qs, mq, ns.weights, qs, rules.LOG_CLAMP)
        phi = float(record.entropy(ns.weights, qs, mq))
        expected = abs(_ref_pair(rule, ns.weights, qs.value, scores, pairing.SUPPORT_THRESHOLD * mq) - phi) / abs(phi)
        assert _bits(rules.euler_residual(rule, q, scheme)) == _bits(expected)
