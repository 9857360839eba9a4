"""Density families, field algebra, cone checks, and homogeneous extensions."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conescore import densities, pairing, rules
from conescore.densities import (
    Bump,
    GaussianDensity,
    GridDensity,
    GridField,
    GridInfo,
    MixtureDensity,
    PowerLawDensity,
    cone_check,
    cone_spec_from_config,
    default_cone_spec,
    density_from_config,
    require_cone,
)
from conescore.errors import (
    ConeMembershipError,
    DomainError,
    InvalidParameterError,
    NodeBudgetError,
    UnsupportedFamilyError,
    ZeroMassError,
)


def fd_gradient(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_laplacian(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------

def test_gaussian_value_matches_closed_form():
    q = GaussianDensity(1.0, 4.0)
    x = np.array([-1.0, 0.0, 2.5])
    expected = np.exp(-0.5 * (x - 1.0) ** 2 / 4.0) / np.sqrt(8.0 * np.pi)
    np.testing.assert_allclose(q.value(x), expected, rtol=1e-14)


@pytest.mark.parametrize("family", [
    GaussianDensity(0.5, 0.8),
    PowerLawDensity(3.0),
    MixtureDensity((GaussianDensity(-1.0, 0.5), GaussianDensity(1.5, 2.0)), (0.3, 0.9)),
    Bump(0.2, 0.6, 1.3),
])
def test_gradient_and_laplacian_match_finite_differences(family):
    for x in (-0.7, 0.1, 0.9):
        np.testing.assert_allclose(
            family.gradient(x), fd_gradient(family.value, x), rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            family.laplacian(x), fd_laplacian(family.value, x), rtol=1e-4, atol=1e-6
        )


def test_gaussian_total_mass_equals_scale():
    assert GaussianDensity(0.0, 1.0, scale=2.5).total_mass() == pytest.approx(2.5, abs=1e-12)


def test_mixture_total_mass_is_weight_sum():
    q = MixtureDensity((GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 0.5)), (0.4, 1.1))
    assert q.total_mass() == pytest.approx(1.5, abs=1e-10)


def test_power_law_is_normalised():
    assert PowerLawDensity(2.0).total_mass() == pytest.approx(1.0, abs=1e-9)
    assert PowerLawDensity(2.0).value(0.0) == pytest.approx(1.0 / np.pi, rel=1e-12)


# erfc of the bound's own z values, to 20 digits (mpmath at 40 digits)
@pytest.mark.parametrize(
    "mean, var, scale, radius, expected",
    [
        ([0.5, -1.0], [0.5, 2.0], 3.0, 4.0, 0.10168678986918492228),
        ([0.25], [1.5], 1.0, 6.0, 2.6679545936247914814e-6),
        ([0.0], [1.0], 2.0, 1.0, 0.63462101572582829146),
        ([5.0], [1.0], 2.0, 2.0, 2.0),  # radius inside |mean|: z clips at 0, erfc(0) = 1
    ],
)
def test_gaussian_tail_bound_matches_its_erfc_closed_form(mean, var, scale, radius, expected):
    bound = GaussianDensity(mean, var, scale).tail_mass_bound(radius)
    assert bound == pytest.approx(expected, rel=1e-15, abs=0)


def _power_law_norm_1d(beta: int) -> float:
    """sqrt(pi) Gamma((beta - 1)/2) / Gamma(beta/2) for integer beta, in exact rationals (times pi if even)."""
    if beta % 2 == 0:
        k = beta // 2
        ratio = Fraction(1)
        for j in range(1, k):
            ratio *= Fraction(2 * j - 1, 2 * j)
        return float(ratio) * math.pi
    m = (beta - 1) // 2
    ratio = Fraction(math.factorial(m - 1))
    for j in range(1, m + 1):
        ratio /= Fraction(2 * j - 1, 2)
    return float(ratio)


@pytest.mark.parametrize("beta", range(2, 16))
def test_power_law_normaliser_matches_its_closed_form(beta):
    assert 1.0 / PowerLawDensity(float(beta)).value(0.0) == pytest.approx(_power_law_norm_1d(beta), rel=1e-15, abs=0)
    if beta > 2:
        assert PowerLawDensity(float(beta), dim=2).value([0.0, 0.0]) == pytest.approx((beta - 2) / (2 * math.pi), rel=1e-15)


def test_power_law_normaliser_beyond_the_gamma_overflow():
    # exp(lgamma - lgamma) loses about |lgamma| ulps (|lgamma(200)| ~ 857)
    assert 1.0 / PowerLawDensity(400.0).value(0.0) == pytest.approx(_power_law_norm_1d(400), rel=1e-12)


def test_half_max_width_is_where_the_profile_halves():
    for q, centre, axis in (
        (GaussianDensity(0.4, 0.3), 0.4, None),
        (GaussianDensity([0.4, -1.0], [2.0, 0.3]), np.array([0.4, -1.0]), np.array([0.0, 1.0])),
        (PowerLawDensity(2.5), 0.0, None),
        (PowerLawDensity(7.0, dim=2), np.zeros(2), np.array([1.0, 0.0])),
        (Bump(0.3, 0.7, -1.5), 0.3, None),
    ):
        step = 0.5 * q.half_max_width() * (1.0 if axis is None else axis)
        assert q.value(centre + step) == pytest.approx(0.5 * q.value(centre), rel=1e-12)
    narrow, wide = GaussianDensity(0.0, 0.01), GaussianDensity(1.0, 4.0)
    assert MixtureDensity((wide, narrow), (1.0, 1.0)).half_max_width() == narrow.half_max_width()
    assert (wide - 2.0 * narrow).half_max_width() == narrow.half_max_width()
    assert Bump(0.0, 1.0).half_max_width() == pytest.approx(1.0824, abs=1e-4)  # 2h sqrt(1 - 2^-1/2)
    assert Bump([0.0, 0.0], 1.0).half_max_width() == 0.0  # its kink is a circle: 2-D node sets stay at the cap


def test_breakpoints_are_the_one_dimensional_bump_edges():
    assert Bump(0.3, 0.5).breakpoints() == (-0.2, 0.8)
    assert Bump([0.3, 0.0], 0.5).breakpoints() == ()
    assert GaussianDensity(0.0, 1.0).breakpoints() == ()
    combo = Bump(1.0, 0.5) - 2.0 * Bump(-1.0, 0.5) + Bump(1.5, 1.0) + GaussianDensity(0.0, 1.0)
    assert combo.breakpoints() == (-1.5, -0.5, 0.5, 1.5, 2.5)  # the union, ascending, each once


def test_two_dimensional_power_law_config_builds():
    q = density_from_config({"family": "power_law", "beta": 4, "dim": 2})
    assert q.dim == 2 and q.total_mass() == pytest.approx(1.0, abs=1e-10)


def test_power_law_requires_integrable_exponent():
    with pytest.raises(InvalidParameterError):
        PowerLawDensity(1.0)
    with pytest.raises(InvalidParameterError):
        PowerLawDensity(2.0, dim=2)


def test_bump_mass_closed_form():
    # by quadrature: c - h and c + h are panel edges, so each panel holds one quartic piece
    b = Bump(0.3, 0.25, 1.7)
    assert b.total_mass() == pytest.approx(16.0 * 1.7 * 0.25 / 15.0, rel=1e-15)
    assert b.value(np.array([0.3 + 0.3])) == 0.0  # outside the support


@pytest.mark.parametrize("mean,var,pts", [
    (0.4, 1.7, np.linspace(-9.0, 9.0, 301)),
    ([0.3, -0.8], [0.6, 1.9], np.random.default_rng(3).normal(0.0, 2.0, (257, 2))),
])
def test_gaussian_sample_is_bit_identical_to_the_direct_formulas(mean, var, pts):
    q = GaussianDensity(mean, var, scale=1.3)
    x = pts.reshape(len(pts), -1)
    value = (1.3 / np.prod(np.sqrt(2.0 * np.pi * q.var))) * np.exp(-0.5 * ((x - q.mean) ** 2 / q.var).sum(axis=1))
    gradient = value[:, None] * (-(x - q.mean) / q.var)
    z = (x - q.mean) / q.var
    laplacian = value * ((z**2).sum(axis=1) - (1.0 / q.var).sum())
    s = q.sample(pts, 2)
    np.testing.assert_array_equal(s.value, value)
    np.testing.assert_array_equal(s.gradient, gradient[:, 0] if q.dim == 1 else gradient)
    np.testing.assert_array_equal(s.laplacian, laplacian)
    assert q.sample(pts).gradient is None and q.sample(pts, 1).laplacian is None


def test_sample_shapes_follow_the_pointwise_methods():
    q2 = GaussianDensity([0.0, 1.0], [1.0, 2.0])
    s = q2.sample(np.array([0.5, 0.5]), 2)
    assert isinstance(s.value, float) and s.gradient.shape == (2,) and isinstance(s.laplacian, float)
    s = GaussianDensity(0.0, 1.0).sample(0.3, 1)
    assert isinstance(s.value, float) and isinstance(s.gradient, float)


def test_mixture_and_combination_sum_leaf_samples_in_term_order():
    a, b = GaussianDensity(-1.0, 0.5), GaussianDensity(1.5, 2.0)
    m = MixtureDensity((a, b), (0.3, 0.9), scale=1.7)
    bump = Bump(0.2, 0.6, -0.4)
    x = np.linspace(-6.0, 6.0, 97)
    sa, sb = a.sample(x, 2), b.sample(x, 2)
    for got, ga, gb in zip(m.sample(x, 2), sa, sb):
        np.testing.assert_array_equal(got, (1.7 * 0.3) * ga + (1.7 * 0.9) * gb)
    combo = 2.0 * m - bump
    sm, sbump = m.sample(x, 2), bump.sample(x, 2)
    for got, gm, gbump, op in zip(combo.sample(x, 2), sm, sbump, ("value", "gradient", "laplacian")):
        np.testing.assert_array_equal(got, 2.0 * gm + -1.0 * gbump)
        np.testing.assert_array_equal(got, getattr(combo, op)(x))
        np.testing.assert_array_equal(gbump, getattr(bump, op)(x))


# The pointwise formulas each family had as separate value / gradient / laplacian
# methods, written out here as the reference its one-pass sample must reproduce.

def _power_law_reference(q, pts):
    r2 = (pts**2).sum(axis=1)
    values = (q.scale / q._norm) * (1.0 + r2) ** (-0.5 * q.beta)
    g = values[:, None] * (-q.beta * pts / (1.0 + r2)[:, None])
    b, d = q.beta, q.dim
    factor = (b**2 + 2.0 * b) * r2 / (1.0 + r2) ** 2 - b * d / (1.0 + r2)
    return values, g[:, 0] if d == 1 else g, values * factor


def _bump_reference(b, pts):
    u2 = ((pts - b.center) ** 2).sum(axis=1) / b.halfwidth**2
    d = b.dim
    value = np.where(u2 < 1.0, b.amplitude * (1.0 - u2) ** 2, 0.0)
    g = np.where((u2 < 1.0)[:, None], -4.0 * b.amplitude * (1.0 - u2)[:, None] * (pts - b.center) / b.halfwidth**2, 0.0)
    lap = np.where(u2 < 1.0, -4.0 * b.amplitude / b.halfwidth**2 * (d - (d + 2.0) * u2), 0.0)
    return value, g[:, 0] if d == 1 else g, lap


def _grid_reference(f, pts):
    slopes = np.gradient(f.values, f.grid.spacing)
    return np.interp(pts[:, 0], f.grid.points(), f.values), np.interp(pts[:, 0], f.grid.points(), slopes)


_RNG = np.random.default_rng(12)


@pytest.mark.parametrize("field,reference,pts", [
    (PowerLawDensity(2.7, scale=1.3), _power_law_reference, np.linspace(-40.0, 40.0, 161)),
    (PowerLawDensity(3.4, dim=2, scale=0.7), _power_law_reference, _RNG.normal(0.0, 3.0, (129, 2))),
    (Bump(0.3, 0.8, -0.6), _bump_reference, np.concatenate([np.linspace(-1.0, 1.6, 131), [0.3 - 0.8, 1.1]])),
    (Bump([0.2, -0.4], 0.9, 1.7), _bump_reference, np.vstack([_RNG.uniform(-1.5, 1.5, (129, 2)), [[1.1, -0.4]]])),
    (GridField(-1.0, 2.0, _RNG.normal(0.0, 1.0, 31)), _grid_reference, np.concatenate([np.linspace(-1.0, 2.0, 97), [0.55]])),
], ids=["power-law-1d", "power-law-2d", "bump-1d", "bump-2d", "grid"])
def test_one_pass_sample_is_bit_identical_to_the_pointwise_formulas(field, reference, pts):
    x = pts.reshape(len(pts), -1)
    expected = reference(field, x)
    ops = ("value", "gradient", "laplacian")[: len(expected)]
    for order in range(len(expected)):
        s = field.sample(pts, order)
        assert all(a is None for a in s[order + 1 :])
        for got, want, op in zip(s, expected[: order + 1], ops):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert getattr(field, op)(pts).tobytes() == want.tobytes()
        # one point, given as a scalar in 1-D or as a vector in 2-D
        s = field.sample(pts[0], order)
        for got, want in zip(s, expected[: order + 1]):
            if np.ndim(want[0]) == 0:
                assert type(got) is float and got == float(want[0])
            else:
                assert got.tobytes() == want[0].tobytes()


def test_grid_sample_refuses_a_laplacian_and_points_off_the_grid():
    f = GridField(0.0, 1.0, np.linspace(1.0, 2.0, 11))
    with pytest.raises(UnsupportedFamilyError):
        f.sample(np.array([0.5]), 2)
    with pytest.raises(UnsupportedFamilyError):
        f.laplacian(0.5)
    for order in (0, 1):
        with pytest.raises(DomainError):
            f.sample(np.array([0.5, 1.2]), order)


def test_bump_tail_bound_is_nonnegative_for_negative_amplitudes():
    bound = Bump(0.0, 1.0, -1.0).tail_mass_bound(0.5)
    assert bound >= 0.0
    assert bound == pytest.approx(16.0 / 15.0)
    assert Bump(0.0, 1.0, -1.0).tail_mass_bound(1.0) == 0.0


def test_negative_bump_cannot_cancel_a_real_tail():
    wide = GaussianDensity(0.0, 100.0)
    combo = wide + Bump(0.0, 70.0, -1.0)
    assert combo.tail_mass_bound(64.0) >= wide.tail_mass_bound(64.0) > 0.0


def test_invalid_gaussian_parameters():
    with pytest.raises(InvalidParameterError):
        GaussianDensity(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        GaussianDensity(0.0, -1.0)
    with pytest.raises(InvalidParameterError):
        MixtureDensity((GaussianDensity(0.0, 1.0),), (-0.5,))


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------

def test_combination_evaluates_linearly():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(1.0, 2.0)
    combo = 2.0 * p - q
    x = np.array([-0.5, 0.0, 1.2])
    np.testing.assert_allclose(combo.value(x), 2.0 * p.value(x) - q.value(x), rtol=1e-14)
    np.testing.assert_allclose(
        combo.gradient(x), 2.0 * p.gradient(x) - q.gradient(x), rtol=1e-14
    )


def test_combination_flattens_nested_terms():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(1.0, 2.0)
    combo = (p + q) + 0.5 * (p - q)
    flat_fields = [f for _, f in combo.terms()]
    assert all(not hasattr(f, "terms") or f in (p, q) for f in flat_fields)
    assert combo.value(0.3) == pytest.approx(1.5 * p.value(0.3) + 0.5 * q.value(0.3))


def test_combination_rejects_mixed_dimensions():
    p = GaussianDensity(0.0, 1.0)
    q2 = GaussianDensity([0.0, 0.0], 1.0)
    with pytest.raises(InvalidParameterError):
        _ = p + q2


def test_combination_rejects_mismatched_grids():
    a = GridDensity(0.0, 1.0, np.ones(11))
    b = GridDensity(0.0, 2.0, np.ones(11))
    with pytest.raises(InvalidParameterError):
        _ = a + b


def test_total_mass_cache_reuses_value():
    q = GaussianDensity(0.0, 1.0)
    first = q.total_mass()
    assert q.total_mass() is first or q.total_mass() == first


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

def test_grid_interpolation_and_domain_error():
    g = GridDensity(0.0, 1.0, np.linspace(1.0, 2.0, 11))
    assert g.value(0.05) == pytest.approx(1.05, abs=1e-12)
    with pytest.raises(DomainError):
        g.value(1.5)
    with pytest.raises(UnsupportedFamilyError):
        g.laplacian(0.5)


def test_grid_density_must_be_nonnegative_somewhere_positive():
    with pytest.raises(InvalidParameterError):
        GridDensity(0.0, 1.0, np.array([1.0, -0.1, 1.0]))
    with pytest.raises(InvalidParameterError):
        GridDensity(0.0, 1.0, np.zeros(5))
    # signed values are fine for a plain field
    GridField(0.0, 1.0, np.array([1.0, -0.1, 1.0]))


def test_grid_info_spacing_and_points():
    info = GridInfo(0.0, 1.0, 5)
    assert info.spacing == pytest.approx(0.25)
    np.testing.assert_allclose(info.points(), [0.0, 0.25, 0.5, 0.75, 1.0])


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_density_from_config_round_trip():
    q = density_from_config({"family": "gaussian", "mean": 0.5, "var": 2.0})
    assert isinstance(q, GaussianDensity)
    m = density_from_config(
        {
            "family": "mixture",
            "components": [
                {"mean": 0.0, "var": 1.0},
                {"mean": 1.0, "var": 0.5},
            ],
            "weights": [0.5, 0.5],
        }
    )
    assert isinstance(m, MixtureDensity)
    g = density_from_config({"family": "grid", "domain": [0, 1], "values": [1, 2, 1]})
    assert isinstance(g, GridDensity)
    c = density_from_config({"family": "power_law", "beta": 2.0})
    assert isinstance(c, PowerLawDensity)


def test_density_from_config_rejects_unknown_family():
    with pytest.raises((InvalidParameterError, UnsupportedFamilyError)):
        density_from_config({"family": "tribonacci"})
    with pytest.raises(InvalidParameterError):
        density_from_config({"mean": 0.0})


def test_config_fields_are_constructor_keywords():
    q = density_from_config({"family": "gaussian", "mean": 0.0, "var": 1.0})
    assert q.value(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi))
    c = density_from_config({"family": "Power_Law", "beta": 3.5, "dim": 2.0, "scale": 0.5})
    assert (c.beta, c.dim, c.scale) == (3.5, 2, 0.5) and type(c.dim) is int  # a float dim is stored as an integer
    assert c.value([0.1, 0.2]) == PowerLawDensity(3.5, dim=2, scale=0.5).value([0.1, 0.2])
    g = density_from_config({"family": "grid", "domain": [0, 2], "values": [1, 2, 1], "scale": 3.0})
    assert (g.lo, g.hi, g.values.tolist()) == (0.0, 2.0, [3.0, 6.0, 3.0])
    # components are gaussian configs, read by the same reader: their family is optional and their scale is kept
    m = density_from_config(
        {
            "family": "mixture",
            "components": [{"mean": 0.0, "var": 1.0}, {"family": "gaussian", "mean": 1.0, "var": 2.0, "scale": 4.0}],
            "weights": [0.5, 2.0],
            "scale": 1.5,
        }
    )
    expected = MixtureDensity((GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 2.0, scale=4.0)), (0.5, 2.0), scale=1.5)
    xs = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(m.value(xs), expected.value(xs))


@pytest.mark.parametrize(
    "config, message",
    [
        ({"family": "gaussian", "mean": 0.0, "var": 1.0, "dim": 1}, "unexpected keyword argument 'dim'"),
        ({"family": "gaussian", "mean": 0.0}, "missing 1 required positional argument: 'var'"),
        ({"family": "mixture", "components": [{"family": "power_law", "beta": 2.0}], "weights": [1.0]}, "unknown mixture component family 'power_law'"),
        ({"family": "mixture", "components": [[0.0, 1.0]], "weights": [1.0]}, "is not a mapping"),
        ({"family": "power_law", "beta": 3.5, "dim": 1.5}, "only dimensions 1 and 2 are supported"),
        ({"family": "grid", "domain": [1.0, 0.0], "values": [1.0, 1.0]}, "grid domain must satisfy lo < hi"),
        ([{"family": "gaussian"}], "density config must be a dict, got list"),
    ],
    ids=["gaussian-dim", "gaussian-no-var", "mixture-power-law", "mixture-list", "power-law-dim", "grid-reversed", "list"],
)
def test_density_from_config_refuses_what_its_constructor_cannot_take(config, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        density_from_config(config)


def test_config_mass_is_computed_at_the_callers_scheme():
    # a 2-D beta = 3 power law needs a lower panel cap than the default scheme's
    q = density_from_config({"family": "power_law", "beta": 3, "dim": 2})
    assert q.total_mass(pairing.QuadratureScheme(panels=2)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(NodeBudgetError):
        q.total_mass()


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_gaussian_fails_polynomial_envelope():
    # Gaussian tails sink below any polynomial lower envelope
    report = cone_check(GaussianDensity(0.0, 1.0), default_cone_spec("logarithmic", 1))
    assert not report.member
    assert report.witnesses
    assert all(abs(w.point[0]) > 5.0 for w in report.witnesses)


def test_cauchy_passes_polynomial_envelope():
    spec = cone_spec_from_config(
        {"kind": "shannon_envelope", "a": 2, "c1": 1.0 / (2.0 * np.pi), "c2": 2.0 / np.pi}
    )
    report = cone_check(PowerLawDensity(2.0), spec)
    assert report.member, report.witnesses[:3]


def test_gaussians_inside_growth_cone():
    spec = default_cone_spec("hyvarinen", 1)
    assert cone_check(GaussianDensity(0.0, 1.0), spec).member
    assert cone_check(GaussianDensity(-1.5, 3.0), spec).member


def test_cone_check_is_scale_invariant():
    spec = default_cone_spec("hyvarinen", 1)
    q = GaussianDensity(0.0, 1.0)
    assert cone_check(q * 1000.0, spec).member == cone_check(q, spec).member


def _reference_growth_report(q, spec):
    """The growth cone check from separate value, gradient and Laplacian calls."""
    pts = densities.probe_points(spec.dim)
    radii = np.abs(pts) if pts.ndim == 1 else np.sqrt((pts**2).sum(axis=1))
    vhat = np.asarray(q.value(pts), dtype=float) / q.total_mass()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(q.value(pts), dtype=float)
        grads = np.asarray(q.gradient(pts), dtype=float)
        laps = np.asarray(q.laplacian(pts), dtype=float)
        gnorm = np.abs(grads) if spec.dim == 1 else np.sqrt((grads**2).sum(axis=1))
        floor = densities._RATIO_FLOOR
        ratio = np.where(vals > floor, (gnorm + np.abs(laps)) / np.maximum(vals, floor), 0.0)
    growth = spec.c1 * (1.0 + radii) ** spec.k
    w1, ws1 = densities._collect(growth - ratio, pts, "growth", ratio, growth)
    upper = spec.c2 * (1.0 + radii) ** (-(spec.dim + 1.0 + spec.k**2))
    w2, ws2 = densities._collect(upper - vhat, pts, "upper_envelope", vhat, upper)
    worst = min(w1, w2)
    return densities.ConeReport(worst >= 0, worst, tuple((ws1 + ws2)[: densities._MAX_WITNESSES]), int(vhat.size))


@pytest.mark.parametrize(
    "q",
    [
        GaussianDensity(-1.5, 3.0),
        MixtureDensity((GaussianDensity(-1.0, 0.5), GaussianDensity(2.0, 2.0)), (0.3, 0.7), scale=2.0),
        PowerLawDensity(2.0),
    ],
    ids=["gaussian", "mixture", "cauchy"],
)
def test_growth_cone_check_reads_one_sample_with_the_same_report(q, monkeypatch):
    specs = [default_cone_spec("hyvarinen", 1), densities.HyvarinenGrowth(c1=0.5, k=0.5, c2=0.05)]
    expected = [_reference_growth_report(q, spec) for spec in specs]
    assert not expected[1].member and expected[1].witnesses
    orders = []
    sample = type(q).sample
    monkeypatch.setattr(type(q), "sample", lambda self, x, order=0: orders.append(order) or sample(self, x, order))
    for spec, ref in zip(specs, expected):
        orders.clear()
        assert cone_check(q, spec) == ref
        assert orders == [2]


def test_require_cone_raises_with_witness():
    with pytest.raises(ConeMembershipError):
        require_cone(GaussianDensity(0.0, 1.0), default_cone_spec("logarithmic", 1))


@pytest.mark.parametrize("q", [PowerLawDensity(2.6, dim=2), PowerLawDensity(1.4)], ids=["2d", "1d"])
def test_quadratic_cone_check_of_a_norm_not_shown_finite_is_a_verdict(q):
    spec, coarse = default_cone_spec("quadratic", q.dim), pairing.QuadratureScheme(panels=1)
    report = cone_check(q, spec, coarse)
    assert (report.member, report.worst_residual) == (False, -np.inf)
    assert [w.constraint for w in report.witnesses] == ["norm_finite"]
    with pytest.raises(ConeMembershipError, match="norm_finite"):
        require_cone(q, spec, coarse)


def test_grid_positive_cone():
    spec = default_cone_spec("supremum", 1)
    assert cone_check(GridDensity(0.0, 1.0, np.ones(9)), spec).member
    # zeros are allowed as long as the density is positive somewhere
    partial = GridDensity(0.0, 1.0, np.concatenate([np.zeros(4), np.ones(5)]))
    assert cone_check(partial, spec).member
    signed = GridField(0.0, 1.0, np.array([1.0, -0.2, 1.0]))
    assert not cone_check(signed, spec).member


def test_quadratic_cone_spec_validation():
    with pytest.raises(InvalidParameterError):
        cone_spec_from_config({"kind": "quadratic_norm", "k1": 0.1, "k2": 10.0, "eps": 0.5})
    with pytest.raises(InvalidParameterError):
        cone_spec_from_config({"kind": "shannon_envelope", "a": 1, "c1": 1e-8, "c2": 1e3})


# ---------------------------------------------------------------------------
# directions and extensions
# ---------------------------------------------------------------------------

def test_gaussian_tail_breaks_power_law_cone_at_every_step():
    # the Cauchy touches this envelope; no step toward a Gaussian stays inside it
    q = PowerLawDensity(2.0)
    spec = cone_spec_from_config(
        {"kind": "shannon_envelope", "a": 2, "c1": 1.0 / (2.0 * np.pi), "c2": 2.0 / np.pi}
    )
    assert cone_check(q, spec).member
    for k in range(1, -13, -1):
        assert not cone_check(q + 2.0**k * (GaussianDensity(0.0, 1.0) - q), spec).member


def test_extensions_reject_zero_mass():
    # the 1-homogeneous extension of each entropy is rules.entropy itself
    zero = GaussianDensity(0.0, 1.0) - GaussianDensity(0.0, 1.0)
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        with pytest.raises(ZeroMassError):
            rules.entropy(rule, zero)


def test_probe_points_are_deterministic():
    a = densities.probe_points(1)
    b = densities.probe_points(1)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) >= 1000.0  # dyadic tail probes reach far out
