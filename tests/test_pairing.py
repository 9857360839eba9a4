"""Quadrature schemes, frozen node sets, pairings, and boundary terms."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conescore import convexity, pairing, rules, sampling
from conescore.densities import (
    Bump,
    GaussianDensity,
    GridDensity,
    MixtureDensity,
    PowerLawDensity,
)
from conescore.errors import (
    DivergenceError,
    DomainError,
    InvalidParameterError,
    NodeBudgetError,
    ZeroDensityError,
)


def test_scheme_validation():
    with pytest.raises(InvalidParameterError):
        pairing.QuadratureScheme(panels=0)
    with pytest.raises(InvalidParameterError):
        pairing.QuadratureScheme(nodes=0)
    with pytest.raises(InvalidParameterError):
        pairing.QuadratureScheme(radius=0.0)
    with pytest.raises(InvalidParameterError):
        pairing.QuadratureScheme(tail_tol=-1.0)
    s = pairing.QuadratureScheme(panels=4, nodes=6, radius=10.0)
    assert s.panels == 4 and s.nodes == 6 and s.radius == 10.0


def test_nodes_are_deterministic_for_equal_inputs():
    q = GaussianDensity(0.0, 1.0)
    a = pairing.nodes_for(q)
    b = pairing.nodes_for(GaussianDensity(0.0, 1.0))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_node_set_covers_core_radius():
    q = GaussianDensity(3.0, 4.0)  # core radius max(8, 6*2 + 3) = 15
    ns = pairing.nodes_for(q)
    assert np.max(np.abs(ns.points)) >= 15.0
    assert np.all(ns.weights > 0)


def test_total_mass_matches_quad_for_gaussian():
    q = GaussianDensity(0.7, 2.3)
    ref, _ = integrate.quad(lambda x: np.exp(-0.5 * (x - 0.7) ** 2 / 2.3) / np.sqrt(2 * np.pi * 2.3), -40, 40)
    assert pairing.total_mass(q) == pytest.approx(ref, abs=1e-12)


def test_total_mass_matches_quad_for_power_law():
    q = PowerLawDensity(2.5)
    ref, _ = integrate.quad(q.value, -np.inf, np.inf)
    assert pairing.total_mass(q) == pytest.approx(ref, abs=1e-9)


def test_weighted_sum_on_the_node_set_gives_a_gaussian_moment():
    # E[x^2] = 1 under the unit Gaussian, as one weighted sum on its frozen nodes
    q = GaussianDensity(0.0, 1.0)
    ns = pairing.nodes_for(q)
    assert np.sum(ns.weights * ns.points**2 * q.value(ns.points)) == pytest.approx(1.0, abs=1e-12)


def test_grid_pairing_uses_trapezoid():
    g = GridDensity(0.0, 1.0, np.linspace(1.0, 3.0, 101))
    # trapezoid is exact for piecewise-linear integrands on the same grid
    assert pairing.total_mass(g) == pytest.approx(2.0, abs=1e-12)
    ns = pairing.nodes_for(g)
    assert ns.points.shape[0] == 101
    assert ns.weights[0] == pytest.approx(ns.weights[1] / 2.0)


def test_weighted_norm_gaussian_field():
    q = GaussianDensity(0.0, 1.0)
    ref, _ = integrate.quad(lambda x: q.value(x) ** 2 * (1.0 + abs(x)) ** 2, -30, 30)
    norm = pairing.weighted_norm(q, 2.0)
    assert norm**2 == pytest.approx(ref, abs=1e-10)


def _poly_field():
    """Unbounded smooth field x^2, for divergence-detection tests."""
    from dataclasses import dataclass

    from conescore.densities import Field

    @dataclass(frozen=True, eq=False)
    class Poly(Field):
        dim = 1

        def value(self, x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] ** 2 if x.ndim > 1 else x**2

        def gradient(self, x):
            return 2.0 * np.asarray(x, dtype=float)

        def laplacian(self, x):
            return np.full(np.asarray(x, dtype=float).shape[:1] or (), 2.0)

        def core_radius(self):
            return 8.0

        def tail_mass_bound(self, radius):
            return float("inf")

    return Poly()


def test_weighted_norm_diverges_beyond_decay():
    # cauchy^2 (1+|x|)^4 has a constant-density tail: no finite norm
    with pytest.raises(DivergenceError):
        pairing.weighted_norm(PowerLawDensity(2.0), 4.0)
    with pytest.raises(DivergenceError):
        pairing.weighted_norm(_poly_field(), 2.0)


def test_2d_weighted_norm_refuses_a_divergent_outer_shell():
    # 2 beta - m = 1.8 < d = 2: the integral diverges, and the outermost shell holds 13% of the sum
    with pytest.raises(DivergenceError):
        pairing.weighted_norm(PowerLawDensity(2.4, dim=2), 3.0, pairing.QuadratureScheme(panels=1))


def test_2d_weighted_norm_keeps_a_negligible_outer_shell():
    # beta = 3: the outermost shell holds 3e-12 of the sum, so the value is the node set's sum as before
    norm = pairing.weighted_norm(PowerLawDensity(3.0, dim=2), 3.0, pairing.QuadratureScheme(panels=1))
    assert norm == pytest.approx(0.5887736940767183, rel=1e-12)


def test_boundary_term_decays_like_gaussian_tail():
    p = GaussianDensity(0.0, 1.0)
    q = GaussianDensity(0.0, 1.0)
    for radius, bound in ((6.0, 1e-7), (8.0, 1e-10), (10.0, 1e-20)):
        value = pairing.boundary_term(p, q, radius)
        closed = -2.0 * radius * q.value(radius)
        assert abs(value) < bound
        assert value == pytest.approx(closed, rel=1e-9)


def test_boundary_term_rejects_vanishing_density():
    p = GaussianDensity(0.0, 1.0)
    q = Bump(0.0, 1.0, 1.0)  # q(20) = 0
    with pytest.raises(ZeroDensityError):
        pairing.boundary_term(p, q, 20.0)


def test_two_dimensional_box_nodes():
    q = GaussianDensity([0.0, 0.0], 1.0)
    assert pairing.total_mass(q) == pytest.approx(1.0, abs=1e-10)


def test_two_dimensional_budget_guard():
    q = GaussianDensity([0.0, 0.0], 1.0)
    dense = pairing.QuadratureScheme(panels=64, nodes=16, radius=40.0)
    with pytest.raises(NodeBudgetError):
        pairing.nodes_for(q, dense)


def _unbuilt(*args, **kwargs):
    raise AssertionError("edges built before the node count was checked")


def test_one_dimensional_budget_guard(monkeypatch):
    # a leaf narrower than any level's panels below the cap is sized at the cap: 16 * 50,000
    # core panels of 8 nodes, refused from the count, before any edge is built
    monkeypatch.setattr(np, "linspace", _unbuilt)
    dense = pairing.QuadratureScheme(panels=50_000)
    with pytest.raises(NodeBudgetError, match="6,400,000"):
        pairing.nodes_for(GaussianDensity(0.0, 1e-12), dense)
    with pytest.raises(NodeBudgetError, match="6,400,000"):
        pairing.weighted_norm(GaussianDensity(0.0, 1.0), 1.0, dense)


def test_one_dimensional_panels_are_a_cap():
    # N(0, 1) has the same mass at 1 and 2 panels per unit, so it takes 2 under any cap above it
    for panels in (16, 50_000):
        ns = pairing.nodes_for(GaussianDensity(0.0, 1.0), pairing.QuadratureScheme(panels=panels))
        assert ns.weights.size == 16 * 2 * 8
        assert np.sum(ns.weights * GaussianDensity(0.0, 1.0).value(ns.points)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_legendre_rule_is_counted_before_it_is_built(monkeypatch, dim):
    # the rule's n x n eigenproblem takes O(n^2) memory: n = 20,000 asks for 400,000,000 entries
    def unbuilt(n):
        raise AssertionError("Gauss-Legendre rule built before its size was counted")

    monkeypatch.setattr(pairing, "_leggauss", unbuilt)
    wide = pairing.QuadratureScheme(nodes=20_000)
    q = GaussianDensity([0.0] * dim, 1.0)
    with pytest.raises(NodeBudgetError, match="400,000,000"):
        pairing.nodes_for(q, wide)
    if dim == 1:
        with pytest.raises(NodeBudgetError, match="400,000,000"):
            pairing.weighted_norm(q, 1.0, wide)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_radius_near_the_float_maximum_is_over_budget(monkeypatch, dim):
    # 2 * radius * panels overflows to inf: counted as a float, it cannot overflow int()
    monkeypatch.setattr(np, "linspace", _unbuilt)
    q = GaussianDensity([0.0] * dim, 1.0)
    huge = pairing.QuadratureScheme(radius=1e308)
    with pytest.raises(NodeBudgetError, match="inf nodes"):
        pairing.nodes_for(q, huge)
    if dim == 1:
        with pytest.raises(NodeBudgetError, match="inf nodes"):
            pairing.weighted_norm(q, 1.0, huge)


# ---------------------------------------------------------------------------
# 2-D node sets sized by the leaves' masses
# ---------------------------------------------------------------------------

def _line_edges(field, scheme):
    """The field's ascending panel edges at ``scheme.panels``, as ``pairing._sized_nodes`` builds them."""
    radii = pairing._shell_edges(field, pairing._core_radius(field, scheme), scheme.tail_tol)
    return pairing._edges(np.array(radii), field.breakpoints(), scheme)


def _square_nodes(field, scheme):
    """The tensor square of the 1-D node set on the field's edge list at ``scheme.panels``."""
    return pairing._cover_nodes(_line_edges(field, scheme), scheme.nodes, 2)


def _sized(field, scheme=pairing.DEFAULT_SCHEME):
    """The 2-D node set, and the panels per unit whose tensor square it is."""
    ns = pairing.nodes_for(field, scheme)
    levels = [k for k in (1, 2, 4, 8, 16) if k <= scheme.panels]
    per_axis = {k: (_line_edges(field, replace(scheme, panels=k)).size - 1) * scheme.nodes for k in levels}
    (level,) = [k for k in levels if per_axis[k] ** 2 == ns.weights.size]
    return ns, level


def _mass(field, ns):
    return float(np.sum(ns.weights * field.value(ns.points)))


def test_two_dimensional_masses_match_closed_forms():
    g = GaussianDensity([0.3, -1.2], [0.5, 2.0], scale=2.5)
    m = MixtureDensity((GaussianDensity([1.0, 0.0], 0.4), GaussianDensity([-1.5, 2.0], [3.0, 0.3])), (0.3, 0.9), scale=1.5)
    signed = g - 0.5 * GaussianDensity([-0.7, 0.4], [1.2, 0.6])
    for field, exact in ((g, 2.5), (m, 1.8), (signed, 2.0)):
        assert pairing.total_mass(field) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("beta", [4.0, 6.0, 10.0, 20.0])
def test_two_dimensional_power_law_masses(beta):
    # the dyadic shells reach the r^(2 - beta) tail; the old uniform square needed up to 6.7e7 nodes
    assert pairing.total_mass(PowerLawDensity(beta, dim=2)) == pytest.approx(1.0, abs=1e-10)


def test_two_dimensional_heavy_power_laws_need_a_lower_panel_cap():
    # confirming the mass of beta = 2.5 or 3 takes a level that is over the node budget at
    # the default cap; a cap of 1 or 2 panels per unit is within it and accurate
    for beta, panels in ((2.5, 1), (3.0, 2)):
        q = PowerLawDensity(beta, dim=2)
        with pytest.raises(NodeBudgetError):
            pairing.nodes_for(q)
        assert pairing.total_mass(q, pairing.QuadratureScheme(panels=panels)) == pytest.approx(1.0, abs=1e-10)
    # beta = 2.2 needs 3008^2 = 9,048,064 nodes already at one panel per unit
    for panels in (1, 16):
        with pytest.raises(NodeBudgetError, match="9,048,064"):
            pairing.nodes_for(PowerLawDensity(2.2, dim=2), pairing.QuadratureScheme(panels=panels))


def _between_nodes(*levels):
    """The point of [0, 1] farthest from every core node of the lines at these panels per unit."""
    line = lambda k: pairing._gauss_nodes(pairing._panel_edges(-8.0, 8.0, pairing.QuadratureScheme(panels=k)), 8).points
    nodes = np.concatenate([line(k) for k in levels])
    nodes = nodes[np.abs(nodes - 0.5) < 0.6]
    xs = np.linspace(0.0, 1.0, 10001)
    return float(xs[np.argmax(np.min(np.abs(xs[:, None] - nodes), axis=1))])


# a leaf far from every node of two coarse levels has mass ~0 on both, which must not pass for settled
_SWEEP_MEANS = [[0.37, -0.61], [-2.0, 1.7], [0.16135, 0.0]] + [[_between_nodes(k, 2 * k)] * 2 for k in (1, 2, 4)]


@pytest.mark.parametrize("mean", _SWEEP_MEANS)
def test_two_dimensional_gaussian_sweep_is_no_worse_than_the_capped_set(mean):
    for sigma in (0.005, 0.01, 0.02, 0.05, 0.08, 0.15, 0.2, 0.4, 1.0):
        q = GaussianDensity(mean, sigma**2)
        ns, level = _sized(q)
        error = abs(_mass(q, ns) - 1.0)
        if error > 1e-11:
            capped = _square_nodes(q, pairing.DEFAULT_SCHEME)
            assert error <= abs(_mass(q, capped) - 1.0)
        if sigma < 0.1:
            assert level == 16


@pytest.mark.parametrize("sigma", [0.05, 0.3])
def test_cancelling_terms_reach_the_level_of_their_leaves(sigma):
    # the total mass is 0 at every level; only the per-leaf check keeps doubling
    a, b = GaussianDensity([0.6, -0.4], sigma**2), GaussianDensity([-0.6, 0.4], sigma**2)
    ns, level = _sized(a - b)
    assert level == _sized(a)[1] == _sized(b)[1] > 2
    assert abs(_mass(a - b, ns)) <= 1e-12


# ---------------------------------------------------------------------------
# 2-D sizing samples each leaf once per sizing square
# ---------------------------------------------------------------------------

def _cover_wide_nodes(field, scheme=pairing.DEFAULT_SCHEME):
    """The earlier sizing, kept as the reference: every level's leaf masses on the field's own square."""
    coeffs = np.abs([c for c, _ in field.terms()])
    previous, k = None, 1
    while k < scheme.panels and k * field.half_max_width() < 1.0:
        k *= 2
    while True:
        ns = _square_nodes(field, replace(scheme, panels=min(k, scheme.panels)))
        if k >= scheme.panels:
            return ns
        masses = np.array([np.sum(ns.weights * leaf.value(ns.points)) for _, leaf in field.terms()])
        if previous is not None and np.sum(coeffs * np.abs(masses - previous)) <= scheme.tail_tol * pairing._TAIL_SAFETY:
            return ns
        previous, k = masses, 2 * k


def _plane_draws(seed):
    """The benchmark's 2-D fields for one seed: p + q, p, the mixture m and m + q."""
    rng = np.random.default_rng([seed, 2])

    def gaussian(scale):
        return GaussianDensity(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.25, 1.0, 2), scale=scale)

    p, q = gaussian(float(rng.uniform(0.5, 1.0))), gaussian(float(rng.uniform(0.5, 1.0)))
    m = MixtureDensity((gaussian(1.0), gaussian(1.0)), tuple(rng.uniform(0.2, 0.5, 2)))
    return [p + q, p, m, m + q]


def _cached_sizing_fields():
    w, p = GaussianDensity([0.4, -0.7], [0.3, 1.6]), GaussianDensity([-1.1, 0.2], [2.0, 0.5], scale=0.8)
    fields = [field for seed in range(601, 611) for field in _plane_draws(seed)]
    fields += [3.0 * w - 2.0 * p]
    # a core radius of 6 * 1.7 + 1.3 = 11.5, where the standard normal's own is 8: the leaf's
    # masses are taken on the field's square, not on its own
    wide, n = GaussianDensity([1.3, -0.4], [1.7**2, 0.5**2]), GaussianDensity([0.0, 0.0], 1.0)
    fields += [wide + n, 1e-2 * wide + n, n]
    fields += [GaussianDensity([0.6, -0.4], s**2) - GaussianDensity([-0.6, 0.4], s**2) for s in (0.05, 0.3)]
    fields += [
        c * PowerLawDensity(beta, dim=2) + GaussianDensity([0.3, -0.2], [0.5, 0.8])
        for c in (1.0, 1e-2, 1e-4)
        for beta in (3.15, 3.3, 3.6, 4.0)
    ]
    return fields


@pytest.mark.parametrize("field", _cached_sizing_fields(), ids=lambda f: type(f).__name__)
def test_cached_leaf_masses_give_the_cover_wide_node_sets(field):
    expected = _cover_wide_nodes(field)
    for _ in range(2):  # sized, then read from the leaves' caches
        ns = pairing.nodes_for(field)
        assert np.array_equal(ns.points, expected.points) and np.array_equal(ns.weights, expected.weights)


def test_a_leaf_whose_own_square_is_over_budget_sizes_on_the_field_square():
    # the 1e-2 shrinks the tail bound the field's shells stop on, not the leaf's own: the
    # power law's own square is over budget, and sizing never builds it
    heavy = PowerLawDensity(3.0, dim=2)
    field = 1e-2 * heavy + GaussianDensity([0.1, 0.2], 0.3**2)
    level = replace(pairing.DEFAULT_SCHEME, panels=4)
    assert _line_edges(heavy, level).size > _line_edges(field, level).size
    with pytest.raises(NodeBudgetError):
        _square_nodes(heavy, level)
    expected = _cover_wide_nodes(field)
    ns = pairing.nodes_for(field)
    assert np.array_equal(ns.points, expected.points) and np.array_equal(ns.weights, expected.weights)
    assert ns.weights.size == (_line_edges(field, level).size - 1) ** 2 * level.nodes**2


def test_leaf_masses_are_sampled_once_per_square(monkeypatch):
    sampled = []
    original = GaussianDensity.sample_on

    def counting(self, ns, order=0):
        sampled.append(id(self))
        return original(self, ns, order)

    monkeypatch.setattr(GaussianDensity, "sample_on", counting)
    p, q = GaussianDensity([0.2, -0.3], [0.6, 0.9]), GaussianDensity([-0.5, 0.1], 0.4)
    wide = GaussianDensity([1.3, -0.4], [1.7**2, 0.5**2])  # core radius 11.5, where q's is 8
    for fields, scheme, sizes in (
        ((p + q, q), pairing.DEFAULT_SCHEME, True),
        ((p + q, q), pairing.DEFAULT_SCHEME, False),  # the same leaves and squares: every mass is cached
        ((p + q, q), pairing.QuadratureScheme(tail_tol=1e-12), True),  # another scheme sizes again
        ((q + wide,), pairing.DEFAULT_SCHEME, True),  # so does a wider square than q has had
    ):
        sampled.clear()
        for field in fields:
            pairing.nodes_for(field, scheme)
        assert (id(q) in sampled) == sizes
    for leaf in (p, q, wide):
        masses = leaf.__dict__["_sizing_masses"]
        assert masses and all(type(m) is float for m in masses.values())


def test_weighted_norm_samples_each_leaf_once_per_node_array(monkeypatch):
    # the 2-D norm reads the sample the sizer left on the node set it returned,
    # and a Gaussian on a tensor set is never sampled point by point
    sampled = Counter()
    sets = []  # holding the sets keeps their ids unique
    pointwise = []
    original_on, original = GaussianDensity.sample_on, GaussianDensity.sample

    def counting_on(self, ns, order=0):
        sets.append(ns)
        sampled[id(self), id(ns)] += 1
        return original_on(self, ns, order)

    def counting(self, x, order=0):
        pointwise.append(x)
        return original(self, x, order)

    monkeypatch.setattr(GaussianDensity, "sample_on", counting_on)
    monkeypatch.setattr(GaussianDensity, "sample", counting)
    pairing.weighted_norm(GaussianDensity([0.1, 0.2], [0.5, 0.7]), 3.0)
    assert sampled and max(sampled.values()) == 1
    assert pointwise == []


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_bump_edges_make_the_strong_and_weak_hyvarinen_pairings_agree(seed):
    # <p, -2 q''/q + |q'|^2/q^2> equals the integral of 2 q' p'/q - |q'|^2 p/q^2 by parts; the
    # quadratures agree to rounding only if no panel straddles a bump's kinks at c - h and c + h
    for base in range(3):
        rng = np.random.default_rng([seed, 29, base])  # the gateaux suite's base and directions
        q = sampling.sample_mixture(rng)
        for p in convexity._gateaux_directions(rng, 3):  # a bump, a difference of two, a negative bump
            ns = pairing.nodes_for(q + p)
            qs, ps = q.sample(ns.points, 2), p.sample(ns.points, 1)
            ratio = qs.gradient / qs.value
            strong = np.sum(ns.weights * ps.value * (-2.0 * qs.laplacian / qs.value + ratio**2))
            weak = np.sum(ns.weights * (2.0 * ratio * ps.gradient - ratio**2 * ps.value))
            assert abs(strong - weak) <= 1e-14


def test_pair_shared_nodes_for_sums():
    p = GaussianDensity(-1.0, 0.5)
    q = GaussianDensity(2.0, 1.5)
    ns = pairing.nodes_for(p + q)
    mass = float(np.sum(ns.weights * (p.value(ns.points) + q.value(ns.points))))
    assert mass == pytest.approx(pairing.total_mass(p) + pairing.total_mass(q), abs=1e-10)


# ---------------------------------------------------------------------------
# node sets against the earlier piecewise builder, kept here as the reference
# ---------------------------------------------------------------------------

def _reference_panel_nodes(lo, hi, panels, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _reference_radius(field, scheme):
    return float(scheme.radius if scheme.radius is not None else field.core_radius())


def _reference_line(field, scheme):
    """Core panels plus each dyadic shell pair built separately, with the field's breakpoints as panel edges.

    Over the node budget raises.
    """
    radius = _reference_radius(field, scheme)
    threshold = scheme.tail_tol * pairing._TAIL_SAFETY
    core_panels = max(1, int(np.ceil(2.0 * radius * scheme.panels)))
    parts = [np.linspace(-radius, radius, core_panels + 1)]
    r = radius
    while field.tail_mass_bound(r) >= threshold:
        parts.append(np.linspace(r, 2.0 * r, scheme.panels + 1))
        parts.append(np.linspace(-2.0 * r, -r, scheme.panels + 1))
        r *= 2.0
    edges = np.unique(np.concatenate(parts))  # neighbouring pieces share their junction edge
    edges = np.unique(np.concatenate([edges, [b for b in field.breakpoints() if edges[0] < b < edges[-1]]]))
    if (edges.size - 1) * scheme.nodes > pairing._NODE_BUDGET:
        raise NodeBudgetError("over budget")
    x, w = np.polynomial.legendre.leggauss(scheme.nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _reference_square(field, scheme):
    """Tensor square of the reference line nodes; over the node budget raises."""
    pts1, wts1 = _reference_line(field, scheme)
    if pts1.size**2 > pairing._NODE_BUDGET:
        raise NodeBudgetError("over budget")
    xx, yy = np.meshgrid(pts1, pts1, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()]), np.outer(wts1, wts1).ravel()


def _exact_mass(leaf):
    if isinstance(leaf, MixtureDensity):
        return leaf.scale * sum(leaf.weights)
    if isinstance(leaf, Bump):
        return leaf.exact_mass()
    return leaf.scale  # GaussianDensity and PowerLawDensity are normalised before scaling


def _leaf_mass_errors(field, points, weights):
    return np.array([abs(np.sum(weights * leaf.value(points)) - _exact_mass(leaf)) for _, leaf in field.terms()])


def _check_sized_nodes(field, scheme):
    """A set is the reference line (in 2-D its square) at one level up to the cap, per leaf no less accurate than the cap."""
    reference = _reference_line if field.dim == 1 else _reference_square
    try:
        capped = reference(field, scheme)
    except NodeBudgetError:
        capped = None
    try:
        ns = pairing.nodes_for(field, scheme)
    except NodeBudgetError:
        assert capped is None  # levels only grow, so a refused one means the cap is over budget too
        return
    levels = sorted({min(2**i, scheme.panels) for i in range(scheme.panels.bit_length() + 1)})
    sizes = {k: _reference_line(field, replace(scheme, panels=k))[0].size ** field.dim for k in levels}
    (level,) = [k for k in levels if sizes[k] == ns.weights.size]
    points, weights = reference(field, replace(scheme, panels=level))
    assert np.array_equal(ns.points, points) and np.array_equal(ns.weights, weights)
    bound = scheme.tail_tol * pairing._TAIL_SAFETY
    if capped is not None:
        bound = np.maximum(bound, _leaf_mass_errors(field, *capped))
    assert np.all(_leaf_mass_errors(field, points, weights) <= bound)


_SCHEMES = [
    pairing.DEFAULT_SCHEME,
    pairing.QuadratureScheme(panels=2, nodes=4),
    pairing.QuadratureScheme(radius=5.0),
    pairing.QuadratureScheme(tail_tol=1e-14),
]
_SCHEME_IDS = ["default", "p2n4", "radius5", "tol1e-14"]

_LINE_FIELDS = (
    [sampling.sample_mixture(np.random.default_rng([k, 1])) for k in range(12)]
    + [PowerLawDensity(beta) for beta in (1.5, 2.0, 3.0, 7.0)]
    + [
        Bump(0.3, 1.5, 2.0),
        Bump(-4.0, 0.25, -1.0),
        Bump(0.3, 1.5, 2.0) + GaussianDensity(1.0, 4.0) - 0.5 * PowerLawDensity(3.0),
        GaussianDensity(0.0, 100.0) + Bump(0.0, 70.0, -1.0),
    ]
)

_PLANE_FIELDS = [
    GaussianDensity([0.0, 0.0], 1.0),
    GaussianDensity([0.5, -1.0], [0.3, 2.0]) + GaussianDensity([1.0, 1.0], 0.5),
    PowerLawDensity(3.0, dim=2),  # at the default scheme the level after 2 panels per unit is over budget
    PowerLawDensity(4.0, dim=2),  # dyadic shells out to radius 8 * 2**19
    GaussianDensity([0.3, -0.2], 0.05**2) - GaussianDensity([-0.3, 0.2], 0.05**2),  # zero total mass
]


# between the nodes of 1 and 2 panels per unit its mass is ~0 on both, which must not pass for settled
_NARROW_LINE_FIELD = pytest.param(GaussianDensity(_between_nodes(1, 2), 0.005**2), id="NarrowGaussian")


@pytest.mark.parametrize("scheme", _SCHEMES, ids=_SCHEME_IDS)
@pytest.mark.parametrize("field", _LINE_FIELDS + [_NARROW_LINE_FIELD] + _PLANE_FIELDS, ids=lambda f: type(f).__name__)
def test_node_sets_match_the_reference_builder(field, scheme):
    _check_sized_nodes(field, scheme)


def _reference_weighted_norm(f, m, scheme):
    """The 1-D weighted norm built from the reference panels: core, then shell pairs until negligible."""
    def chunk(points, weights):
        return float(np.sum(weights * np.asarray(f.value(points)) ** 2 * (1.0 + np.abs(points)) ** m))

    r = _reference_radius(f, scheme)
    total = chunk(*_reference_panel_nodes(-r, r, max(1, int(np.ceil(2.0 * r * scheme.panels))), scheme.nodes))
    while True:
        contribution = chunk(*_reference_panel_nodes(r, 2.0 * r, scheme.panels, scheme.nodes))
        contribution += chunk(*_reference_panel_nodes(-2.0 * r, -r, scheme.panels, scheme.nodes))
        total += contribution
        if contribution <= scheme.tail_tol * max(total, scheme.tail_tol):
            return float(np.sqrt(total))
        r *= 2.0


@pytest.mark.parametrize("scheme", _SCHEMES, ids=_SCHEME_IDS)
def test_weighted_norm_matches_the_reference(scheme):
    fields = [GaussianDensity(0.7, 2.3), PowerLawDensity(3.0), PowerLawDensity(7.0), _LINE_FIELDS[0], _LINE_FIELDS[-2]]
    for f in fields:
        for m in (1.0, 2.0):
            assert pairing.weighted_norm(f, m, scheme=scheme) == _reference_weighted_norm(f, m, scheme)


def test_scheme_has_no_rule_option():
    with pytest.raises(TypeError):
        pairing.QuadratureScheme(rule="trapezoid")
    with pytest.raises(TypeError):
        pairing.QuadratureScheme(rule="gauss_legendre_composite")


# ---------------------------------------------------------------------------
# the kept set: consecutive calls on the same terms share one node set
# ---------------------------------------------------------------------------

_RULE_NAMES = ("logarithmic", "hyvarinen", "quadratic")


def _memo_fields(dim):
    """A fresh pair (p, q) of mixtures: new leaves, so their first call builds its own set."""
    if dim == 1:
        p = MixtureDensity((GaussianDensity(-0.4, 0.8), GaussianDensity(1.1, 2.2)), (0.3, 0.9), scale=1.7)
        return p, GaussianDensity(0.2, 1.3, scale=0.6)
    p = MixtureDensity((GaussianDensity([0.4, -0.3], [0.7, 1.2]), GaussianDensity([-0.6, 0.5], [1.0, 0.5])), (0.35, 0.8))
    return p, GaussianDensity([-0.2, 0.4], [0.9, 1.1], scale=0.7)


def _memo_calls(dim):
    """(name, call on (p, q)) in an order where each field set repeats: log, then hyv, then quad raises q's order."""
    scheme = None if dim == 1 else pairing.QuadratureScheme(panels=2, nodes=8)
    x = np.array([-0.7, 0.0, 1.3]) if dim == 1 else np.array([[-0.7, 0.2], [0.0, 0.0], [1.3, -0.4]])
    calls = [(f"divergence/{r}", lambda p, q, r=r: rules.divergence(r, p, q, scheme)) for r in _RULE_NAMES]
    calls += [(f"expected_score/{r}", lambda p, q, r=r: rules.expected_score(r, p, q, scheme)) for r in _RULE_NAMES]
    calls.append(("fisher_direct", lambda p, q: rules.hyvarinen_divergence_direct(p, q, scheme)))
    calls += [(f"entropy/{r}", lambda p, q, r=r: rules.entropy(r, q, scheme)) for r in _RULE_NAMES]
    calls += [(f"euler/{r}", lambda p, q, r=r: rules.euler_residual(r, q, scheme)) for r in _RULE_NAMES]
    calls += [(f"score_at/{r}", lambda p, q, r=r: rules.score_at(r, q, x, scheme)) for r in _RULE_NAMES]
    return calls


def _hex(value) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(value)]


@pytest.mark.parametrize("dim", [1, 2])
def test_every_rule_call_on_the_kept_set_matches_a_fresh_set_bit_for_bit(monkeypatch, dim):
    fresh = {name: _hex(call(*_memo_fields(dim))) for name, call in _memo_calls(dim)}
    built = []
    sized_nodes = pairing._sized_nodes
    monkeypatch.setattr(pairing, "_sized_nodes", lambda field, scheme: built.append(field) or sized_nodes(field, scheme))
    p, q = _memo_fields(dim)
    warm = {name: _hex(call(p, q)) for name, call in _memo_calls(dim)}
    assert warm == fresh
    assert [f.terms() for f in built] == [(p + q).terms(), q.terms()]  # one set for p + q, one for q


@pytest.mark.parametrize("dim", [1, 2])
def test_rule_calls_leave_the_kept_samples_unchanged_and_read_only(dim):
    p, q = _memo_fields(dim)
    kept = {}  # every array a set kept, with its bytes when first seen
    for name, call in _memo_calls(dim):
        call(p, q)
        for _, arrays, _ in pairing._last[2]._samples.values():
            kept.update((id(a), (a, a.tobytes())) for a in arrays if id(a) not in kept)
    assert len(kept) >= 6  # values, gradients and Laplacians of q and of p's leaves
    for a, before in kept.values():
        assert not a.flags.writeable
        assert a.tobytes() == before
    value = pairing._last[2].sample(q, 2).value  # a lone leaf's sample is the kept arrays themselves
    assert value.tobytes() == kept[id(value)][1]
    for write in (lambda: value.__setitem__(0, 1.0), lambda: value.__imul__(2.0), lambda: np.log(value, out=value)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert value.tobytes() == kept[id(value)][1]


def test_the_kept_set_is_returned_only_for_the_same_scheme_coefficients_and_leaves():
    p, q = GaussianDensity(0.1, 0.8), GaussianDensity(-0.3, 1.4, scale=0.5)
    scheme = pairing.QuadratureScheme(panels=4)
    kept = pairing.nodes_for(p + q, scheme)
    assert pairing.nodes_for(p + q, replace(scheme)) is kept  # an equal scheme, a new combination
    assert pairing.nodes_for(1.0 * p + q, pairing.QuadratureScheme(panels=4)) is kept
    for other in (
        lambda: pairing.nodes_for(p + q, pairing.QuadratureScheme(panels=8)),
        lambda: pairing.nodes_for(p + q),
        lambda: pairing.nodes_for(p + 2.0 * q, scheme),
        lambda: pairing.nodes_for(p - q, scheme),
        lambda: pairing.nodes_for(p + GaussianDensity(-0.3, 1.4, scale=0.5), scheme),
        lambda: pairing.nodes_for(q + p, scheme),
        lambda: pairing.nodes_for(p, scheme),
    ):
        assert other() is not kept
        kept = pairing.nodes_for(p + q, scheme)
        assert pairing.nodes_for(p + q, scheme) is kept


def test_a_call_on_other_fields_releases_the_kept_leaves():
    leaf = GaussianDensity(0.3, 1.2)
    pairing.nodes_for(leaf).sample(leaf, 2)
    alive = weakref.ref(leaf)
    del leaf
    gc.collect()
    assert alive() is not None  # the kept set holds it
    pairing.nodes_for(GaussianDensity(0.0, 1.0))
    gc.collect()
    assert alive() is None
    # a leaf the next field lacks is released even when that field's set shares the kept geometry
    leaf, other = GaussianDensity(0.3, 1.2), GaussianDensity(0.0, 1.0)
    kept = pairing.nodes_for(leaf + other)
    kept.sample(leaf, 2), kept.sample(other)
    alive, weights = weakref.ref(leaf), kept.weights
    del leaf, kept
    shared = pairing.nodes_for(other)
    gc.collect()
    assert shared.weights is weights and alive() is None
    # a set refused over the node budget drops the kept one first
    leaf = GaussianDensity(0.3, 1.2)
    pairing.nodes_for(leaf)
    alive = weakref.ref(leaf)
    del leaf
    with pytest.raises(NodeBudgetError):
        pairing.nodes_for(GaussianDensity(0.0, 1.0), pairing.QuadratureScheme(nodes=10_000))
    gc.collect()
    assert alive() is None


# ---------------------------------------------------------------------------
# a miss on the kept geometry: a new set on the kept arrays, with the shared leaves' samples
# ---------------------------------------------------------------------------

def _counting_sample_on(monkeypatch) -> list:
    sampled = []
    original = GaussianDensity.sample_on

    def counting(self, ns, order=0):
        sampled.append((self, order))
        return original(self, ns, order)

    monkeypatch.setattr(GaussianDensity, "sample_on", counting)
    return sampled


def test_a_miss_on_the_kept_nodes_shares_the_weights_and_the_shared_leaves_samples(monkeypatch):
    p, q = GaussianDensity(0.1, 0.8), GaussianDensity(-0.3, 0.9)  # p + q, p and q size to the same nodes
    both = pairing.nodes_for(p + q)
    held = both.sample(p, 1)
    sampled = _counting_sample_on(monkeypatch)
    alone = pairing.nodes_for(p)
    assert alone is not both and alone.weights is both.weights
    assert np.array_equal(alone.points, both.points)
    served = alone.sample(p, 1)
    assert served.value is held.value and served.gradient is held.gradient
    assert sampled == []


def test_a_miss_on_the_kept_nodes_carries_no_sample_of_a_leaf_the_field_lacks():
    p, q = GaussianDensity(0.1, 0.8), GaussianDensity(-0.3, 0.9)
    m = MixtureDensity((GaussianDensity(0.4, 0.7), GaussianDensity(-0.5, 1.1)), (0.4, 0.6))
    both = pairing.nodes_for(p + q)
    both.sample(p, 2), both.sample(q, 2)
    ns = pairing.nodes_for(m)
    assert ns.weights is both.weights
    assert set(ns._samples) <= {id(m)}
    assert set(both._samples) == {id(p), id(q)}  # the set handed out is left as it was


@pytest.mark.parametrize("dim", [1, 2])
def test_every_rule_call_on_a_shared_set_matches_a_fresh_set_bit_for_bit(monkeypatch, dim):
    for name, call in _memo_calls(dim):
        monkeypatch.setattr(pairing, "_last", None)
        p, q = _memo_fields(dim)
        fresh = _hex(call(p, q))  # nothing kept: the call builds its set
        _, terms, built = pairing._last
        # new leaves share the geometry alone; the same leaves share it with every sample they have
        for fields in (_memo_fields(dim), (p, q)):
            monkeypatch.setattr(pairing, "_last", ((), terms, built))  # a key no call has: the next call misses
            assert _hex(call(*fields)) == fresh, name
            assert pairing._last[2] is not built and pairing._last[2].weights is built.weights, name


def test_another_order_dimension_or_edge_list_builds_a_new_set():
    p, q = GaussianDensity(0.1, 0.8), GaussianDensity(-0.3, 0.9)
    plane = GaussianDensity([0.1, 0.1], [0.8, 0.8])
    assert np.array_equal(pairing.nodes_for(plane)._geometry[1], pairing.nodes_for(p + q)._geometry[1])  # the same edges
    for field, scheme in (
        (p, pairing.QuadratureScheme(nodes=6)),
        (plane, None),
        (GaussianDensity(0.1, 4.0), None),  # wider: more shells
        (p, pairing.QuadratureScheme(radius=7.9)),  # as many edges as the kept set's, elsewhere
    ):
        kept = pairing.nodes_for(p + q)
        held = kept.sample(p).value
        ns = pairing.nodes_for(field, scheme)
        (order, dim), edges = ns._geometry
        assert ns.weights is not kept.weights
        assert (order, dim) != kept._geometry[0] or not np.array_equal(edges, kept._geometry[1])
        assert all(entry[1][0] is not held for entry in ns._samples.values())


def test_an_entropy_line_keeps_its_samples_after_a_later_call_shares_its_nodes():
    p, q = GaussianDensity(0.1, 0.8), GaussianDensity(-0.3, 0.9)
    line = convexity.entropy_line("hyvarinen", p, q)
    line(p), line(q)
    held = dict(line.nodes._samples)
    assert set(held) == {id(p), id(q)}
    for call in (lambda: rules.entropy("hyvarinen", p), lambda: rules.euler_residual("hyvarinen", q), lambda: pairing.nodes_for(GaussianDensity(0.0, 1.0))):
        call()
        assert pairing.nodes_for(p).weights is line.nodes.weights
    assert line.nodes._samples == held and all(line.nodes._samples[k] is held[k] for k in held)
    assert line(p) == rules.entropy("hyvarinen", p)


def test_a_kept_mass_is_the_weighted_sum_of_the_kept_values_and_a_raise_in_order_recomputes_it(monkeypatch):
    original = GaussianDensity.sample_on

    def doubled_past_order_0(self, ns, order=0):  # a value that differs by order shows which one the mass read
        s = original(self, ns, order)
        return s if order == 0 else s._replace(value=2.0 * s.value)

    monkeypatch.setattr(GaussianDensity, "sample_on", doubled_past_order_0)
    p, q = GaussianDensity(0.2, 0.9, scale=0.7), GaussianDensity(-0.4, 1.3)
    ns = pairing.nodes_for(p + q)
    for order in (0, 2):
        value = ns.sample(p, order).value
        assert ns._samples[id(p)][2] == float((ns.weights * value).sum())
        assert ns.mass(p) == rules._sampled(None, p, ns, order, "p")[1] == float((ns.weights * value).sum())
    assert ns.mass(p) == 2.0 * float((ns.weights * original(p, ns).value).sum())
    # a combination's mass is summed from its own values, as Combination.sample adds them
    both = ns.sample(p + q).value
    assert ns.mass(p + q) == float((ns.weights * both).sum())
    assert ns.mass(0.5 * p) == float((ns.weights * ns.sample(0.5 * p).value).sum())
