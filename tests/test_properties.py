"""Property tests for the structural invariants the certificates rely on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conescore import boundary, convexity, pairing, rules, sampling
from conescore.densities import (
    Bump,
    Combination,
    GaussianDensity,
    GridField,
    GridInfo,
    MixtureDensity,
    PowerLawDensity,
)

finite = {"allow_nan": False, "allow_infinity": False}
positive = st.floats(min_value=1e-6, max_value=1e3, **finite)
scale = st.floats(min_value=1e-3, max_value=1e3, **finite)


@given(x=positive, y=positive, lam=scale)
def test_binary_entropy_one_homogeneous(x, y, lam):
    base = boundary.binary_shannon(x, y)
    scaled = boundary.binary_shannon(lam * x, lam * y)
    # rounding noise scales with the total mass, the value's natural unit
    assert abs(scaled.value - lam * base.value) <= 1e-12 * lam * (x + y)
    np.testing.assert_allclose(scaled.partials, base.partials, rtol=1e-9, atol=1e-12)


@given(x1=positive, x2=positive, y=positive)
def test_binary_partial_monotone_in_x(x1, x2, y):
    lo, hi = sorted((x1, x2))
    if hi - lo < 1e-9 * hi:
        return
    assert boundary.binary_shannon(lo, y).partials[0] < boundary.binary_shannon(hi, y).partials[0]


@given(
    ratio=st.floats(min_value=0.1, max_value=0.9, **finite),
    alpha=st.floats(min_value=0.01, max_value=10.0, **finite),
)
def test_witness_index_is_the_first_negative_shell(ratio, alpha):
    # 300 shells keep a_k in normal float range yet reach every alpha here
    seq = boundary.DyadicSequence.geometric(ratio, size=300)
    [(_, k)] = boundary.nowhere_dense_witness(seq, [alpha])
    gap = seq.a - alpha * seq.b
    assert gap[k] < 0
    assert np.all(gap[:k] >= 0)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(min_value=-2.0, max_value=2.0, **finite),
    var=st.floats(min_value=0.25, max_value=4.0, **finite),
    weight=st.floats(min_value=0.1, max_value=10.0, **finite),
    rule=st.sampled_from(["logarithmic", "hyvarinen", "quadratic"]),
)
def test_euler_identity_over_the_gaussian_family(mean, var, weight, rule):
    q = GaussianDensity(mean, var, scale=weight)
    assert rules.euler_residual(rule, q) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    t=st.floats(min_value=0.05, max_value=0.95, **finite),
)
def test_quadratic_entropy_convex_on_segments(seed, t):
    rng = np.random.default_rng(seed)
    f = sampling.sample_grid_density(rng)
    g = sampling.sample_grid_density(rng)
    phi = convexity.entropy_line("quadratic", f, g)
    chord = (1.0 - t) * phi(f) + t * phi(g)
    assert phi((1.0 - t) * f + t * g) <= chord + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_plateau_subgradient_pairs_to_the_max(seed):
    rng = np.random.default_rng(seed)
    q = sampling.sample_plateau_grid(rng)
    qstar = rules.sup_subgradient(q)
    paired = rules.mode_pairing(q, qstar.mode)
    assert np.isclose(paired, float(np.max(q.values)), rtol=0, atol=1e-12)
    p = sampling.sample_grid_density(rng)
    assert rules.mode_pairing(p, qstar.mode) <= float(np.max(p.values)) + 1e-12


# a coarse scheme with a loose tail keeps the 2-D sets small enough for many examples
_COARSE = pairing.QuadratureScheme(panels=2, nodes=4, tail_tol=1e-6)
_GRID = GridInfo(-2.0, 2.0, 41)
coeff = st.sampled_from([1.0, -1.0, 0.5]) | st.floats(min_value=-3.0, max_value=3.0, **finite)


@st.composite
def _leaf(draw, dim, family):
    u = st.floats(min_value=-1.5, max_value=1.5, **finite)
    width = st.floats(min_value=0.3, max_value=2.0, **finite)
    if family == "gaussian":
        return GaussianDensity([draw(u) for _ in range(dim)], [draw(width) for _ in range(dim)], scale=draw(width))
    if family == "mixture":
        comps = tuple(GaussianDensity([draw(u) for _ in range(dim)], draw(width)) for _ in range(draw(st.integers(1, 3))))
        return MixtureDensity(comps, tuple(draw(width) for _ in comps))
    if family == "power_law":
        return PowerLawDensity(draw(st.floats(min_value=dim + 1.5, max_value=8.0, **finite)), dim=dim)
    if family == "bump":
        return Bump([draw(u) for _ in range(dim)], draw(width), draw(st.sampled_from([1.0, -0.4])))
    values = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0, **finite), min_size=_GRID.n, max_size=_GRID.n))
    return GridField(_GRID.lo, _GRID.hi, np.array(values))


@st.composite
def _field_sums(draw):
    """A lone leaf, or a signed sum of three or more leaves (one possibly repeated), and its highest order."""
    grid = draw(st.booleans())
    dim = 1 if grid else draw(st.sampled_from([1, 2]))
    families = ["grid"] if grid else ["gaussian", "mixture", "power_law", "bump"]
    top = 1 if grid else 2
    if draw(st.integers(0, 3)) == 0:  # the lone term, read uncopied
        return draw(_leaf(dim, draw(st.sampled_from(families)))), top
    # three terms or more, so that summing them in another order changes the rounding
    leaves = [draw(_leaf(dim, draw(st.sampled_from(families)))) for _ in range(draw(st.integers(3, 4)))]
    if draw(st.booleans()):
        leaves.append(leaves[0])
    return Combination([draw(coeff) for _ in leaves], leaves), top


def _same_bits(a, b) -> bool:
    return (a is None and b is None) or (np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _own_sample(f, ns, k) -> list:
    """f's sample on ns: c * each term's ``sample_on``, added in term order as ``Combination.sample`` adds."""
    total = None
    for c, leaf in f.terms():
        part = [c * a for a in leaf.sample_on(ns, k)[: k + 1]]
        total = part if total is None else [t + a for t, a in zip(total, part)]
    return total


@settings(max_examples=60, deadline=None)
@given(case=_field_sums(), orders=st.permutations([0, 1, 2]))
def test_node_set_samples_are_the_fields_own_samples(case, orders):
    # in any order of requests, including raises and lowerings on one set
    f, top = case
    ns, fresh = pairing.nodes_for(f, _COARSE), pairing.nodes_for(f, _COARSE)
    values = []
    for k in [k for k in orders if k <= top]:
        got = ns.sample(f, k)
        assert all(_same_bits(a, b) for a, b in zip(got, _own_sample(f, fresh, k)))
        if ns.axis is None:  # 1-D and grid sets sample point by point
            assert all(_same_bits(a, b) for a, b in zip(got, f.sample(ns.points, k)))
        values.append(got.value)
    assert all(_same_bits(v, values[0]) for v in values)
    assert ns.mass(f) == float((ns.weights * _own_sample(f, fresh, 0)[0]).sum())


# fields that are separable on a tensor set, and signed combinations of them with power laws
_tensor_fields = st.one_of(
    _leaf(2, "gaussian"),
    _leaf(2, "mixture"),
    st.builds(
        lambda leaves, cs: Combination(cs[: len(leaves)], leaves),
        st.lists(st.one_of(_leaf(2, "gaussian"), _leaf(2, "mixture"), _leaf(2, "power_law")), min_size=2, max_size=4),
        st.lists(coeff, min_size=4, max_size=4),
    ),
)


@settings(max_examples=40, deadline=None)
@given(f=_tensor_fields, k=st.integers(0, 2))
def test_tensor_samples_agree_with_the_pointwise_formula(f, k):
    # outer products of 1-D profiles round otherwise than one exp per node, by a few ulps
    # of the largest term, the scale of a sum whose terms may cancel
    ns = pairing.nodes_for(f, _COARSE)
    assert ns.axis is not None
    got, want = ns.sample(f, k), f.sample(ns.points, k)
    terms = [(abs(c), leaf.sample(ns.points, k)) for c, leaf in f.terms()]
    for i, (a, b) in enumerate(zip(got[: k + 1], want[: k + 1])):
        top = max(c * np.max(np.abs(s[i])) for c, s in terms)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 16 * np.finfo(float).eps * top
    if k >= 1:
        assert got.gradient.shape == (ns.weights.size, 2)
