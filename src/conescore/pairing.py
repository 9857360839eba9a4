"""Deterministic quadrature: node sets and their samples, masses, weighted norms, surface terms.

Every integral in the toolkit reduces to a weighted sum over a *node set*
that is a deterministic function of the quadrature scheme and the field.
Fixing the nodes first is what makes the discrete convexity identities
(propriety, Euler, quotient monotonicity) hold to floating-point accuracy
rather than to quadrature accuracy: once the node set is frozen, the
toolkit is doing exact convex analysis on a finite measure space. The set
samples each leaf field on its nodes once (``NodeSet.sample``) and keeps
the sample, and the leaf's mass summed from it, while the leaf and the set
live, so every caller reads the same arrays and the same mass instead of
evaluating the field again; the rules keep what they derive from a
sample beside it (``NodeSet.sampled``). ``nodes_for`` keeps one analytic
set per geometry (order, dimension and panel edges) and remembers the key
of every field sized onto it: the scheme by value, the coefficients by
value and the leaves by identity, held weakly, so a key never keeps a leaf
alive and goes when one of its leaves dies. The next call on a remembered
field, such as the next rule's call on ``p + q``, gets the set back
without sizing; a field that sizes to the same geometry, such as ``p``
after ``p + q`` often does, gets the same set object, samples and all, and
a field that sizes elsewhere drops the set and its keys. Each leaf is
sampled on a geometry once: K live leaves on one geometry of n nodes keep
K samples of up to 4n floats each. A set is a function of its geometry
alone, so results are bit-identical whether it is kept or built anew; a
set handed out may gain other live leaves' samples, but never changes its
nodes, its weights or a sample it holds.

Analytic families integrate by composite Gauss-Legendre on one ascending
list of panel edges: the core [-R, R] flanked by dyadic tail shells out to
where the field's tail-mass bound is negligible, with the field's
breakpoints (a 1-D bump's c - h and c + h) as panel edges, so that no panel
straddles a kink. 1-D uses that list, 2-D its tensor square, at the
coarsest density, up to ``scheme.panels`` (a cap in both dimensions) and no
coarser than the field's half-maximum width, on which every leaf's mass has
settled. A 2-D set keeps the 1-D nodes it squares as its ``axis``, from
which Gaussians sample it, and builds its (n, 2) points only when read.
Each leaf's mass on a sizing level is kept on the leaf, so it is sampled
once per level whatever fields the leaf is a term of. Every
analytic set is counted before it is built and refused over the node
budget. Grid families use the trapezoid rule on their native grid, all the
information they carry.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .densities import Field, Sample
from .errors import DivergenceError, InvalidParameterError, NodeBudgetError, ZeroDensityError

__all__ = [
    "QuadratureScheme",
    "NodeSet",
    "DEFAULT_SCHEME",
    "nodes_for",
    "total_mass",
    "weighted_norm",
    "boundary_term",
    "SUPPORT_THRESHOLD",
]

# |p| above this counts as genuine support when deciding whether a
# non-finite integrand value matters.
SUPPORT_THRESHOLD = 1e-12

# hard ceiling on nodes per set; d=2 tensor grids hit this first
_NODE_BUDGET = 6_000_000

# geometric tail shells stop extending once the remaining mass bound drops
# below tail_tol times this safety factor
_TAIL_SAFETY = 0.1

_MAX_SHELLS = 400


@dataclass(frozen=True)
class QuadratureScheme:
    """Deterministic composite Gauss-Legendre recipe for analytic families.

    Grid fields ignore it: they integrate by trapezoid on their native grid.

    Parameters
    ----------
    panels : int
        Panels per unit length on the core, and per dyadic tail shell, as a
        cap: in 1-D and 2-D the node set takes the coarsest of 1, 2, 4, ...
        up to it on which the leaves' masses have settled (``_sized_nodes``).
    nodes : int
        Gauss-Legendre nodes per panel.
    radius : float or None
        Core truncation radius; None derives it from the field's decay
        metadata.
    tail_tol : float
        Tail shells extend until the field's analytic tail-mass bound
        falls below a safety fraction of this tolerance.
    """

    panels: int = 16
    nodes: int = 8
    radius: float | None = None
    tail_tol: float = 1e-10

    def __post_init__(self):
        if int(self.panels) < 1 or int(self.nodes) < 1:
            raise InvalidParameterError("panels and nodes must be positive integers")
        if self.radius is not None and not self.radius > 0:
            raise InvalidParameterError("radius must be positive when given")
        if not self.tail_tol > 0:
            raise InvalidParameterError("tail_tol must be positive")
        object.__setattr__(self, "panels", int(self.panels))
        object.__setattr__(self, "nodes", int(self.nodes))
        object.__setattr__(self, "radius", None if self.radius is None else float(self.radius))
        object.__setattr__(self, "tail_tol", float(self.tail_tol))


DEFAULT_SCHEME = QuadratureScheme()


class NodeSet:
    """Quadrature nodes and weights, and the fields sampled on them; points have shape (n,) or (n, 2).

    ``points, weights = ns`` unpacks it. ``sample`` evaluates each leaf field
    once on the nodes, and again only to raise its order: a leaf's sample is
    kept weakly under the leaf, with its mass and a dict of what the rules
    derive from it, so every field built from it reads the same arrays and
    a lone leaf's mass is summed once; a raise in order adds the higher
    arrays and keeps the rest. The kept arrays are read-only, so a write
    into one raises, and the samples and what was derived from them live
    while their leaf and the set do. A set may gain other leaves' samples,
    but its nodes, its weights and the samples it holds never change. A 2-D
    set from ``_cover_nodes`` squares the 1-D nodes in ``axis`` (None on 1-D
    and grid sets) and builds its points only when they are read. A set from
    ``_cover_nodes`` keeps the geometry it was built on (order, dimension and
    panel edges) in ``_geometry``, on which ``nodes_for`` hands out that one
    set while it keeps it.
    """

    __slots__ = ("_points", "weights", "axis", "_samples", "_geometry")

    def __init__(self, points: np.ndarray | None, weights: np.ndarray):
        self._points, self.weights, self.axis, self._geometry = points, weights, None, None
        self._samples: weakref.WeakKeyDictionary[Field, tuple[tuple, float, dict]] = weakref.WeakKeyDictionary()

    @property
    def points(self) -> np.ndarray:
        if self._points is None:  # the tensor square's, in meshgrid(axis, axis, indexing="ij") order
            self._points = np.column_stack([np.repeat(self.axis, self.axis.size), np.tile(self.axis, self.axis.size)])
        return self._points

    def __iter__(self):
        return iter((self.points, self.weights))

    def _kept(self, leaf: Field, order: int) -> tuple[tuple, float, dict]:
        """The leaf's arrays to at least ``order``, its mass and the rules' results, sampled here unless kept.

        A raise in order adds the higher arrays: the lower ones, which it recomputes bit for bit, stay with all read from them.
        """
        kept = self._samples.get(leaf)
        if kept is None or len(kept[0]) <= order:
            arrays = leaf.sample_on(self, order)[: order + 1]
            for a in arrays:
                a.flags.writeable = False
            if kept is None:
                kept = ((), _weighted_sum(self.weights, arrays[0]), {})
            kept = self._samples[leaf] = (kept[0] + arrays[len(kept[0]) :], *kept[1:])
        return kept

    def sample(self, f: Field, order: int = 0) -> Sample:
        """f's values on the nodes, with the gradient (order >= 1) and the Laplacian (order 2).

        Terms are summed in ``Combination.sample``'s order and arithmetic; a lone
        term of coefficient 1 gives the kept arrays themselves, which are read-only.
        """
        terms = f.terms()
        total = None
        for c, leaf in terms:
            arrays = self._kept(leaf, order)[0][: order + 1]
            if len(terms) == 1 and c == 1.0:
                return Sample(*arrays)
            part = [c * a for a in arrays]
            total = part if total is None else list(map(operator.iadd, total, part))
        return Sample(*total)

    def sampled(self, f: Field, order: int = 0) -> tuple[Sample, float, dict | None]:
        """f's sample, its mass (the weighted sum of its values) and the dict in which the rules keep what they derive.

        A lone leaf's mass and dict are kept with its sample; a combination's mass is summed, and its dict is None.
        """
        terms = f.terms()
        if len(terms) == 1 and terms[0][0] == 1.0:
            arrays, mass, derived = self._kept(terms[0][1], order)
            return Sample(*arrays[: order + 1]), mass, derived
        s = self.sample(f, order)
        return s, _weighted_sum(self.weights, s.value), None

    def mass(self, f: Field) -> float:
        """f's mass on the nodes: the weighted sum of its sampled values."""
        return self.sampled(f)[1]


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """The mass sum(w v); one past the float range is inf or nan, which callers refuse as non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float((weights * values).sum())


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(edges: np.ndarray, nodes: int) -> NodeSet:
    """Composite Gauss-Legendre nodes and weights on the panels between ascending ``edges``."""
    # the rule solves an n x n eigenproblem: O(n^2) memory, counted before it is built
    _refuse_over_budget(float(nodes) ** 2, f"the {nodes}-node Gauss-Legendre rule's {nodes} x {nodes} eigenproblem")
    x, w = _leggauss(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    return NodeSet((mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel())


def _core_radius(field: Field, scheme: QuadratureScheme) -> float:
    r = scheme.radius if scheme.radius is not None else field.core_radius()
    if not np.isfinite(r) or r <= 0:
        raise InvalidParameterError(f"core radius must be positive and finite, got {r!r}")
    return float(r)


def _refuse_over_budget(nodes: float, what: str = "node set") -> None:
    """Raise NodeBudgetError for a count over ``_NODE_BUDGET``; called before any node is built."""
    if not nodes <= _NODE_BUDGET:
        raise NodeBudgetError(
            f"{what} would need {nodes:,.0f} nodes (budget {_NODE_BUDGET:,}); "
            "pass a scheme with fewer panels or nodes"
        )


def _panel_edges(lo: float, hi: float, scheme: QuadratureScheme) -> np.ndarray:
    """Panel edges of [lo, hi] at ``scheme.panels`` panels per unit length, refused over the node budget."""
    # counted in floats: a span near the float maximum counts inf panels instead of overflowing int()
    panels = max(1.0, float(np.ceil((hi - lo) * scheme.panels)))
    _refuse_over_budget(panels * scheme.nodes)
    return np.linspace(lo, hi, int(panels) + 1)


def _shell_edges(field: Field, radius: float, tail_tol: float) -> list[float]:
    """Dyadic shell radii R, 2R, 4R, ... out to the first where the tail-mass bound is negligible."""
    radii = [radius]
    for _ in range(_MAX_SHELLS):
        if field.tail_mass_bound(radii[-1]) < tail_tol * _TAIL_SAFETY:
            return radii
        radii.append(2.0 * radii[-1])
    raise DivergenceError(
        f"tail-mass bound still {field.tail_mass_bound(radii[-1]):.3e} after {_MAX_SHELLS} dyadic shells"
    )


def _edges(radii: np.ndarray, breakpoints: tuple, scheme: QuadratureScheme) -> np.ndarray:
    """Ascending panel edges: the core [-R, R], the dyadic shell pairs out to ``radii``, and the breakpoints.

    The 1-D node set they give is counted before the shells are built and
    refused over the budget: heavy tails add shells past what memory holds.
    """
    edges = _panel_edges(-float(radii[0]), float(radii[0]), scheme)
    _refuse_over_budget((edges.size - 1 + 2 * scheme.panels * (radii.size - 1) + len(breakpoints)) * scheme.nodes)
    if radii.size > 1:  # one shell per column, in np.linspace's arithmetic: i * step + start, the stop last
        lo, hi = radii[:-1], radii[1:]
        pos = np.arange(scheme.panels + 1.0)[:, None] * ((hi - lo) / scheme.panels)
        neg = pos - hi
        pos += lo
        pos[-1], neg[-1] = hi, -lo
        # adjacent pieces share their junction edge exactly, so each keeps it once
        edges = np.concatenate([neg[:-1, ::-1].T.ravel(), edges, pos[1:].T.ravel()])
    inner = [b for b in breakpoints if edges[0] < b < edges[-1]]
    if not inner:
        return edges
    edges = np.sort(np.concatenate([edges, inner]))
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]  # a breakpoint on an edge is kept once


def _cover_nodes(edges: np.ndarray, nodes: int, dim: int) -> NodeSet:
    """Gauss-Legendre nodes on the panels of ``edges``; in 2-D their tensor square, counted before it is built.

    On the geometry of the set ``nodes_for`` keeps, it builds nothing and returns that set.
    """
    kept = _kept_set and _kept_set[0]
    if kept is not None and kept._geometry[0] == (nodes, dim) and np.array_equal(kept._geometry[1], edges):
        return kept
    if dim == 1:
        ns = _gauss_nodes(edges, nodes)
    else:
        _refuse_over_budget(((edges.size - 1) * nodes) ** 2, "tensor grid")
        pts1, wts1 = _gauss_nodes(edges, nodes)
        ns = NodeSet(None, np.outer(wts1, wts1).ravel())
        ns.axis = pts1
    ns._geometry = ((nodes, dim), edges)
    return ns


@lru_cache(maxsize=64)
def _level(scheme: QuadratureScheme, panels: int) -> QuadratureScheme:
    return replace(scheme, panels=panels)


def _sized_nodes(field: Field, scheme: QuadratureScheme) -> NodeSet:
    """The node set at the coarsest panel density on which every leaf's mass has settled.

    The set is composite Gauss-Legendre on the edge list, in 2-D its tensor
    square. Densities k = 1, 2, 4, ... panels per unit (and per shell), at
    most ``scheme.panels``, are tried from the first whose panels are no
    wider than the field's half-maximum width: a narrower leaf can fall
    between the nodes of two levels alike and look settled at mass 0. The
    first k with sum |c_i| |M_i(k) - M_i(k/2)| <= tail_tol * _TAIL_SAFETY
    over the leaves is used, so terms whose masses cancel cannot stop the
    doubling. M_i(k) is leaf i's mass on the field's set at level k, kept on
    the leaf under the level, core radius, shell count and breakpoints that
    fix that set: every field with the same set, such as a sum and its
    terms when those agree, reads it without sampling again; a level whose
    masses are all kept builds no set unless it is the one returned. The
    set returned keeps the samples its masses were read from. A field that
    never settles gets the cap; a level over budget raises.
    """
    leaves = [leaf for _, leaf in field.terms()]
    coeffs = np.abs([c for c, _ in field.terms()])
    caches = [leaf.__dict__.setdefault("_sizing_masses", {}) for leaf in leaves]
    # the core radius, shells, breakpoints and width do not depend on the level's panels
    radius = _core_radius(field, scheme)
    radii = np.array(_shell_edges(field, radius, scheme.tail_tol))
    breakpoints, width = field.breakpoints(), field.half_max_width()

    def nodes_at(level: QuadratureScheme) -> NodeSet:
        return _cover_nodes(_edges(radii, breakpoints, level), level.nodes, field.dim)

    previous, k = None, 1
    while k < scheme.panels and k * width < 1.0:
        k *= 2
    while True:
        level = _level(scheme, min(k, scheme.panels))
        if k >= scheme.panels:
            return nodes_at(level)
        key = (level, radius, radii.size, breakpoints)
        ns = None if all(key in cache for cache in caches) else nodes_at(level)
        for leaf, cache in zip(leaves, caches):
            if key not in cache:
                cache[key] = ns.mass(leaf)
        masses = np.array([cache[key] for cache in caches])
        # a non-finite mass never settles: the field gets the cap, and the rules refuse its mass
        if previous is not None and np.isfinite(masses).all() and (coeffs * np.abs(masses - previous)).sum() <= scheme.tail_tol * _TAIL_SAFETY:
            return ns if ns is not None else nodes_at(level)
        previous, k = masses, 2 * k


def _grid_nodes(field: Field) -> NodeSet:
    grid = field.grid
    pts = grid.points()
    wts = np.full(grid.n, grid.spacing)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return NodeSet(pts, wts)


# the kept set, and the key of each field sized onto it (scheme, coefficients, leaf ids) with weak references to its leaves
_kept_set: tuple[NodeSet, dict] | None = None


def nodes_for(field: Field, scheme: QuadratureScheme | None = None) -> NodeSet:
    """Node set for integrals against ``field``; deterministic in (scheme, field).

    The nodes are a pure function of the scheme, the field's metadata
    (core radius, tail bound, width and breakpoints) and the leaves' masses
    on the sizing levels, cached on the leaves (``_sized_nodes``); the set
    carries the leaves' samples its sizing took. A set over the node budget
    raises :class:`NodeBudgetError` before it is built.
    A combination's nodes cover every term, so pairing different fields on
    ``nodes_for(p + q, scheme)`` puts them on one shared discrete measure.
    One analytic set is kept, with the key of every field sized onto it:
    an equal scheme, equal coefficients and the same leaves, held weakly.
    A call on a remembered field returns the set without sizing; a field
    that sizes to the set's order, dimension and edges gets the set itself
    and is remembered; one that sizes elsewhere drops the set and its keys.
    A grid field's set is the trapezoid rule on its grid, built anew.
    """
    global _kept_set
    scheme = scheme or DEFAULT_SCHEME
    if field.grid is not None:
        return _grid_nodes(field)
    terms, kept = field.terms(), _kept_set
    key = (scheme, tuple(c for c, _ in terms), tuple(id(leaf) for _, leaf in terms))
    refs = kept and kept[1].get(key)
    if refs and all(ref() is leaf for ref, (_, leaf) in zip(refs, terms)):
        return kept[0]
    ns = _sized_nodes(field, scheme)
    if kept is None or ns is not kept[0]:
        _kept_set = kept = (ns, {})  # another geometry: the kept set and its keys go, so at most one geometry outlives the call
    # the key goes when one of its leaves dies, before a new leaf can take that leaf's id
    kept[1][key] = tuple(weakref.ref(leaf, lambda _, key=key: _kept_set and _kept_set[1].pop(key, None)) for _, leaf in terms)
    return ns


def total_mass(p: Field, scheme: QuadratureScheme | None = None) -> float:
    """Total mass p.1 on p's node set."""
    return nodes_for(p, scheme).mass(p)


def _weight_values(points: np.ndarray, m: float) -> np.ndarray:
    r = np.abs(points) if points.ndim == 1 else np.sqrt((points**2).sum(axis=1))
    return (1.0 + r) ** m


def weighted_norm(f: Field, m: float, scheme: QuadratureScheme | None = None) -> float:
    """Weighted L2 norm (integral of f(x)^2 (1+|x|)^m dx)^(1/2) of a field.

    Grid and 2-D fields integrate on their node set. On the line the core
    integral extends through dyadic shells until contributions are
    negligible; shells that keep growing, or a 2-D outermost shell that is
    not negligible, raise :class:`DivergenceError`.
    """
    scheme = scheme or DEFAULT_SCHEME
    if not m > 0:
        raise InvalidParameterError("weight exponent m must be positive")

    def chunk(points: np.ndarray, weights: np.ndarray) -> float:
        return float(np.sum(weights * np.asarray(f.value(points), dtype=float) ** 2 * _weight_values(points, m)))

    if f.grid is not None or f.dim != 1:
        ns = nodes_for(f, scheme)  # it holds the samples the sizer read
        terms = ns.weights * ns.sample(f).value ** 2 * _weight_values(ns.points, m)
        total = float(np.sum(terms))
        if f.grid is None:
            radii = _shell_edges(f, _core_radius(f, scheme), scheme.tail_tol)
            outer = float(np.sum(terms[np.max(np.abs(ns.points), axis=1) > radii[max(len(radii) - 2, 0)]]))
            if outer > scheme.tail_tol * max(total, scheme.tail_tol):
                raise DivergenceError(f"weighted norm's outermost dyadic shell contributed {outer:.3e} of {total:.3e}")
        return float(np.sqrt(total))

    # the field's tail-mass bound does not bound f^2 (1+|x|)^m, so the shells
    # stop on their own contributions rather than where _shell_edges would
    r = _core_radius(f, scheme)
    total = chunk(*_gauss_nodes(_panel_edges(-r, r, scheme), scheme.nodes))
    previous = np.inf
    growth_streak = 0
    for _ in range(_MAX_SHELLS):
        pair = (np.linspace(lo, hi, scheme.panels + 1) for lo, hi in ((r, 2.0 * r), (-2.0 * r, -r)))
        contribution = sum(chunk(*_gauss_nodes(edges, scheme.nodes)) for edges in pair)
        total += contribution
        if contribution <= scheme.tail_tol * max(total, scheme.tail_tol):
            return float(np.sqrt(total))
        growth_streak = growth_streak + 1 if contribution >= previous else 0
        if growth_streak >= 3:
            raise DivergenceError(
                f"weighted norm grows with radius (shell at R={r:g} contributed {contribution:.3e})"
            )
        previous = contribution
        r *= 2.0
    raise DivergenceError(f"weighted norm did not settle within {_MAX_SHELLS} dyadic shells")


def boundary_term(p: Field, q: Field, radius: float) -> float:
    """Surface term (1/R) * sum over y in {-R, R} of (y q'(y)/q(y)) p(y).

    Certifies that the integration-by-parts surface contribution vanishes
    as the truncation radius grows. Defined for d = 1 only.
    """
    if p.dim != 1 or q.dim != 1:
        raise InvalidParameterError("boundary_term is defined for d = 1")
    if not radius > 0:
        raise InvalidParameterError("radius must be positive")
    ys = np.array([-radius, radius])
    qv = np.asarray(q.value(ys), dtype=float)
    if np.any(qv <= 0) or np.any(qv < 1e-280):
        raise ZeroDensityError(f"q vanishes at the boundary points +-{radius:g}")
    qg = np.asarray(q.gradient(ys), dtype=float)
    pv = np.asarray(p.value(ys), dtype=float)
    return float(np.sum(ys * qg / qv * pv) / radius)
