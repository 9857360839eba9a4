"""In-process tracing of conescore's modules, built from the benchmark's side.

``Tracer.install`` replaces the public entry points of each measured
module with wrappers that record one span per call (name, start, end,
parent span, operation id) and bump counters at the same boundary;
``Tracer.uninstall`` puts the originals back. Spans live in flat arrays
so that a few hundred thousand of them per operation stay cheap, and
self time is computed after the run as span time minus child spans.

Nothing in the package is edited: module functions are rebound on every
conescore module that imported them by name, and Field methods are
rebound on the classes that define them.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "convexity", "rules", "pairing", "densities", "sampling")
_EVAL_METHODS = ("value", "gradient", "laplacian")
_DRAWS = ("sample_mixture", "perturbed_mixture", "reweighted_mixture", "sample_grid_density", "sample_plateau_grid")


def _point_count(field, x) -> int:
    shape = np.shape(x)
    if not shape:
        return 1
    if len(shape) == 1:
        return shape[0] if field.dim == 1 else 1
    return shape[0]


class Tracer:
    """Span recorder and counter set for the traced operations of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts: Counter = Counter()
        self.max_nodes = 0
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, before=None, after=None, on_error=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.starts)
            stack = tracer._stack
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.op_ids.append(tracer.op)
            tracer.ends.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args, kwargs)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                stack.pop()
            return result if after is None else after(result, args, kwargs)

        return wrapper

    def _count(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, wrapped) -> None:
        """Rebind ``module.attr`` and every by-name import of the same function."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "conescore" or name.startswith("conescore.")) and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def _patch_public(self, module, layer: str, hooks: dict, default: dict | None = None) -> None:
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType):
                self._patch_function(module, attr, self._wrap(fn, f"{layer}.{attr}", **hooks.get(attr, default or {})))

    def install(self) -> None:
        """Wrap the measured modules until ``uninstall``; once per traced operation."""
        from conescore import cli, convexity, densities, pairing, rules, sampling

        counts = self.counts

        def count(key, n=1):
            counts[key] += n

        def traced_phi(phi, args, kwargs):
            return self._wrap(phi, "convexity.phi", before=lambda a, k: count("convexity.phi_evals"))

        def fd_trace(est, args, kwargs):
            count("convexity.fd_traces")
            count("convexity.fd_converged", int(bool(est.converged)))
            return est

        def suite_cases(report, args, kwargs):
            count("convexity.cases", len(report.cases))
            count("convexity.cases_failed", sum(1 for c in report.cases if not c.passed))
            return report

        self._patch_public(
            convexity,
            "convexity",
            {
                "entropy_line": {"after": traced_phi},
                "right_directional_derivative": {"after": fd_trace},
                "left_directional_derivative": {"after": fd_trace},
                "run_suite": {"after": suite_cases},
            },
        )
        self._patch_public(rules, "rules", {}, default={"before": lambda a, k: count("rules.calls")})
        self._patch_public(
            sampling,
            "sampling",
            {attr: {"before": lambda a, k: count("sampling.draws")} for attr in _DRAWS},
        )

        def nodes_built(ns, args, kwargs):
            n = len(ns.weights)
            count("pairing.nodes_built", n)
            count("pairing.node_bytes", ns.points.nbytes + ns.weights.nbytes)
            self.max_nodes = max(self.max_nodes, n)
            return ns

        def refusal(exc):
            if isinstance(exc, pairing.NodeBudgetError):
                count("pairing.refusals")

        nodes_for = self._wrap(
            pairing.nodes_for,
            "pairing.nodes_for",
            before=lambda a, k: count("pairing.nodes_for_calls"),
            after=nodes_built,
            on_error=refusal,
        )
        self._patch_function(pairing, "nodes_for", nodes_for)
        self._patch_function(pairing, "total_mass", self._wrap(pairing.total_mass, "pairing.total_mass"))

        self._patch_function(densities, "cone_check", self._wrap(densities.cone_check, "densities.cone_check"))

        def evaluation(args, kwargs):
            count("densities.eval_calls")
            x = args[1] if len(args) > 1 else kwargs["x"]
            count("densities.eval_points", _point_count(args[0], x))

        classes = [c for c in vars(densities).values() if isinstance(c, type) and issubclass(c, densities.Field)]
        classes.append(rules.ModeIndicator)
        for cls in classes:
            for meth in _EVAL_METHODS:
                if meth in cls.__dict__:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(fn, f"densities.{cls.__name__}.{meth}", before=evaluation))

        def mass_lookup(args, kwargs):
            field, scheme = args[0], (args[1] if len(args) > 1 else kwargs.get("scheme"))
            key = scheme if scheme is not None else pairing.DEFAULT_SCHEME
            count("densities.mass_lookups")
            count("densities.mass_hits", int(key in field.__dict__.get("_mass_cache", {})))

        self._set(densities.Field, "total_mass", self._wrap(densities.Field.total_mass, "densities.Field.total_mass", before=mass_lookup))
        self._set(densities.Combination, "__init__", self._count(densities.Combination.__init__, "densities.combination_builds"))

        self._patch_function(cli, "main", self._wrap(cli.main, "cli.main"))
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self._wrap(json.dumps, "cli.serialise")
        self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def layer_self_seconds(self) -> dict[str, float]:
        """Per-layer self time summed over all spans: span time minus child spans."""
        if not len(self.starts):
            return {layer: 0.0 for layer in LAYERS}
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_time = np.bincount(np.frombuffer(self.name_ids, dtype=np.int32), weights=dur - child, minlength=len(self.names))
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, self_time):
            totals[name.split(".", 1)[0]] += float(seconds)
        return totals

    def span_seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        if name not in self._name_ids or not len(self.starts):
            return 0.0
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        return float(dur[ids == self._name_ids[name]].sum())

    def save(self, path) -> None:
        """Write every span: name, start, end, parent index and operation id."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.op_ids, dtype=np.int32),
        )
