"""The ``score`` command's contract on any forecast config.

Every run exits 0 with strict JSON on stdout, or exits 2 (a configuration
error) or 3 (a domain error) with an empty stdout and one prefixed line on
stderr: never a traceback, a warning or another exit code. A config is
drawn valid for its family, optionally with a cone, in a wrapper or none,
and then, in half the draws, has one field anywhere in it replaced by a
number at the float edges, a boolean, a string, null or a nested list or
dict, or deleted. Each is run for every rule, with and without
``--strict-cone``.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conescore import cli

HUGE = 1.7976931348623157e308
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-305, 1e-300, 1e-150, 1e150, 1e300, -1e300, HUGE, -HUGE,
         math.inf, -math.inf, math.nan, 10**400, -(10**400), 1, 2, -1]

# a header and points near the forecasts' bulk; points far out, where narrow forecasts vanish
OBSERVATIONS = ["x\n0.0\n0.25\n0.5\n", "0.5\n-1.5\n3.0\n40.0\n"]

ODD = st.one_of(
    st.sampled_from(EDGES),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.sampled_from(EDGES), max_size=2),
    st.dictionaries(st.text(max_size=2), st.sampled_from(EDGES), max_size=1),
)


def _scaled(fields):
    return st.fixed_dictionaries(fields, optional={"scale": st.floats(0.1, 5.0)})


def _gaussian_fields():
    return {"mean": st.floats(-3.0, 3.0), "var": st.floats(0.05, 5.0)}


@st.composite
def _mixture(draw):
    n = draw(st.integers(1, 3))
    component = st.fixed_dictionaries(_gaussian_fields(), optional={"family": st.just("gaussian")})
    fields = {"family": st.just("mixture"), "components": st.lists(component, min_size=n, max_size=n),
              "weights": st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)}
    return draw(_scaled(fields))


@st.composite
def _grid(draw):
    lo, width = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.5, 3.0))
    values = st.lists(st.floats(0.1, 3.0), min_size=2, max_size=9)
    return draw(_scaled({"family": st.just("grid"), "domain": st.just([lo, lo + width]), "values": values}))


FAMILIES = {
    "gaussian": lambda: _scaled({"family": st.just("gaussian"), **_gaussian_fields()}),
    "mixture": _mixture,
    "power_law": lambda: st.fixed_dictionaries(
        {"family": st.just("power_law"), "beta": st.floats(1.2, 12.0)}, optional={"dim": st.just(1), "scale": st.floats(0.1, 5.0)}
    ),
    "grid": _grid,
}

CONES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("shannon_envelope"), "a": st.floats(2.0, 5.0), "c1": st.floats(1e-9, 1e-3), "c2": st.floats(10.0, 1e4)}),
    st.fixed_dictionaries({"kind": st.just("hyvarinen_growth"), "c1": st.floats(1.0, 500.0), "k": st.floats(0.5, 3.0), "c2": st.floats(10.0, 1e6)}),
    st.fixed_dictionaries({"kind": st.just("quadratic_norm"), "k1": st.floats(0.01, 1.0), "k2": st.floats(1.0, 20.0), "eps": st.floats(0.01, 0.5)}),
    st.fixed_dictionaries({"kind": st.just("grid_positive")}, optional={"dim": st.just(1)}),
)


def _paths(node, path=()):
    """Every path to a value inside nested dicts and lists, the root's own excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def forecasts(draw, family):
    """A valid config of the family, bare, wrapped with an optional cone, nested or listed; then perhaps one field made odd."""
    config = draw(FAMILIES[family]())
    wrapper = draw(st.sampled_from(["bare", "bare", "density", "cone", "nested", "list"]))
    if wrapper in ("density", "cone"):
        config = {"density": config} | ({"cone": draw(CONES)} if wrapper == "cone" else {})
    elif wrapper == "nested":
        config = {"density": {"density": config}}
    elif wrapper == "list":
        config = [config]
    if draw(st.booleans()):
        *parent, key = draw(st.sampled_from(list(_paths(config))))
        node = config
        for step in parent:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(ODD)
    return config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _no_constant(token):
    raise AssertionError(f"stdout holds the non-standard JSON token {token}")


def run_score(workdir, rule, strict, forecast, observations):
    """``cli.main`` on the config and observations, with every warning an error: the exit code, stdout and stderr."""
    (workdir / "forecast.json").write_text(json.dumps(forecast))
    (workdir / "obs.csv").write_text(observations)
    argv = ["score", "--rule", rule, "--forecast", str(workdir / "forecast.json"), "--obs", str(workdir / "obs.csv")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv + ["--strict-cone"] * strict)
    return code, out.getvalue(), err.getvalue()


def check_contract(code, out, err):
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        report = json.loads(out, parse_constant=_no_constant)
        assert report["summary"]["count"] == len(report["records"])
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: " if code == 2 else "domain error: "), err


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict-cone"])
@pytest.mark.parametrize("rule", ["log", "hyv", "quad", "sup"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_score_keeps_its_contract_on_any_forecast_config(workdir, family, rule, strict):
    @settings(derandomize=True, max_examples=16, deadline=None, database=None)
    @given(forecast=forecasts(family), observations=st.sampled_from(OBSERVATIONS))
    # (q.1)^2 underflows to 0: the quadratic score divided 0 by 0 with a RuntimeWarning, now a domain error
    @example(forecast={"family": "gaussian", "mean": -2.19, "var": 2.89, "scale": 1e-310}, observations=OBSERVATIONS[0])
    # values times scale past the float range: a RuntimeWarning from the config reader, now a configuration error
    @example(forecast={"family": "grid", "domain": [-0.8, 0.5], "values": [2.2, HUGE, 0.2], "scale": 2.5}, observations=OBSERVATIONS[1])
    def check(forecast, observations):
        check_contract(*run_score(workdir, rule, strict, forecast, observations))

    check()
