"""Convex-analysis certificates: derivatives, subgradients, suite reports."""

import dataclasses
import functools
import os
import time
from collections import Counter

import numpy as np
import pytest

from conescore import convexity, pairing, rules, sampling
from conescore.convexity import (
    analytic_directional_derivative,
    certify_directional_derivatives,
    certify_sublinearity,
    entropy_line,
    gateaux_check,
    left_directional_derivative,
    right_directional_derivative,
    run_suite,
    two_sided_derivative,
)
from conescore.densities import Bump, Combination, GaussianDensity, GridDensity, GridField, MixtureDensity
from conescore.errors import (
    DomainError,
    InfeasibleStepError,
    InvalidParameterError,
    OneSidedOnlyError,
    UnsupportedFamilyError,
    ZeroDensityError,
    ZeroMassError,
)

SHANNON_PHI_N01 = -1.4189385332046727
CROSS_ENTROPY_N11_N01 = -1.9189385332046727


def uniform_grid(n=401):
    return GridDensity(0.0, 1.0, np.ones(n))


def bump_field(n=401, lo=0.4, hi=0.6, amp=1.0):
    x = np.linspace(0.0, 1.0, n)
    return GridField(0.0, 1.0, np.where((x >= lo) & (x <= hi), amp, 0.0))


# ---------------------------------------------------------------------------
# entropy lines
# ---------------------------------------------------------------------------

def test_entropy_line_matches_entropy():
    q = GaussianDensity(0.0, 1.0)
    phi = entropy_line("logarithmic", q)
    assert phi(q) == pytest.approx(SHANNON_PHI_N01, abs=1e-7)


def test_quadratic_line_on_uniform():
    q = uniform_grid()
    phi = entropy_line("quadratic", q)
    assert phi(q) == pytest.approx(1.0, abs=1e-12)


def test_supremum_line_needs_grid():
    # refused as rules.entropy refuses it: the supremum rule's family is the grid
    with pytest.raises(UnsupportedFamilyError):
        entropy_line("supremum", GaussianDensity(0.0, 1.0))


def seeded_line(rule, seed=5):
    """A frozen line with base q and direction p, both single leaf fields."""
    rng = np.random.default_rng(seed)
    if rule == "supremum":
        q, p = sampling.sample_plateau_grid(rng), sampling.sample_grid_density(rng)
    else:
        q = sampling.sample_mixture(rng)
        p = sampling.reweighted_mixture(q, rng)
    return entropy_line(rule, q, p), q, p


def per_step_trace(phi, q, p, sign):
    """Reference trace: one call of ``phi`` per scheduled step."""
    base = phi(q)
    return [(t, sign * (phi(q + (sign * t) * p) - base) / t) for t in convexity.FD_STEPS]


def as_callables(line):
    """The line itself, a functools.wraps copy, and a plain callable, with call counters."""
    calls = Counter()

    @functools.wraps(line)
    def wrapped(f):
        calls["wrapped"] += 1
        return line(f)

    def plain(f):
        calls["plain"] += 1
        return line(f)

    return {"line": line, "wrapped": wrapped, "plain": plain}, calls


@pytest.mark.parametrize("rule", ["logarithmic", "hyvarinen", "quadratic", "supremum"])
def test_batched_traces_match_per_step_evaluation(rule):
    line, q, p = seeded_line(rule)
    right_ref = per_step_trace(line, q, p, 1.0)
    left_ref = per_step_trace(line, q, p, -1.0)
    callables, calls = as_callables(line)
    for phi in callables.values():
        right = right_directional_derivative(phi, q, p)
        left = left_directional_derivative(phi, q, p)
        assert len(right.trace) == len(left.trace) == len(convexity.FD_STEPS)
        for est, ref in ((right, right_ref), (left, left_ref)):
            assert [t for t, _ in est.trace] == [t for t, _ in ref]
            assert [v for _, v in est.trace] == pytest.approx([v for _, v in ref], rel=1e-12, abs=0.0)
            assert all(type(v) is float for _, v in est.trace)
    # the wrapped line keeps the one-pass path; the lambda is called per step
    assert calls["wrapped"] == 0
    assert calls["plain"] == 2 * (len(convexity.FD_STEPS) + 1)


def test_two_dimensional_line_batched_matches_per_step():
    scheme = pairing.QuadratureScheme(panels=2, nodes=4)
    q = GaussianDensity([0.0, 0.0], [1.0, 1.0])
    p = GaussianDensity([0.3, -0.2], [1.2, 0.8])
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        line = entropy_line(rule, q, p, scheme=scheme)
        batched = right_directional_derivative(line, q, p)
        per_step = right_directional_derivative(lambda f: line(f), q, p)
        assert batched.value == pytest.approx(per_step.value, rel=1e-12)
        assert [v for _, v in batched.trace] == pytest.approx([v for _, v in per_step.trace], rel=1e-12)


# ---------------------------------------------------------------------------
# one-sided derivatives
# ---------------------------------------------------------------------------

def test_right_derivative_along_base_is_entropy():
    # 1-homogeneity: the quotient (phi((1+t)q) - phi(q)) / t is exactly phi(q)
    q = GaussianDensity(0.0, 1.0)
    phi = entropy_line("logarithmic", q)
    est = right_directional_derivative(phi, q, q)
    assert est.value == pytest.approx(phi(q), abs=1e-9)
    assert est.monotonicity_violations == 0
    assert est.converged


def test_right_derivative_matches_expected_score():
    q = GaussianDensity(0.0, 1.0)
    p = GaussianDensity(1.0, 1.0)
    phi = entropy_line("logarithmic", q, p)
    est = right_directional_derivative(phi, q, p)
    assert est.value == pytest.approx(CROSS_ENTROPY_N11_N01, abs=1e-5)


def test_right_quotients_nonincreasing():
    q = uniform_grid()
    phi = entropy_line("quadratic", q)
    est = right_directional_derivative(phi, q, bump_field())
    quotients = [qt for _, qt in est.trace]
    assert all(b <= a + 1e-12 for a, b in zip(quotients, quotients[1:]))


@pytest.mark.parametrize("k", [1, 2])
def test_richardson_step_is_exact_for_an_error_term_of_order_k(k):
    # Q(t) = D + c t^k at the last two steps: every operation here is exact in floating point
    for d, c in [(0.75, 3.0), (-1.5, -0.375), (0.0, 1.0)]:
        trace = [(t, d + c * t**k) for t in convexity.FD_STEPS[-2:]]
        assert convexity._richardson(trace, k) == d
    assert convexity._richardson([(0.5, 0.25)], k) == 0.25


def test_both_sides_are_one_quotient_routine():
    # the left estimate is the right estimate along -p with its quotients negated
    q = uniform_grid()
    phi = entropy_line("quadratic", q)
    right = right_directional_derivative(phi, q, -1.0 * bump_field(amp=0.5))
    left = left_directional_derivative(phi, q, bump_field(amp=0.5))
    assert [(t, -qt) for t, qt in right.trace] == list(left.trace)
    assert (left.value, left.side, left.monotonicity_violations) == (-right.value, "left", 0)
    # at the supremum's kink the left quotients are phi(q) - phi(q - t p) = 1 - 1: +0.0, not -0.0
    kink = left_directional_derivative(entropy_line("supremum", q), q, bump_field(amp=1.0))
    assert [str(qt) for _, qt in kink.trace] == ["0.0"] * len(convexity.FD_STEPS)


def test_infeasible_step_names_the_step():
    q = uniform_grid()
    phi = entropy_line("logarithmic", q)
    hostile = bump_field(amp=-1e9)  # leaves the nonnegative cone at every step
    with pytest.raises(InfeasibleStepError) as err:
        right_directional_derivative(phi, q, hostile)
    assert err.value.step == pytest.approx(2.0**-3)


@pytest.mark.parametrize("kind", ["line", "wrapped", "plain"])
def test_infeasible_steps_on_every_path(kind):
    q = uniform_grid()
    # 1 - 40 t < 0 for t = 2^-3, 2^-4, 2^-5 only
    phi = as_callables(entropy_line("logarithmic", q))[0][kind]
    with pytest.raises(InfeasibleStepError) as err:
        right_directional_derivative(phi, q, bump_field(amp=-40.0))
    assert err.value.step == 2.0**-3
    est = left_directional_derivative(phi, q, bump_field(amp=40.0))
    assert [t for t, _ in est.trace] == list(convexity.FD_STEPS[3:])
    vals = np.ones(401)
    vals[:200] = 0.0
    half = GridDensity(0.0, 1.0, vals)
    phi = as_callables(entropy_line("logarithmic", half))[0][kind]
    with pytest.raises(OneSidedOnlyError):
        left_directional_derivative(phi, half, uniform_grid())


@pytest.mark.parametrize(
    "rule, scale, cause",
    [("logarithmic", -1.0, ZeroDensityError), ("logarithmic", 0.0, ZeroMassError), ("quadratic", -1.0, ZeroMassError)],
)
def test_infeasible_base_point_is_step_zero(rule, scale, cause):
    q = uniform_grid()
    phi = entropy_line(rule, q)
    with pytest.raises(cause):
        phi(scale * q)
    with pytest.raises(InfeasibleStepError) as err:
        right_directional_derivative(phi, scale * q, q)
    assert err.value.step == 0.0
    assert isinstance(err.value.__cause__, cause)


def test_left_derivative_skips_large_steps():
    q = uniform_grid()
    phi = entropy_line("logarithmic", q)
    direction = bump_field(amp=12.0)  # q - t p dips negative only at the largest step
    est = left_directional_derivative(phi, q, direction)
    assert est.side == "left"
    assert len(est.trace) == len(convexity.FD_STEPS) - 1
    # the normalised uniform density has log-score 0, so the derivative vanishes
    assert est.value == pytest.approx(0.0, abs=1e-6)


def test_one_sided_only_direction():
    vals = np.ones(401)
    vals[:200] = 0.0  # any backward step along a full-support direction exits
    q = GridDensity(0.0, 1.0, vals)
    phi = entropy_line("logarithmic", q)
    with pytest.raises(OneSidedOnlyError):
        left_directional_derivative(phi, q, uniform_grid())


def test_two_sided_derivative_smooth_case():
    q = uniform_grid()
    phi = entropy_line("quadratic", q)
    direction = bump_field(amp=0.5)
    ts = two_sided_derivative(phi, q, direction)
    assert ts.matched
    assert ts.value == pytest.approx(ts.right.value, abs=1e-4)
    assert ts.gap <= 1e-4


def test_two_sided_derivative_detects_kink():
    # sup entropy: raising a point off the plateau moves only the right slope
    q = uniform_grid()
    phi = entropy_line("supremum", q)
    ts = two_sided_derivative(phi, q, bump_field(amp=1.0))
    assert not ts.matched
    assert ts.right.value == pytest.approx(1.0, abs=1e-9)
    assert ts.left.value == pytest.approx(0.0, abs=1e-9)
    assert ts.value is None


def test_analytic_derivative_smooth_and_sup():
    q = GaussianDensity(0.0, 1.0)
    p = GaussianDensity(1.0, 1.0)
    assert analytic_directional_derivative("logarithmic", q, p) == pytest.approx(
        CROSS_ENTROPY_N11_N01, abs=1e-6
    )
    vals = np.ones(401)
    vals[100:141] = 2.0
    qg = GridDensity(0.0, 1.0, vals)
    x = np.linspace(0.0, 1.0, 401)
    pg = GridDensity(0.0, 1.0, 1.0 + x)
    # max of p-hat over the modal band [0.25, 0.35], p has mass 1.5
    assert analytic_directional_derivative("supremum", qg, pg) == pytest.approx(
        1.35 / 1.5, rel=1e-9
    )
    with pytest.raises(UnsupportedFamilyError):
        analytic_directional_derivative("supremum", qg, p)
    # two grids are not one
    with pytest.raises(InvalidParameterError):
        analytic_directional_derivative("supremum", qg, GridDensity(0.0, 1.0, np.ones(201)))


# ---------------------------------------------------------------------------
# Gateaux differentiability of the quadratic entropy
# ---------------------------------------------------------------------------

def test_gateaux_gradient_on_uniform():
    # gradient field of the quadratic entropy at uniform is the constant 1,
    # so the derivative along p is the plain integral of p
    q = uniform_grid()
    centered = GridField(0.0, 1.0, np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, 401)))
    report = gateaux_check(q, [centered, uniform_grid(), bump_field(amp=1.0)])
    assert report.passed
    gradient_cases = [c for c in report.cases if "gradient" in c.case_id]
    assert len(gradient_cases) == 3
    assert all(c.residual <= 1e-5 for c in gradient_cases)
    assert any("additivity" in c.case_id for c in report.cases)
    assert any("homogeneity" in c.case_id for c in report.cases)


def test_gateaux_evaluates_each_leaf_once_per_node_set(monkeypatch):
    # counts calls, not time: sizing the cover inside nodes_for samples each leaf once per
    # level, and the set it returns keeps those samples for the kernel outside it. Counted
    # together, inside and outside nodes_for, no leaf is evaluated twice on one node array
    calls = Counter()  # (leaf id, points id) -> evaluations
    seen = []  # holding the node arrays keeps their ids unique
    depth = [0]
    kernel_sets = []
    original_nodes_for = pairing.nodes_for

    def recording(field, scheme=None):
        ns = original_nodes_for(field, scheme)
        kernel_sets.append(ns.points)
        return ns

    def counting(original):
        def evaluate(self, x, *args):
            if not depth[0]:  # a value read through sample is one evaluation
                seen.append(x)
                calls[id(self), id(x)] += 1
            depth[0] += 1
            try:
                return original(self, x, *args)
            finally:
                depth[0] -= 1

        return evaluate

    for cls in (MixtureDensity, Bump):
        for meth in ("sample", "value", "gradient", "laplacian"):
            monkeypatch.setattr(cls, meth, counting(getattr(cls, meth)))
    monkeypatch.setattr(pairing, "nodes_for", recording)
    rng = np.random.default_rng(8)
    q = sampling.sample_mixture(rng)
    directions = [
        Bump(0.5, 0.8, 0.2),
        Bump(-1.0, 0.6, 0.3) - Bump(1.0, 0.5, 0.2),
        Bump(0.0, 1.0, -0.1),
        sampling.sample_mixture(rng) * 0.2,
    ]
    report = gateaux_check(q, directions)
    assert report.passed
    assert max(calls.values()) == 1
    kernel = kernel_sets[0]  # the entropy line's cover, sized before anything else is asked
    leaves = {id(q)} | {id(leaf) for d in directions for _, leaf in d.terms()}
    assert {leaf for leaf, x in calls if x == id(kernel)} == leaves


def test_gateaux_requires_directions():
    with pytest.raises(InvalidParameterError):
        gateaux_check(uniform_grid(), [])


def test_infeasible_gateaux_row_names_its_step():
    # q - 1e6 q t has negative mass at the first row the derivative reads, t = 2^-17
    q = sampling.sample_mixture(np.random.default_rng(3))
    with pytest.raises(InfeasibleStepError) as err:
        gateaux_check(q, [-1e6 * q])
    assert err.value.step == convexity.FD_STEPS[-2]
    assert isinstance(err.value.__cause__, ZeroMassError)


def gateaux_bases(seed=42, samples=50):
    """The bases and directions of ``run_suite("gateaux", seed=seed)``."""
    for k in range(min(10, max(1, samples // 5))):
        rng = np.random.default_rng([seed, 29, k])
        q = sampling.sample_mixture(rng)
        yield q, convexity._gateaux_directions(rng, max(4, (2 * samples) // 5))


def test_gateaux_derivative_is_the_full_schedule_richardson_pair():
    # the four rows evaluated give exactly the numbers the whole +-t schedule gave
    steps = convexity.FD_STEPS
    for q, directions in gateaux_bases():
        line = entropy_line("quadratic", q, *directions)
        for p in directions:
            values = line.along(q, p, [s for t in steps for s in (t, -t)])
            quotients = [(a - b) / (2.0 * t) for t, a, b in zip(steps, values[0::2], values[1::2])]
            r2 = (steps[-2] / steps[-1]) ** 2
            full = (r2 * quotients[-1] - quotients[-2]) / (r2 - 1.0)
            assert convexity._symmetric_derivative(line, q, p) == full


def test_gateaux_certifies_a_direction_leaving_the_domain_far_from_q():
    # q - 10q t has negative mass from t = 1/10, far above the steps the derivative reads
    q = sampling.sample_mixture(np.random.default_rng(3))
    report = gateaux_check(q, [-10.0 * q])
    assert report.passed


def test_gateaux_evaluates_four_rows_per_field(monkeypatch):
    rows = []
    original = rules._row_entropies

    def counting(rule, w, s):
        rows.append(len(s.value))
        return original(rule, w, s)

    monkeypatch.setattr(rules, "_row_entropies", counting)
    q, directions = next(gateaux_bases())
    report = gateaux_check(q, directions)
    assert report.passed
    # one field per direction, per adjacent pair's sum, and 2 p0 for homogeneity
    assert rows == [4] * (2 * len(directions))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def assert_supremum_derivative_matches_its_closed_form(p, q):
    est, analytic = convexity.derivative_against_closed_form("supremum", q, p)
    assert est.converged
    assert abs(est.value - analytic) <= 1e-4


def test_certify_subgradient_supremum_plateau():
    # five plateau modes along grid directions
    rng = np.random.default_rng(4)
    for _ in range(5):
        p, q = sampling.sample_grid_density(rng), sampling.sample_plateau_grid(rng)
        assert_supremum_derivative_matches_its_closed_form(p, q)


def test_certify_subgradient_supremum_dirac_note():
    # a triangle whose mode is one node: the Dirac regime, flagged with a measure-zero note
    x = np.linspace(0.0, 1.0, 401)
    p, q = uniform_grid(), GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    assert_supremum_derivative_matches_its_closed_form(p, q)
    diagnostics = {}
    rules.expected_score("supremum", p, q, diagnostics=diagnostics)
    assert diagnostics["dirac"]
    assert "measure-zero" in diagnostics["note"]


def test_certify_sublinearity_mixtures():
    rng = np.random.default_rng(9)
    fields = [sampling.sample_mixture(rng) for _ in range(4)]
    for rule in ("logarithmic", "hyvarinen", "quadratic"):
        report = certify_sublinearity(rule, fields)
        assert report.passed
        kinds = {c.case_id.split("/")[-1][:5] for c in report.cases}
        assert {"scale", "subad", "segme"} <= kinds


def test_certify_directional_derivatives_small():
    rng = np.random.default_rng(2)
    q = sampling.sample_mixture(rng)
    qh = q * (1.0 / pairing.total_mass(q))

    def unit(f):
        return f * (1.0 / pairing.total_mass(f))

    one_sided = [unit(sampling.perturbed_mixture(q, rng)) for _ in range(2)]
    two_sided = [
        Combination((0.2, -0.2), (unit(sampling.perturbed_mixture(q, rng)), qh))
        for _ in range(2)
    ]
    report = certify_directional_derivatives("logarithmic", q, one_sided, two_sided)
    assert report.passed
    with pytest.raises(InvalidParameterError):
        certify_directional_derivatives("logarithmic", q, one_sided[:1], two_sided)


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

def test_run_suite_validation():
    with pytest.raises(InvalidParameterError):
        run_suite("spectra")
    with pytest.raises(InvalidParameterError):
        run_suite("euler", samples=0)
    with pytest.raises(InvalidParameterError):
        run_suite("gateaux", rule="logarithmic")
    with pytest.raises(InvalidParameterError, match="non-negative"):
        run_suite("euler", seed=-1)


@pytest.mark.parametrize("sampler", [sampling.sample_mixture_pairs, sampling.sample_fd_pairs])
def test_seeded_samplers_refuse_a_negative_seed(sampler):
    # numpy's own refusal is a bare ValueError
    with pytest.raises(InvalidParameterError, match="non-negative"):
        sampler(3, seed=-1)


def test_all_runs_each_suite_of_the_table_in_order():
    assert convexity.SUITES == (*convexity._SUITE_CASES, "all")
    assert list(convexity._SUITE_CASES) == ["euler", "propriety", "homogeneity", "derivatives", "gateaux"]
    whole = run_suite("all", samples=10, seed=3).cases
    assert whole == tuple(c for name in convexity._SUITE_CASES for c in run_suite(name, samples=10, seed=3).cases)


def _force_workers(monkeypatch, w):
    monkeypatch.setattr(convexity, "_workers", lambda n_jobs: min(w, n_jobs))


def _raising(exc):
    def build(*args):
        raise exc

    return build


@pytest.mark.parametrize("options", [{}, {"rule": "hyvarinen"}, {"samples": 10}, {"tol": 1e-6}])
def test_suite_workers_give_the_one_cpu_report(monkeypatch, options):
    reports = {}
    for w in (1, 2, 5):
        _force_workers(monkeypatch, w)
        reports[w] = [run_suite("all", seed=seed, **options).to_json() for seed in range(3)]
    assert reports[2] == reports[1]
    assert reports[5] == reports[1]


def test_suite_workers_raise_the_first_exception_in_table_order(monkeypatch):
    _force_workers(monkeypatch, 2)  # the caller runs euler, homogeneity and gateaux; a child propriety and derivatives
    monkeypatch.setitem(convexity._SUITE_CASES, "propriety", (_raising(InfeasibleStepError("b", step=0.125)), 1e-8))
    with pytest.raises(InfeasibleStepError, match="^b$") as caught:
        run_suite("all", samples=2, seed=3)
    assert caught.value.step == 0.125
    # a later suite of the caller's raising too does not hide the child's earlier one
    monkeypatch.setitem(convexity._SUITE_CASES, "homogeneity", (_raising(ZeroMassError("c")), 1e-8))
    with pytest.raises(InfeasibleStepError, match="^b$"):
        run_suite("all", samples=2, seed=3)
    monkeypatch.setitem(convexity._SUITE_CASES, "euler", (_raising(ZeroDensityError("a")), 1e-8))
    with pytest.raises(ZeroDensityError, match="^a$"):
        run_suite("all", samples=2, seed=3)


def test_no_suite_worker_outlives_run_suite(monkeypatch):
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def stalling(*args):
        time.sleep(60)
        return []

    monkeypatch.setattr(os, "fork", recording_fork)
    _force_workers(monkeypatch, 3)
    run_suite("all", samples=2, seed=3)
    monkeypatch.setitem(convexity._SUITE_CASES, "derivatives", (_raising(ZeroMassError("c")), 1e-8))
    with pytest.raises(ZeroMassError):
        run_suite("all", samples=2, seed=3)
    # an interrupt in the caller's own suites kills the children, which are not waited out
    monkeypatch.setitem(convexity._SUITE_CASES, "propriety", (stalling, 1e-8))
    monkeypatch.setitem(convexity._SUITE_CASES, "euler", (_raising(KeyboardInterrupt()), 1e-8))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite("all", samples=2, seed=3)
    assert time.perf_counter() - start < 30
    assert len(pids) == 6
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_suite_worker_that_dies_is_an_error_naming_its_suites(monkeypatch):
    me = os.getpid()

    def dying(*args):
        if os.getpid() != me:
            os._exit(3)
        return []

    _force_workers(monkeypatch, 2)
    monkeypatch.setitem(convexity._SUITE_CASES, "propriety", (dying, 1e-8))
    with pytest.raises(RuntimeError, match=r"'propriety', 'derivatives'.*wait status 768"):
        run_suite("all", samples=2, seed=3)


def test_a_failed_fork_runs_its_share_in_the_caller(monkeypatch):
    _force_workers(monkeypatch, 1)
    serial = run_suite("all", samples=10, seed=3).to_json()

    def failing_fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", failing_fork)
    _force_workers(monkeypatch, 3)
    assert run_suite("all", samples=10, seed=3).to_json() == serial


def test_forked_returns_each_job_result_in_job_order(monkeypatch):
    jobs = [lambda k=k: (k, os.getpid()) for k in range(7)]
    for w in (1, 2, 5):
        _force_workers(monkeypatch, w)
        results = convexity.forked(jobs, [str(k) for k in range(7)])
        assert [k for k, _ in results] == list(range(7))
        assert len({pid for _, pid in results}) == w  # the caller and w - 1 children


def test_a_worker_hands_back_a_large_result_without_waiting_on_the_caller(monkeypatch):
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def child_exited():  # the caller's job, run while the child holds 16 MB of result
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
                return True
            time.sleep(0.01)
        return False

    monkeypatch.setattr(os, "fork", recording_fork)
    _force_workers(monkeypatch, 2)
    big = b"x" * (16 << 20)
    assert convexity.forked([child_exited, lambda: big], ["caller", "child"]) == [True, big]


def test_tol_replaces_the_primary_tolerance_of_every_suite_all_runs(monkeypatch):
    primary = {name: tol for name, (_, tol) in convexity._SUITE_CASES.items()}
    suite_of = {}

    def tagging(name, build):
        def cases(*args):
            built = build(*args)
            suite_of.update((c.case_id, name) for c in built)
            return built

        return cases

    monkeypatch.setattr(convexity, "_SUITE_CASES", {n: (tagging(n, b), t) for n, (b, t) in convexity._SUITE_CASES.items()})
    monkeypatch.setattr(convexity, "_workers", lambda n_jobs: 1)  # the tags are recorded in this process
    base, tight = run_suite("all", samples=10, seed=3), run_suite("all", samples=10, seed=3, tol=1e-3)
    assert set(suite_of.values()) == set(primary)
    assert [c.case_id for c in tight.cases] == [c.case_id for c in base.cases]
    takes = [c.tol == primary[suite_of[c.case_id]] for c in base.cases]
    assert {suite_of[c.case_id] for c, took in zip(base.cases, takes) if took} == set(primary)
    for b, t, took in zip(base.cases, tight.cases, takes):
        assert (t.case_id, t.residual, t.tol) == (b.case_id, b.residual, 1e-3 if took else b.tol)
    # without tol, each suite takes its primary tolerance, as before
    assert base.cases == tuple(c for n, t in primary.items() for c in run_suite(n, samples=10, seed=3, tol=t).cases)


@pytest.mark.parametrize("tol", [0.0, -1e-3])
def test_nonpositive_tol_is_refused(tol):
    for suite in ("euler", "all"):
        with pytest.raises(InvalidParameterError, match="tol must be positive"):
            run_suite(suite, samples=2, seed=3, tol=tol)


@pytest.mark.parametrize("tol, why", [(float("nan"), "finite"), (float("inf"), "finite"), (float("-inf"), "positive")])
def test_non_finite_tol_is_refused_before_any_case_runs(monkeypatch, tol, why):
    def never(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(convexity, "_SUITE_CASES", {n: (never, t) for n, (_, t) in convexity._SUITE_CASES.items()})
    for suite in ("euler", "all"):
        with pytest.raises(InvalidParameterError, match=f"tol must be {why}, got {tol!r}"):
            run_suite(suite, samples=2, seed=3, tol=tol)


def test_run_suite_report_shape():
    report = run_suite("euler", samples=5, seed=1)
    assert report.passed
    d = report.to_dict()
    assert d["suite"] == "euler"
    assert d["seed"] == 1
    assert d["summary"] == {"pass": len(report.cases), "total": len(report.cases)}
    assert all({"id", "residual", "tol", "pass"} <= set(c) for c in d["cases"])
    assert set(d["scheme"]) == {"panels", "nodes", "radius", "tail_tol"}


def test_run_suite_reports_are_deterministic():
    a = run_suite("derivatives", rule="quadratic", samples=10, seed=3).to_json()
    b = run_suite("derivatives", rule="quadratic", samples=10, seed=3).to_json()
    assert a == b


def test_report_json_refuses_a_non_finite_value_by_its_field():
    report = certify_sublinearity("quadratic", [GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 2.0)], tol=float("nan"))
    with pytest.raises(DomainError, match=r"^report value cases\[0\]\.tol is not a finite number$"):
        report.to_json()


def test_failed_case_fails_report():
    case = convexity.CaseResult("demo", 1.0, 0.5, False)
    report = convexity.VerificationReport("demo", (case,), None, pairing.DEFAULT_SCHEME)
    assert not report.passed


@pytest.mark.parametrize("suite", ["euler", "propriety", "homogeneity", "derivatives"])
def test_the_rules_table_drives_the_suites(monkeypatch, suite):
    # a renamed copy of the quadratic record is certified as the quadratic rule is, under its own name
    monkeypatch.setitem(rules.RULES, "tabled", dataclasses.replace(rules.RULES["quadratic"], name="tabled", aliases=("tabled",)))
    copy = run_suite(suite, rule="tabled", samples=10, seed=3).to_dict()["cases"]
    original = run_suite(suite, rule="quadratic", samples=10, seed=3).to_dict()["cases"]
    assert copy and all(case["id"].startswith("tabled/") for case in copy)
    assert [{**case, "id": case["id"].replace("tabled/", "quadratic/", 1)} for case in copy] == original
