"""Acceptance gate: the package's headline guarantees at their stated tolerances.

Each test is one criterion; the conftest terminal summary prints one
PASS/FAIL line per criterion at the end of the run.
"""

import json
import time

import numpy as np
import pytest

from conescore import boundary, cli, convexity, pairing, rules, sampling
from conescore.densities import GaussianDensity, GridDensity

ANALYTIC_RULES = tuple(name for name, rule in rules.RULES.items() if rule.analytic)

SHANNON_PHI_N01 = -1.4189385
QUAD_DIV_N01_N11 = 0.1247980


def test_criterion_1_euler_identity():
    start = time.perf_counter()
    report = convexity.run_suite("euler", samples=50, seed=42)
    elapsed = time.perf_counter() - start
    mix = [c for c in report.cases if "/mix" in c.case_id]
    grid = [c for c in report.cases if "/grid" in c.case_id]
    assert len(mix) == 3 * 50
    assert len(grid) == 3 * 20
    worst = max(c.residual for c in report.cases)
    print(f"euler: {len(report.cases)} cases, worst residual {worst:.3e}, {elapsed:.1f}s")
    assert report.passed
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_propriety():
    start = time.perf_counter()
    report = convexity.run_suite("propriety", samples=200, seed=42)
    elapsed = time.perf_counter() - start
    kinds = {c.case_id.split("/")[-1].rstrip("0123456789") for c in report.cases}
    assert {"pair", "self", "strict"} <= kinds
    print(f"propriety: {len(report.cases)} cases, {elapsed:.1f}s")
    assert report.passed
    assert elapsed < 120.0


def test_criterion_3_derivative_is_expected_score():
    pairs = sampling.sample_fd_pairs(100, seed=42)
    for rule in ANALYTIC_RULES:
        worst = 0.0
        for p, q in pairs:
            est, analytic = convexity.derivative_against_closed_form(rule, q, p)
            worst = max(worst, abs(est.value - analytic))
        print(f"{rule}: worst |FD - expected score| = {worst:.3e} over {len(pairs)} pairs")
        assert worst <= 1e-4


def test_criterion_4_closed_form_spot_checks():
    p, q = GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 1.0)
    kl = rules.divergence("logarithmic", p, q)
    fisher = rules.divergence("hyvarinen", p, q)
    quad = rules.divergence("quadratic", p, q)
    shannon = rules.entropy("logarithmic", p)
    print(f"KL={kl:.9f} fisher={fisher:.9f} quad={quad:.9f} shannon={shannon:.9f}")
    assert kl == pytest.approx(0.5, abs=1e-6)
    assert fisher == pytest.approx(1.0, abs=1e-6)  # (mean gap)^2 at unit variance
    assert quad == pytest.approx(QUAD_DIV_N01_N11, abs=1e-5)
    assert shannon == pytest.approx(SHANNON_PHI_N01, abs=1e-7)
    for var in (0.25, 1.0, 4.0):
        assert rules.entropy("hyvarinen", GaussianDensity(0.0, var)) == pytest.approx(
            1.0 / var, abs=1e-7
        )


def test_criterion_5_integration_by_parts():
    worst = 0.0
    for p, q in sampling.sample_mixture_pairs(50, seed=42):
        direct = rules.hyvarinen_divergence_direct(p, q)
        via_score = rules.divergence("hyvarinen", p, q)
        worst = max(worst, abs(direct - via_score))
    print(f"IBP: worst |direct - via score| = {worst:.3e} over 50 pairs")
    assert worst <= 1e-6
    g = GaussianDensity(0.0, 1.0)
    for radius, bound in ((6.0, 1e-7), (8.0, 1e-10), (10.0, 1e-20)):
        term = abs(pairing.boundary_term(g, g, radius))
        print(f"boundary term at R={radius:g}: {term:.3e} < {bound:g}")
        assert term < bound


def test_criterion_6_directional_derivative_structure():
    report = convexity.run_suite("derivatives", samples=50, seed=42)
    families = (
        "monotone-quotients",
        "derivative-sublinear",
        "base-scale-invariance",
        "support-inequality",
        "left-right-order",
        "two-sided-additivity",
    )
    for family in families:
        cases = [c for c in report.cases if family in c.case_id]
        assert cases, family
        assert all(c.passed for c in cases), family
    print(f"derivatives: {len(report.cases)} cases across {len(families)} properties")
    assert report.passed


def test_criterion_7_gateaux_differentiability():
    report = convexity.run_suite("gateaux", samples=50, seed=42)
    gradient = [c for c in report.cases if "gradient" in c.case_id]
    additivity = [c for c in report.cases if "additivity" in c.case_id]
    assert len(gradient) == 10 * 20  # 10 interior bases, 20 directions each
    assert all(c.tol == 1e-5 for c in gradient)
    assert all(c.tol == 1e-7 for c in additivity)
    worst = max(c.residual for c in gradient)
    print(f"gateaux: worst gradient residual {worst:.3e} over {len(gradient)} cases")
    assert report.passed


def test_criterion_8_boundary_pathologies():
    xs = [10.0**-k for k in range(1, 13)]
    trace = boundary.boundary_blowup_trace(xs, threshold=-27.0)
    assert trace.strictly_decreasing
    assert trace.final() < -27.0

    seq = boundary.DyadicSequence.geometric(0.5, size=200)
    witnesses = dict(boundary.nowhere_dense_witness(seq, [1.0]))
    assert witnesses[1.0] == 2

    x = np.linspace(0.0, 1.0, 401)
    plateau = GridDensity(0.0, 1.0, np.where((x <= 0.25) | (x >= 0.75), 2.0, 0.1))
    report = boundary.sup_dichotomy_demo(plateau, n_probes=20, seed=42)
    assert report.regime == "integrable-subgradient"
    euler = report.checks[0]
    assert euler.label == "euler-pairing"
    assert abs(euler.lhs - euler.rhs) <= 1e-12
    probes = [c for c in report.checks if c.label.endswith("-support")]
    assert len(probes) == 20
    assert all(c.passed for c in probes)

    triangle = GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    dirac = boundary.sup_dichotomy_demo(triangle, n_probes=20, seed=42)
    assert dirac.regime == "dirac"
    assert dirac.passed
    print(
        f"blowup final {trace.final():.3f}; witness k={witnesses[1.0]}; "
        f"plateau pairing gap {abs(euler.lhs - euler.rhs):.1e}; singleton regime {dirac.regime}"
    )


def test_criterion_9_byte_identical_reports(capsys):
    argv = ["verify", "--suite", "all", "--seed", "42"]
    code_a = cli.main(argv)
    out_a = capsys.readouterr().out
    code_b = cli.main(argv)
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a.encode() == out_b.encode()
    summary = json.loads(out_a)["summary"]
    print(f"verify --suite all: {summary['pass']}/{summary['total']} cases, byte-identical")
