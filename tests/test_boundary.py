"""Boundary pathologies: blow-up traces, empty-interior witnesses, sup dichotomy."""

import math

import numpy as np
import pytest

from conescore.boundary import (
    DyadicSequence,
    binary_shannon,
    boundary_blowup_trace,
    nowhere_dense_witness,
    sup_dichotomy_demo,
)
from conescore.densities import GridDensity
from conescore.errors import DomainError, InvalidParameterError, NoWitnessError


def plateau_grid(n=401):
    x = np.linspace(0.0, 1.0, n)
    return GridDensity(0.0, 1.0, np.where((x <= 0.25) | (x >= 0.75), 2.0, 0.1))


def triangle_grid(n=401):
    x = np.linspace(0.0, 1.0, n)
    return GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)


# ---------------------------------------------------------------------------
# binary entropy at the boundary
# ---------------------------------------------------------------------------

def test_binary_shannon_symmetric_point():
    value, (px, py) = binary_shannon(0.5, 0.5)
    assert value == pytest.approx(math.log(0.5), abs=1e-15)
    assert px == pytest.approx(math.log(0.5), abs=1e-15)
    assert py == px


def test_binary_shannon_homogeneity():
    v1, p1 = binary_shannon(0.3, 1.7)
    v2, p2 = binary_shannon(3.0, 17.0)
    assert v2 == pytest.approx(10.0 * v1, rel=1e-14)
    assert p2[0] == pytest.approx(p1[0], abs=1e-14)
    assert p2[1] == pytest.approx(p1[1], abs=1e-14)


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (-0.1, 1.0), (1.0, 0.0), (np.inf, 1.0), (np.nan, 1.0)])
def test_binary_shannon_rejects_boundary(x, y):
    with pytest.raises(DomainError):
        binary_shannon(x, y)


def test_blowup_trace_crosses_threshold():
    xs = [10.0**-k for k in range(1, 13)]
    trace = boundary_blowup_trace(xs, threshold=-27.0)
    assert trace.strictly_decreasing
    assert trace.final() < -27.0
    assert trace.crossed_at == 11  # only x = 1e-12 is below the threshold
    assert trace.final() == pytest.approx(math.log(1e-12 / (1.0 + 1e-12)), abs=1e-12)


def test_blowup_trace_without_threshold():
    trace = boundary_blowup_trace([0.5, 0.25, 0.125])
    assert trace.threshold is None and trace.crossed_at is None
    assert len(trace.partials) == 3


def test_blowup_trace_never_crossing():
    trace = boundary_blowup_trace([0.5, 0.25], threshold=-27.0)
    assert trace.crossed_at is None


@pytest.mark.parametrize("xs", [[], [0.5, 0.5], [0.25, 0.5], [0.5, -0.1]])
def test_blowup_trace_validates_path(xs):
    with pytest.raises(InvalidParameterError):
        boundary_blowup_trace(xs)


# ---------------------------------------------------------------------------
# dyadic shells and the empty-interior witness
# ---------------------------------------------------------------------------

def test_geometric_sequence_closed_forms():
    seq = DyadicSequence.geometric(0.5, size=120)
    np.testing.assert_allclose(seq.r, 2.0 * seq.a, rtol=1e-15)
    np.testing.assert_allclose(seq.b, np.sqrt(seq.a / 2.0), rtol=1e-14)
    total = (1.0 / math.sqrt(2.0)) / (1.0 - 1.0 / math.sqrt(2.0))
    assert seq.b_partial_sums()[-1] == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("ratio,size", [(0.0, 10), (1.0, 10), (0.5, 0)])
def test_geometric_validation(ratio, size):
    with pytest.raises(InvalidParameterError):
        DyadicSequence.geometric(ratio, size=size)


def test_sequence_validation():
    with pytest.raises(InvalidParameterError):
        DyadicSequence(np.array([1.0, 0.5]), np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        DyadicSequence(np.array([1.0, -0.5]), np.array([2.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        DyadicSequence(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        # tail drop r_k - r_{k+1} smaller than the shell mass a_k
        DyadicSequence(np.array([1.0, 0.5]), np.array([1.2, 0.6]))


def test_witness_indices_for_geometric_half():
    seq = DyadicSequence.geometric(0.5, size=200)
    hits = dict(nowhere_dense_witness(seq, [10.0, 1.0, 0.1, 0.01]))
    assert hits[10.0] == 0
    assert hits[1.0] == 2
    assert hits[0.1] == 8
    assert hits[0.01] == 15


def test_witness_requires_long_enough_truncation():
    with pytest.raises(NoWitnessError):
        nowhere_dense_witness(DyadicSequence.geometric(0.5, size=5), [0.01])
    with pytest.raises(InvalidParameterError):
        nowhere_dense_witness(DyadicSequence.geometric(0.5, size=5), [-1.0])


# ---------------------------------------------------------------------------
# supremum subgradient dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_plateau_regime():
    report = sup_dichotomy_demo(plateau_grid(), n_probes=20, seed=42)
    assert report.regime == "integrable-subgradient"
    assert report.passed
    assert report.mode_measure > 0
    labels = [c.label for c in report.checks]
    assert labels[0] == "euler-pairing"
    assert sum(1 for lbl in labels if lbl.endswith("-support")) == 20
    euler = report.checks[0]
    assert euler.lhs == pytest.approx(report.height, abs=1e-12)


def test_dichotomy_dirac_regime():
    report = sup_dichotomy_demo(triangle_grid(), n_probes=20, seed=42)
    assert report.regime == "dirac"
    assert report.passed
    assert report.mode_measure == 0.0
    labels = {c.label for c in report.checks}
    assert "no-subgradient" in labels
    assert {lbl for lbl in labels if lbl.startswith("defeats-")} == {
        "defeats-uniform",
        "defeats-proportional-to-q",
        "defeats-off-mode-indicator",
    }


def test_dichotomy_dirac_regime_on_a_coarse_grid():
    # no node of a 7-point triangle lies off the mode: the off-mode candidate has no mass to defeat
    report = sup_dichotomy_demo(triangle_grid(7), n_probes=20, seed=42)
    assert report.regime == "dirac"
    assert report.passed
    assert all(math.isfinite(c.lhs) and math.isfinite(c.rhs) for c in report.checks)
    assert "defeats-off-mode-indicator" not in {c.label for c in report.checks}


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 21, 41, 401])
def test_dichotomy_dirac_probes_lie_off_the_mode(n):
    # a probe is kept only where the grid has a node far enough off the mode to support it: its rhs is 0
    report = sup_dichotomy_demo(triangle_grid(n), n_probes=20, seed=42)
    defeats = [c for c in report.checks if c.label.startswith("defeats-")]
    assert report.regime == "dirac"
    assert report.passed
    assert len(defeats) == (3 if n >= 15 else 0)
    assert all(c.rhs == 0.0 for c in defeats)


def test_dichotomy_report_round_trip():
    report = sup_dichotomy_demo(plateau_grid(), n_probes=5, seed=1)
    d = report.to_dict()
    assert d["regime"] == report.regime
    assert d["pass"] is True
    assert len(d["checks"]) == len(report.checks)
    again = sup_dichotomy_demo(plateau_grid(), n_probes=5, seed=1)
    assert again.to_dict() == d
