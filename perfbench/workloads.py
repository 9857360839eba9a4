"""The three workloads: ``certify``, ``score`` and ``plane``.

Each workload generates its inputs from the run's seed, then runs rounds
of operations in a closed loop (one operation in flight). A round is the
smallest unit whose checks are complete on their own: a seed run twice
for ``certify``, every rule with and without ``--out`` for ``score``, and
one list of eleven calls for ``plane``. Every operation's output is checked;
a failed check counts the operation as failed.

End-to-end runs execute ``certify`` and ``score`` as ``conescore``
subprocesses and ``plane`` as library calls. Traced runs execute all
three in-process, each job once traced and once untraced, so that the
tracing overhead is measured on identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles

_OP_TIMEOUT_S = 60


@dataclass
class Op:
    """One completed or failed operation."""

    name: str
    seconds: float
    traced: bool | None = None  # None: end-to-end run; else in-process, traced or not
    items: int = 0
    failed: bool = False
    wrong: bool = False  # output produced but incorrect, as opposed to a typed refusal
    note: str = ""
    out_bytes: int = 0

    def fail(self, note: str, wrong: bool) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.note = self.note or note


class Context:
    """What a workload needs from the run: seed, paths, mode and tracer."""

    def __init__(self, root: Path, seed: int, workdir: Path, tracer=None):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._traced_ops = 0

    def modes(self, k: int) -> list:
        """[None] end to end; in a traced run, both orders of untraced/traced, alternating by round."""
        if self.tracer is None:
            return [None]
        return [False, True] if k % 2 == 0 else [True, False]

    @contextlib.contextmanager
    def traced(self, on: bool):
        if not on:
            yield
            return
        self.tracer.op = self._traced_ops
        self._traced_ops += 1
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def cli(self, argv: list[str], mode) -> tuple[Op, int | None, str]:
        """Run ``conescore <argv>``: a subprocess end to end, else ``cli.main`` in-process."""
        op = Op(argv[0], 0.0, traced=mode)
        if mode is None:
            cmd = [sys.executable, "-m", "conescore.cli", *argv]
            start = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=_OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                op.seconds = perf_counter() - start
                op.fail(f"timed out after {_OP_TIMEOUT_S} s", wrong=False)
                return op, None, ""
            op.seconds = perf_counter() - start
            code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        else:
            from conescore import cli

            out_buf, err_buf = io.StringIO(), io.StringIO()
            code = None
            start = perf_counter()
            with self.traced(mode), contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                try:
                    code = cli.main(argv)
                except Exception:
                    err_buf.write(traceback.format_exc())
            op.seconds = perf_counter() - start
            out, err = out_buf.getvalue(), err_buf.getvalue()
        op.out_bytes = len(out.encode())
        if code != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            op.fail(f"exit {code}: {last}", wrong=False)
        return op, code, out


def strict_json(text: str):
    """Parse JSON, refusing the non-standard NaN and Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# certify: the certifier's headline job
# ---------------------------------------------------------------------------

class Certify:
    """``conescore verify --suite all --seed S`` over consecutive seeds.

    Round k runs seed ``seed + k`` twice: every operation is checked for
    exit 0 with all cases passing, and against its twin for an identical
    SHA-256 of stdout. Seeds are never skipped; a seed the certifier
    refuses (exit 2) is a failed operation.
    """

    name = "certify"
    subprocess_peak = True
    # A run makes a fixed number of rounds, one per this many seconds of
    # --seconds (a round takes about that long on the baseline machine),
    # instead of as many as fit. Which seeds a run reaches, and so which
    # refused seeds it counts as failed, then depends on --seed and
    # --seconds alone, not on how fast the host happens to be.
    round_s = 11.0

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> dict:
        return {"ops_per_round": 2}

    def _check(self, op: Op, code, out: str, seed: int) -> None:
        if code != 0 and not (code == 1 and out.strip()):
            return  # a refusal or crash, already failed; exit 1 with a report is checked
        try:
            payload = strict_json(out)
            cases = payload["cases"]
            total, passed = payload["summary"]["total"], payload["summary"]["pass"]
        except (ValueError, KeyError, TypeError) as exc:
            op.fail(f"unreadable report: {exc}", wrong=True)
            return
        failing = [c["id"] for c in cases if c.get("pass") is not True]
        if payload.get("suite") != "all" or payload.get("seed") != seed:
            op.fail("report names another suite or seed", wrong=True)
        elif total != len(cases) or passed != total - len(failing):
            op.fail("summary disagrees with the cases", wrong=True)
        elif failing:
            op.fail(f"{len(failing)} failing cases, first {failing[0]}", wrong=True)
        else:
            op.items = total

    def run_round(self, k: int) -> list[Op]:
        seed = self.ctx.seed + k
        modes = self.ctx.modes(k)
        modes = modes * 2 if len(modes) == 1 else modes
        ops, digests = [], []
        for mode in modes:
            op, code, out = self.ctx.cli(["verify", "--suite", "all", "--seed", str(seed)], mode)
            op.name = f"verify/seed{seed}"
            self._check(op, code, out, seed)
            ops.append(op)
            digests.append((code, hashlib.sha256(out.encode()).hexdigest()))
        if digests[0] != digests[1]:
            for op in ops:
                op.fail("repeated seed gave different exit code or stdout", wrong=True)
                op.items = 0
        return ops


# ---------------------------------------------------------------------------
# score: the scoring user's job
# ---------------------------------------------------------------------------

N_OBS = 200_000
_SCORE_COMBOS = (("log", False), ("quad", True), ("hyv", False), ("log", True), ("quad", False), ("hyv", True))
_CANONICAL = {"log": "logarithmic", "quad": "quadratic", "hyv": "hyvarinen"}
_CSV_HEADER = "x,score,rule,forecast_digest"
# relative agreement with the closed forms; scores agree to ~1e-15 on this
# family, so 1e-9 catches any formula or mass error without flagging rounding
_SCORE_RTOL = 1e-9


class Score:
    """``conescore score`` on 2e5 observations of a seeded 1-D mixture.

    A round rotates the rules log, quad and hyv, each once writing stdout
    only and once also writing ``--out *.csv``.
    """

    name = "score"
    subprocess_peak = True
    round_s = None  # as many rounds as fit in --seconds

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> dict:
        rng = np.random.default_rng([self.ctx.seed, 1])
        self.means = rng.uniform(-2.0, 2.0, 2)
        self.variances = rng.uniform(0.25, 4.0, 2)
        self.weights = rng.uniform(0.2, 1.0, 2)
        self.scale = float(rng.uniform(0.5, 2.0))
        comp = rng.choice(2, size=N_OBS, p=self.weights / self.weights.sum())
        self.obs = rng.normal(self.means[comp], np.sqrt(self.variances[comp]))
        self.forecast = self.ctx.workdir / "forecast.json"
        self.forecast.write_text(
            json.dumps(
                {
                    "family": "mixture",
                    "scale": self.scale,
                    "components": [{"mean": float(m), "var": float(v)} for m, v in zip(self.means, self.variances)],
                    "weights": [float(w) for w in self.weights],
                }
            )
        )
        self.obs_path = self.ctx.workdir / "observations.csv"
        self.obs_path.write_text("x\n" + "\n".join(map(repr, self.obs.tolist())) + "\n")
        self.expected = oracles.mixture_scores(self.obs, self.means, self.variances, self.weights, self.scale)
        return {"observations": N_OBS, "obs_file_bytes": self.obs_path.stat().st_size, "ops_per_round": len(_SCORE_COMBOS)}

    def _check(self, op: Op, out: str, rule: str, csv_path: Path | None) -> None:
        try:
            payload = strict_json(out)
            records, summary = payload["records"], payload["summary"]
            xs = np.array([r["x"] for r in records], dtype=float)
            scores = np.array([r["score"] for r in records], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            op.fail(f"unreadable payload: {exc}", wrong=True)
            return
        ref = self.expected[rule]
        if payload.get("rule") != rule or len(records) != N_OBS or not np.array_equal(xs, self.obs):
            op.fail("payload rule, record count or observations differ from the input", wrong=True)
            return
        err = np.abs(scores - ref) / (1.0 + np.abs(ref))
        if not np.all(err <= _SCORE_RTOL):
            i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            op.fail(f"score at x={float(xs[i])!r} is {float(scores[i])!r}, closed form {float(ref[i])!r}", wrong=True)
            return
        mean, got = float(np.mean(ref)), summary.get("mean")
        close = isinstance(got, float) and abs(got - mean) <= _SCORE_RTOL * (1.0 + abs(mean))
        if summary.get("count") != N_OBS or summary.get("clamped") != 0 or not close:
            op.fail(f"summary {summary} disagrees with the closed-form mean {mean!r}", wrong=True)
            return
        if csv_path is not None:
            if not csv_path.is_file():
                op.fail("--out CSV was not written", wrong=True)
                return
            lines = csv_path.read_text().splitlines()
            op.out_bytes += csv_path.stat().st_size
            csv_path.unlink()
            if not lines or lines[0] != _CSV_HEADER or len(lines) - 1 != N_OBS:
                op.fail(f"--out CSV has {len(lines) - 1} rows, expected {N_OBS}", wrong=True)
                return
        op.items = N_OBS

    def run_round(self, k: int) -> list[Op]:
        ops = []
        for i, (alias, to_csv) in enumerate(_SCORE_COMBOS):
            for mode in self.ctx.modes(k * len(_SCORE_COMBOS) + i):
                argv = ["score", "--rule", alias, "--forecast", str(self.forecast), "--obs", str(self.obs_path)]
                csv_path = self.ctx.workdir / "records.csv" if to_csv else None
                if csv_path is not None:
                    argv += ["--out", str(csv_path)]
                op, code, out = self.ctx.cli(argv, mode)
                op.name = f"score/{alias}" + ("+csv" if to_csv else "")
                if code == 0:
                    self._check(op, out, _CANONICAL[alias], csv_path)
                ops.append(op)
        return ops


# ---------------------------------------------------------------------------
# plane: the same rules/pairing/densities jobs as a few huge calls
# ---------------------------------------------------------------------------

# Draws keep |mu| <= 1 and var in [0.25, 1] with scales at most 1. Over the
# 1-D family's ranges (|mu| <= 2, var in [0.25, 4]) the uniform 2-D tensor
# grid needs more than the 6e6-node budget for most draws, so the workload
# would time NodeBudgetError refusals, not quadrature. In these ranges the
# core radius stays at 8 and every node set has 2048^2 = 4,194,304 nodes;
# the traced run's pairing.refusals shows a later change that widens 2-D
# support. Tolerances are those of the acceptance criteria 4 and 5.
_PLANE_TOL = {"kl": 1e-6, "fisher": 1e-6, "l2": 1e-5, "shannon": 1e-7, "fisher_info": 1e-7, "sq_integral": 1e-7, "euler": 1e-8, "ibp": 1e-6}


class Plane:
    """Library calls on seeded 2-D fields with 4,194,304-node sets.

    One operation runs the eleven calls and checks the ten cases they
    answer; timing the list rather than each call keeps the median off
    the boundary between call kinds that differ tenfold in cost.
    """

    name = "plane"
    subprocess_peak = False
    round_s = None  # as many rounds as fit in --seconds

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> dict:
        from conescore import pairing, rules
        from conescore.densities import GaussianDensity, MixtureDensity

        rng = np.random.default_rng([self.ctx.seed, 2])

        def gaussian(scale):
            return GaussianDensity(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.25, 1.0, 2), scale=scale)

        p, q = gaussian(float(rng.uniform(0.5, 1.0))), gaussian(float(rng.uniform(0.5, 1.0)))
        m = MixtureDensity((gaussian(1.0), gaussian(1.0)), tuple(rng.uniform(0.2, 0.5, 2)))
        args = (p.mean, p.var, q.mean, q.var)
        s = p.scale
        self.calls = {
            "divergence/log": lambda: rules.divergence("logarithmic", p, q),
            "divergence/hyv": lambda: rules.divergence("hyvarinen", p, q),
            "divergence/quad": lambda: rules.divergence("quadratic", p, q),
            "entropy/log": lambda: rules.entropy("logarithmic", p),
            "entropy/hyv": lambda: rules.entropy("hyvarinen", p),
            "entropy/quad": lambda: rules.entropy("quadratic", p),
            "euler/log": lambda: rules.euler_residual("logarithmic", m),
            "euler/hyv": lambda: rules.euler_residual("hyvarinen", m),
            "euler/quad": lambda: rules.euler_residual("quadratic", m),
            "fisher_direct/mix": lambda: rules.hyvarinen_divergence_direct(m, q),
            "divergence/hyv-mix": lambda: rules.divergence("hyvarinen", m, q),
        }
        # case -> (calls it reads, closed form); None compares the two calls instead
        self.cases = {
            "kl": (("divergence/log",), oracles.gaussian_kl(*args)),
            "fisher": (("divergence/hyv",), oracles.gaussian_fisher(*args)),
            "l2": (("divergence/quad",), oracles.gaussian_l2(*args)),
            "shannon": (("entropy/log",), s * oracles.gaussian_neg_shannon(p.var)),
            "fisher_info": (("entropy/hyv",), s * oracles.gaussian_fisher_information(p.var)),
            "sq_integral": (("entropy/quad",), s * oracles.gaussian_product(p.mean, p.var, p.mean, p.var)),
            "euler/log": (("euler/log",), 0.0),
            "euler/hyv": (("euler/hyv",), 0.0),
            "euler/quad": (("euler/quad",), 0.0),
            "ibp": (("fisher_direct/mix", "divergence/hyv-mix"), None),
        }
        ns = pairing.nodes_for(p + q)
        return {
            "calls_per_op": len(self.calls),
            "nodes_per_set": int(ns.weights.size),
            "node_set_bytes": int(ns.points.nbytes + ns.weights.nbytes),
        }

    def _job(self, mode) -> Op:
        """All eleven calls in sequence, then every case checked: one operation."""
        from conescore.errors import ConescoreError

        op = Op("plane/fields", 0.0, traced=mode)
        values = {}
        start = perf_counter()
        with self.ctx.traced(bool(mode)):
            for name, call in self.calls.items():
                try:
                    values[name] = float(call())
                except ConescoreError as exc:
                    op.fail(f"{name}: {type(exc).__name__}: {exc}", wrong=False)
        op.seconds = perf_counter() - start
        for case, (calls, expected) in self.cases.items():
            if any(c not in values for c in calls):
                continue
            got = [values[c] for c in calls]
            tol = _PLANE_TOL[case.split("/")[0]]
            resid = abs(got[0] - got[1]) if expected is None else abs(got[0] - expected)
            if resid <= tol:
                op.items += 1
            else:
                op.fail(f"{case}: residual {resid:.3e} > {tol:g}", wrong=True)
        if op.failed:
            op.items = 0
        return op

    def run_round(self, k: int) -> list[Op]:
        return [self._job(mode) for mode in self.ctx.modes(k)]


WORKLOADS = {w.name: w for w in (Certify, Score, Plane)}
