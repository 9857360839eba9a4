"""Command-line front end.

Four subcommands: ``score`` evaluates a forecast density's score at
observed points, ``verify`` runs the seeded certification suites,
``deriv`` compares the finite-difference directional derivative against
its closed form, and ``demo`` runs the boundary-phenomena demonstrations.

Data goes to stdout as deterministic JSON (sorted keys); diagnostics go
to stderr. Exit codes: 0 success, 1 suite or demo failure, 2 a parse
error or an ``InvalidParameterError`` (any error under ``verify``), 3 any
other ``ConescoreError``, a domain or feasibility error. The logarithmic
score of an observation where the forecast vanishes is recorded as the
string sentinel ``"-inf"`` and counted, never dropped. Reports are strict
JSON: any other non-finite number is a domain error, never a ``NaN`` or
``Infinity`` token.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, TextIO

import numpy as np

from . import boundary, convexity, pairing, rules, sampling
from .densities import (
    GridDensity,
    cone_spec_from_config,
    default_cone_spec,
    density_from_config,
    require_cone,
)
from .errors import ConescoreError, DomainError, InvalidParameterError

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

def _err(message: str) -> None:
    print(message, file=sys.stderr)


class _Records(NamedTuple):
    """Non-empty score records: the observations and their scores, as float arrays.

    ``float.__repr__`` writes each number's ``json`` and ``csv`` token; the
    logarithmic score's sentinel -inf is ``"-inf"`` in JSON, -inf in CSV.
    """

    obs: np.ndarray
    values: np.ndarray

    def text(self, start: int, csv_tail: str | None) -> tuple[str, str | None]:
        """Records ``start:start + _CHUNK`` as ``json.dumps(..., sort_keys=True, indent=2)`` lays them out in a
        top-level key's list, after its separator unless ``start`` is 0, and, given ``csv_tail``, as ``csv.writer`` rows."""
        xs = list(map(float.__repr__, self.obs[start : start + _CHUNK].tolist()))
        scores = list(map(float.__repr__, self.values[start : start + _CHUNK].tolist()))
        quoted = [f'"{s}"' if s == _SENTINEL else s for s in scores] if _SENTINEL in scores else scores
        body = "\n    },\n    {\n      ".join([f'"score": {s},\n      "x": {x}' for x, s in zip(xs, quoted)])
        rows = "".join([f"{x},{s}{csv_tail}" for x, s in zip(xs, scores)]) if csv_tail else None
        return (",\n" if start else "") + "    {\n      " + body + "\n    }", rows

    def chunks(self, csv_tail: str | None) -> list[tuple[str, str | None]]:
        """Every chunk's ``text`` in order, formatted over every CPU this process may use by :func:`convexity.forked`."""
        n = len(self.obs)
        starts = range(0, n, _CHUNK)
        jobs = [lambda start=start: self.text(start, csv_tail) for start in starts]
        return convexity.forked(jobs, [f"records {start + 1}-{min(start + _CHUNK, n)}" for start in starts])


_SENTINEL = "-inf"
# records per formatting job: 2e5 records deal evenly over a few CPUs, and a job's own cost is noise
_CHUNK = 1 << 14
# stands in for a _Records value while json lays out the rest of the report
_SPLICE = "\u0000records"
_SPLICE_JSON = json.dumps(_SPLICE)


def _emit(payload: dict, out: str | None) -> None:
    """Print the report as JSON and write it to ``out``; a ``.csv`` path gets the score records, all formatted before the first byte."""
    records = payload.get("records")
    spliced = isinstance(records, _Records)
    doc = {**payload, "records": _SPLICE} if spliced else payload
    text = convexity.report_json(doc)
    to_csv = bool(out) and out.endswith(".csv")
    if to_csv and not spliced:
        raise InvalidParameterError("CSV output is only defined for score records")
    pieces = [text + "\n"]
    if spliced:
        chunks = records.chunks(f",{payload['rule']},{payload['forecast_digest']}\r\n" if to_csv else None)
        head, _, tail = text.partition(_SPLICE_JSON)
        pieces = [head + "[\n", *(json_text for json_text, _ in chunks), "\n  ]" + tail + "\n"]
    try:
        if to_csv:
            with open(out, "w", newline="") as fh:
                fh.write("x,score,rule,forecast_digest\r\n")
                fh.writelines(rows for _, rows in chunks)
        elif out:
            with open(out, "w") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {out}: {exc.strerror or exc}") from exc
    sys.stdout.writelines(pieces)


def _read(path: str, parse: Callable[[TextIO], Any], encoding: str | None = None) -> Any:
    """``parse`` of the open text file; a file that cannot be opened, read or decoded is a configuration error."""
    try:
        with Path(path).open(encoding=encoding) as fh:
            return parse(fh)
    except FileNotFoundError as exc:
        raise InvalidParameterError(f"file not found: {path}") from exc
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"cannot decode {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        return _read(path, json.load)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"invalid JSON in {path}: {exc}") from exc


def _load_density(path: str):
    """Load a density config; an optional 'cone' key rides along."""
    cfg = _load_json(path)
    cone_cfg = None
    if isinstance(cfg, dict) and "density" in cfg:
        if set(cfg) - {"density", "cone"}:
            raise InvalidParameterError(f"forecast keys {sorted(cfg)}: a wrapped density has only 'density' and 'cone'")
        cone_cfg = cfg.get("cone")
        cfg = cfg["density"]
    density = density_from_config(cfg)
    cone = cone_spec_from_config(cone_cfg) if cone_cfg is not None else None
    return density, cone, cfg


def _load_observations(path: str) -> np.ndarray:
    """First column of a UTF-8 CSV file; a byte-order mark, a header on line 1 and blank rows are skipped."""
    cells = _read(path, lambda fh: [row[0] if row else "" for row in csv.reader(fh)], "utf-8-sig")
    if cells and not _is_number(cells[0]):
        cells[0] = ""  # header line
    try:
        values = np.fromiter(map(float, filter(str.strip, cells)), dtype=float)
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        _refuse_observation(cells)
    if not values.size:
        raise InvalidParameterError("no observations found")
    return values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _refuse_observation(cells: list[str]) -> None:
    """Raise for the first non-numeric or non-finite cell, naming its line."""
    for i, cell in enumerate(cells):
        if not cell.strip():
            continue
        if not _is_number(cell):
            raise InvalidParameterError(f"non-numeric observation on line {i + 1}: {cell!r}")
        if not math.isfinite(float(cell)):
            raise InvalidParameterError(f"non-finite observation on line {i + 1}: {cell!r}")


def _digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


def _scheme_from_args(args) -> pairing.QuadratureScheme | None:
    given = {k: getattr(args, k) for k in ("panels", "nodes", "radius", "tail_tol") if getattr(args, k) is not None}
    return dataclasses.replace(pairing.DEFAULT_SCHEME, **given) if given else None


def _maybe_require_cone(q, cone, rule, strict: bool, scheme) -> None:
    if not strict:
        return
    spec = cone if cone is not None else default_cone_spec(rule, q.dim)
    require_cone(q, spec, scheme=scheme)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    rule = rules.canonical_rule(args.rule)
    q, cone, cfg = _load_density(args.forecast)
    obs = _load_observations(args.obs)
    scheme = _scheme_from_args(args)
    _maybe_require_cone(q, cone, rule, args.strict_cone, scheme)

    # the logarithmic score of an observation where q vanishes is the "-inf" sentinel;
    # the Hyvarinen score raises there, and the quadratic score is finite everywhere
    values = np.atleast_1d(rules.score_at(rule, q, obs, scheme, strict=rule != "logarithmic"))
    outside = (values == -np.inf) & (rule == "logarithmic")
    bad = ~(np.isfinite(values) | outside)
    if np.any(bad):
        i = int(np.argmax(bad))
        x, s = float(obs[i]), float(values[i])
        raise DomainError(f"{rule} score of observation {i + 1} (x = {x!r}) is {s!r}, not a finite number")
    clamped = int(np.count_nonzero(outside))
    mean: float | str = _SENTINEL if clamped else float(np.mean(values))
    payload = {
        "rule": rule,
        "forecast_digest": _digest(cfg),
        "records": _Records(obs, values),
        "summary": {"mean": mean, "count": len(values), "clamped": clamped},
    }
    _emit(payload, args.out)
    if clamped:
        _err(f"{clamped} observation(s) outside the forecast's support scored -inf")
    return EXIT_OK


def cmd_verify(args) -> int:
    scheme = _scheme_from_args(args)
    report = convexity.run_suite(
        args.suite,
        rule=args.rule,
        samples=args.samples,
        seed=args.seed,
        scheme=scheme,
        tol=args.tol,
    )
    payload = report.to_dict()
    _emit(payload, args.out)
    summary = payload["summary"]
    _err(f"suite {args.suite}: {summary['pass']}/{summary['total']} cases passed")
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_deriv(args) -> int:
    rule = rules.canonical_rule(args.rule)
    q, cone_q, _ = _load_density(args.q)
    p, _, _ = _load_density(args.p)
    scheme = _scheme_from_args(args)
    _maybe_require_cone(q, cone_q, rule, args.strict_cone, scheme)

    est, analytic = convexity.derivative_against_closed_form(rule, q, p, scheme)
    payload = {
        "rule": rule,
        "fd_value": est.value,
        "analytic": analytic,
        "residual": abs(est.value - analytic),
        "converged": est.converged,
        "monotonicity_violations": est.monotonicity_violations,
        "trace": [[t, quotient] for t, quotient in est.trace],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _demo_binary(args) -> tuple[dict, bool]:
    k_max = args.K if args.K is not None else 12
    threshold = args.alpha if args.alpha is not None else -27.0
    xs = [10.0**-k for k in range(1, k_max + 1)]
    trace = boundary.boundary_blowup_trace(xs, y0=1.0, threshold=threshold)
    payload = {
        "demo": "binary-boundary",
        "y0": trace.y0,
        "path": list(trace.xs),
        "partials": list(trace.partials),
        "strictly_decreasing": trace.strictly_decreasing,
        "threshold": trace.threshold,
        "crossed_at_index": trace.crossed_at,
        "final": trace.final(),
    }
    ok = trace.strictly_decreasing and trace.crossed_at is not None
    _err(
        f"partial along x=10^-k decreases from {trace.partials[0]:.4f} to {trace.final():.4f}; "
        f"threshold {threshold} {'crossed' if ok else 'not crossed'}"
    )
    return payload, ok


def _demo_nowhere_dense(args) -> tuple[dict, bool]:
    size = args.K if args.K is not None else 200
    alphas = [args.alpha] if args.alpha is not None else [10.0, 1.0, 0.1, 0.01]
    seq = boundary.DyadicSequence.geometric(0.5, size=size)
    witnesses = boundary.nowhere_dense_witness(seq, alphas)
    partial = seq.b_partial_sums()
    checkpoints = sorted({size // 4, size // 2, (3 * size) // 4, size - 1} - {0})
    payload = {
        "demo": "nowhere-dense",
        "ratio": 0.5,
        "shells": size,
        "witnesses": [[alpha, k] for alpha, k in witnesses],
        "b_sum": float(partial[-1]),
        "b_partial_sums": {str(i): float(partial[i]) for i in checkpoints},
    }
    for alpha, k in witnesses:
        _err(f"alpha={alpha:g}: shell mass turns negative first at k={k}")
    return payload, True


def _demo_sup_mode(args) -> tuple[dict, bool]:
    n = args.grid_points if args.grid_points is not None else 401
    if n < 5:
        raise InvalidParameterError("--grid-points must be at least 5")
    x = np.linspace(0.0, 1.0, n)
    uniform = GridDensity(0.0, 1.0, np.ones(n))
    plateau_vals = np.where((x <= 0.25) | (x >= 0.75), 2.0, 0.1)
    plateau = GridDensity(0.0, 1.0, plateau_vals)
    triangle = GridDensity(0.0, 1.0, 2.0 - 4.0 * np.abs(x - 0.5) + 1e-12)
    reports = {
        "uniform": boundary.sup_dichotomy_demo(uniform),
        "plateau": boundary.sup_dichotomy_demo(plateau),
        "triangle": boundary.sup_dichotomy_demo(triangle),
    }
    payload = {"demo": "sup-mode", "grid_points": n, "reports": {k: r.to_dict() for k, r in reports.items()}}
    ok = all(r.passed for r in reports.values())
    for name, rep in reports.items():
        _err(f"{name}: regime={rep.regime}, mode measure={rep.mode_measure:g}, pass={rep.passed}")
    return payload, ok


_DEMOS = {"binary-boundary": _demo_binary, "nowhere-dense": _demo_nowhere_dense, "sup-mode": _demo_sup_mode}


def cmd_demo(args) -> int:
    payload, ok = _DEMOS[args.name](args)
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_scheme_flags(sub):
    sub.add_argument("--panels", type=int, default=None, help="quadrature panels per unit length, a cap")
    sub.add_argument("--nodes", type=int, default=None, help="Gauss-Legendre nodes per panel")
    sub.add_argument("--radius", type=float, default=None, help="core truncation radius")
    sub.add_argument("--tail-tol", dest="tail_tol", type=float, default=None, help="tail mass tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conescore",
        description="Scoring rules on positive prediction cones: score, verify, deriv, demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule_help = "scoring rule: logarithmic, hyvarinen, quadratic, or supremum (aliases accepted)"

    p_score = sub.add_parser("score", help="score observations against a forecast density")
    p_score.add_argument("--rule", required=True, help=rule_help)
    p_score.add_argument("--forecast", required=True, help="forecast density JSON")
    p_score.add_argument("--obs", required=True, help="single-column CSV of observations")
    p_score.add_argument("--strict-cone", dest="strict_cone", action="store_true")
    p_score.add_argument("--out", default=None, help="also write the report (.csv for records)")
    _add_scheme_flags(p_score)
    p_score.set_defaults(func=cmd_score)

    p_verify = sub.add_parser("verify", help="run a certification suite")
    p_verify.add_argument("--rule", default=None, help=rule_help)
    p_verify.add_argument("--suite", required=True, choices=convexity.SUITES)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED)
    p_verify.add_argument("--tol", type=float, default=None, help="positive and finite; replaces the primary tolerance of every suite run")
    p_verify.add_argument("--out", default=None)
    _add_scheme_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_deriv = sub.add_parser("deriv", help="finite-difference vs closed-form directional derivative")
    p_deriv.add_argument("--rule", required=True, help=rule_help)
    p_deriv.add_argument("--q", required=True, help="base density JSON")
    p_deriv.add_argument("--p", required=True, help="direction density JSON")
    p_deriv.add_argument("--strict-cone", dest="strict_cone", action="store_true")
    p_deriv.add_argument("--out", default=None)
    _add_scheme_flags(p_deriv)
    p_deriv.set_defaults(func=cmd_deriv)

    p_demo = sub.add_parser("demo", help="boundary-phenomena demonstrations")
    p_demo.add_argument("--name", required=True, choices=_DEMOS)
    p_demo.add_argument("--alpha", type=float, default=None, help="radius (nowhere-dense) or threshold (binary-boundary)")
    p_demo.add_argument("--K", type=int, default=None, help="shells or path length")
    p_demo.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConescoreError as exc:
        # verify reads nothing but its flags, so each of its refusals is a configuration error
        config = isinstance(exc, InvalidParameterError) or args.command == "verify"
        _err(f"{'configuration' if config else 'domain'} error: {exc}")
        return EXIT_CONFIG if config else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
