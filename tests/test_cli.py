"""Command-line behavior: payloads, sentinels, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conescore
from conescore import boundary, cli, convexity, pairing, rules
from conescore.cli import main
from conescore.densities import density_from_config
from conescore.errors import ConescoreError, InvalidParameterError, ZeroDensityError


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


@pytest.fixture
def n01(files):
    return files("n01.json", json.dumps({"family": "gaussian", "mean": 0.0, "var": 1.0}))


@pytest.fixture
def n11(files):
    return files("n11.json", json.dumps({"family": "gaussian", "mean": 1.0, "var": 1.0}))


@pytest.fixture
def uniform(files):
    cfg = {"family": "grid", "domain": [0.0, 1.0], "values": [1.0] * 51}
    return files("uniform.json", json.dumps(cfg))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_log_gaussian(capsys, files, n01):
    obs = files("obs.csv", "0.0\n")
    code, out, _ = run(capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs])
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "logarithmic"
    assert payload["records"][0]["score"] == pytest.approx(-0.9189385332, abs=1e-8)
    assert payload["summary"] == {
        "mean": pytest.approx(-0.9189385332),
        "count": 1,
        "clamped": 0,
    }
    digest = payload["forecast_digest"]
    assert len(digest) == 12 and set(digest) <= set("0123456789abcdef")


def test_score_hyvarinen_closed_form(capsys, files, n01):
    obs = files("obs.csv", "0.0\n1.0\n2.0\n")
    code, out, _ = run(capsys, ["score", "--rule", "hyv", "--forecast", n01, "--obs", obs])
    assert code == 0
    scores = [r["score"] for r in json.loads(out)["records"]]
    np.testing.assert_allclose(scores, [2.0, 1.0, -2.0], atol=1e-10)


def test_score_quadratic_uniform(capsys, files, uniform):
    obs = files("obs.csv", "0.2\n0.8\n")
    code, out, _ = run(capsys, ["score", "--rule", "quadratic", "--forecast", uniform, "--obs", obs])
    assert code == 0
    scores = [r["score"] for r in json.loads(out)["records"]]
    np.testing.assert_allclose(scores, [1.0, 1.0], atol=1e-10)


def test_score_zero_density_sentinel(capsys, files):
    cfg = {"family": "grid", "domain": [0.0, 1.0], "values": [0.0, 0.0, 1.0, 1.0, 1.0]}
    forecast = files("halfzero.json", json.dumps(cfg))
    obs = files("obs.csv", "0.05\n0.9\n")
    code, out, err = run(capsys, ["score", "--rule", "log", "--forecast", forecast, "--obs", obs])
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["score"] == "-inf"
    assert isinstance(payload["records"][1]["score"], float)
    assert payload["summary"]["clamped"] == 1
    assert payload["summary"]["mean"] == "-inf"
    assert "-inf" in err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_score_rejects_non_finite_observations(capsys, files, n01, token):
    obs = files("obs.csv", f"x\n0.5\n{token}\n1.0\n")
    code, out, err = run(capsys, ["score", "--rule", "quad", "--forecast", n01, "--obs", obs])
    assert code == 2
    assert out == ""
    assert "line 3" in err and repr(token) in err


def test_score_log_matches_pointwise_logs(capsys, files, n01):
    xs = [0.0, -1.5, 2.25, 30.0, 3.0]
    obs = files("obs.csv", "".join(f"{x!r}\n" for x in xs))
    code, out, _ = run(capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs])
    assert code == 0
    payload = json.loads(out)
    expected = [-0.5 * x * x - 0.5 * np.log(2.0 * np.pi) for x in xs]
    assert [r["score"] for r in payload["records"]] == pytest.approx(expected, rel=1e-12)
    assert payload["summary"]["clamped"] == 0


def test_score_skips_header_row(capsys, files, n01):
    obs = files("obs.csv", "value\n0.0\n1.0\n")
    code, out, _ = run(capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs])
    assert code == 0
    assert json.loads(out)["summary"]["count"] == 2


def test_score_writes_json_and_csv(capsys, files, n01, tmp_path):
    obs = files("obs.csv", "0.0\n1.0\n")
    out_json = tmp_path / "scores.json"
    out_csv = tmp_path / "scores.csv"
    code, out, _ = run(
        capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs, "--out", str(out_json)]
    )
    assert code == 0
    assert json.loads(out_json.read_text()) == json.loads(out)
    code, _, _ = run(
        capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs, "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["x", "score"]
    assert len(lines) == 3


def _reference_outputs(rule: str, cfg: dict, xs: list) -> tuple[str, str]:
    """The report and the CSV as json.dumps and csv.writer write them from one dict per record."""
    values = np.atleast_1d(rules.score_at(rule, density_from_config(cfg), np.array(xs), strict=rule != "logarithmic"))
    outside = values == -np.inf
    clamped = int(np.count_nonzero(outside))
    scores = ["-inf" if out else s for out, s in zip(outside.tolist(), values.tolist())]
    payload = {
        "rule": rule,
        "forecast_digest": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12],
        "records": [{"x": x, "score": s} for x, s in zip(xs, scores)],
        "summary": {"mean": "-inf" if clamped else float(np.mean(values)), "count": len(scores), "clamped": clamped},
    }
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "score", "rule", "forecast_digest"])
    for rec in payload["records"]:
        writer.writerow([rec["x"], rec["score"], payload["rule"], payload["forecast_digest"]])
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), buf.getvalue()


_AWKWARD = [0.0, -0.0, 1e-05, 0.1, 1.0 / 3.0, -2.5, 2.5e-320, 37.5]
_HUGE = [123456789012345.6, 1e16, -1.7976931348623157e308]  # q underflows to 0 at each
_GAUSSIAN = {"family": "gaussian", "mean": 0.5, "var": 2.0}
_HALF_ZERO = {"family": "grid", "domain": [0.0, 1.0], "values": [0.0, 0.0, 1.0, 1.0, 1.0]}


@pytest.mark.parametrize(
    "rule, cfg, xs, sentinel",
    [
        ("logarithmic", _GAUSSIAN, _AWKWARD, False),
        ("logarithmic", _GAUSSIAN, _AWKWARD + _HUGE, True),
        ("quadratic", _GAUSSIAN, _AWKWARD + _HUGE, False),
        ("hyvarinen", _GAUSSIAN, _AWKWARD, False),
        ("logarithmic", _HALF_ZERO, [0.05, 0.5, 0.9, 0.0, 1.0], True),
        ("quadratic", _HALF_ZERO, [0.05, 0.5, 0.9], False),
    ],
)
def test_score_outputs_match_json_dumps_and_csv_writer(capsys, files, tmp_path, rule, cfg, xs, sentinel):
    forecast = files("forecast.json", json.dumps(cfg))
    obs = files("obs.csv", "x\n" + "".join(f"{x!r}\n" for x in xs))
    text, table = _reference_outputs(rule, cfg, xs)
    assert ('"-inf"' in text) == sentinel
    argv = ["score", "--rule", rule, "--forecast", forecast, "--obs", obs]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == text + "\n"
    assert run(capsys, argv + ["--out", str(tmp_path / "r.json")])[:2] == (0, out)
    assert (tmp_path / "r.json").read_bytes() == out.encode()
    assert run(capsys, argv + ["--out", str(tmp_path / "r.csv")])[:2] == (0, out)
    assert (tmp_path / "r.csv").read_bytes() == table.encode()


def _score_outputs(capsys, argv, tmp_path):
    """stdout of ``argv``, then the --out .csv and --out .json files, which must print the same stdout."""
    code, out, _ = run(capsys, argv)
    assert code == 0
    for name in ("r.csv", "r.json"):
        assert run(capsys, argv + ["--out", str(tmp_path / name)])[:2] == (0, out)
    return out, (tmp_path / "r.csv").read_bytes(), (tmp_path / "r.json").read_bytes()


def _force_workers(monkeypatch, w):
    monkeypatch.setattr(convexity, "_workers", lambda n_jobs: min(w, n_jobs))


def _recording_fork(monkeypatch):
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


_IN, _OUT = 0.6, 0.1  # _HALF_ZERO is positive at 0.6 and vanishes at 0.1: log scores it "-inf"


@pytest.mark.parametrize(
    "rule, xs",
    [
        ("logarithmic", [_OUT] + [_IN] * 12),  # the sentinel in the first of four chunks
        ("logarithmic", [_IN] * 6 + [_OUT] + [_IN] * 6),  # in a middle one
        ("logarithmic", [_IN] * 12 + [_OUT]),  # in the last one, a chunk of one record
        ("quadratic", [0.05 * k for k in range(1, 4)]),  # one chunk - 1 records
        ("quadratic", [0.05 * k for k in range(1, 5)]),  # one chunk
        ("quadratic", [0.05 * k for k in range(1, 6)]),  # one chunk + 1
        ("logarithmic", [0.05 * k for k in range(1, 10)]),
    ],
)
def test_score_chunks_give_the_same_bytes_on_any_number_of_workers(capsys, monkeypatch, files, tmp_path, rule, xs):
    monkeypatch.setattr(cli, "_CHUNK", 4)
    argv = ["score", "--rule", rule, "--forecast", files("q.json", json.dumps(_HALF_ZERO)), "--obs", files("obs.csv", "".join(f"{x!r}\n" for x in xs))]
    text, table = _reference_outputs(rule, _HALF_ZERO, xs)
    assert ('"-inf"' in text) == (rule == "logarithmic")
    for w in (1, 2, 5):
        _force_workers(monkeypatch, w)
        assert _score_outputs(capsys, argv, tmp_path) == (text + "\n", table.encode(), (text + "\n").encode())


@pytest.mark.parametrize("extra, forks", [(-1, 0), (0, 0), (1, 1)])
def test_score_records_around_one_chunk_match_json_dumps_and_csv_writer(capsys, monkeypatch, files, tmp_path, extra, forks):
    xs = np.random.default_rng(5).normal(0.0, 2.0, cli._CHUNK + extra).tolist()
    argv = ["score", "--rule", "quad", "--forecast", files("q.json", json.dumps(_GAUSSIAN)), "--obs", files("obs.csv", "".join(f"{x!r}\n" for x in xs))]
    text, table = _reference_outputs("quadratic", _GAUSSIAN, xs)
    _force_workers(monkeypatch, 2)
    pids = _recording_fork(monkeypatch)
    assert _score_outputs(capsys, argv, tmp_path) == (text + "\n", table.encode(), (text + "\n").encode())
    assert len(pids) == 3 * forks  # records that fit in one chunk start no child


def test_no_score_worker_outlives_score(capsys, monkeypatch, files, tmp_path):
    monkeypatch.setattr(cli, "_CHUNK", 4)
    _force_workers(monkeypatch, 3)
    pids = _recording_fork(monkeypatch)
    csv_out = tmp_path / "r.csv"
    argv = ["score", "--rule", "log", "--forecast", files("q.json", json.dumps(_GAUSSIAN)), "--obs", files("obs.csv", "1.0\n" * 13)]
    argv += ["--out", str(csv_out)]
    assert run(capsys, argv)[0] == 0
    me, text = os.getpid(), cli._Records.text

    def refusing(self, start, csv_tail):
        if os.getpid() != me:
            raise ZeroDensityError("in a worker")
        return text(self, start, csv_tail)

    def interrupted(self, start, csv_tail):
        if os.getpid() != me:
            time.sleep(60)
        raise KeyboardInterrupt

    csv_out.unlink()
    monkeypatch.setattr(cli._Records, "text", refusing)
    assert run(capsys, argv) == (3, "", "domain error: in a worker\n")  # a worker's refusal is the report's
    # an interrupt in the caller's own chunks kills the children, which are not waited out
    monkeypatch.setattr(cli._Records, "text", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().out == "" and not csv_out.exists()
    assert len(pids) == 6
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_score_worker_that_dies_leaves_stdout_empty_and_writes_no_csv(capsys, monkeypatch, files, tmp_path):
    monkeypatch.setattr(cli, "_CHUNK", 4)
    _force_workers(monkeypatch, 2)
    me, text = os.getpid(), cli._Records.text

    def dying(self, start, csv_tail):
        if os.getpid() != me:
            os._exit(3)
        return text(self, start, csv_tail)

    monkeypatch.setattr(cli._Records, "text", dying)
    csv_out = tmp_path / "r.csv"
    argv = ["score", "--rule", "quad", "--forecast", files("q.json", json.dumps(_GAUSSIAN)), "--obs", files("obs.csv", "1.0\n" * 13)]
    with pytest.raises(RuntimeError, match=r"'records 5-8', 'records 13-13'\].*wait status 768"):
        main(argv + ["--out", str(csv_out)])
    assert capsys.readouterr().out == ""
    assert not csv_out.exists()


@pytest.mark.parametrize("content", ["1.5\n2.0\n", "x\n1.5\n2.0\n"])
def test_score_skips_a_utf8_byte_order_mark(capsys, n01, tmp_path, content):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(content.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + content.encode())
    outs = [run(capsys, ["score", "--rule", "quad", "--forecast", n01, "--obs", str(path)]) for path in (plain, marked)]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["summary"]["count"] == 2


def _reference_load(path: str):
    """Row-by-row reading of the first column: the values, or the refusal's message."""
    values = []
    with open(path) as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            try:
                value = float(row[0])
            except ValueError:
                if i == 0:
                    continue  # header line
                return f"non-numeric observation on line {i + 1}: {row[0]!r}"
            if not math.isfinite(value):
                return f"non-finite observation on line {i + 1}: {row[0]!r}"
            values.append(value)
    return values or "no observations found"


@pytest.mark.parametrize(
    "content",
    [
        "x\n1.0\n2.0\n",
        "1.0\nx\n",  # a header is skipped on line 1 only
        "\nx\n1.0\n",
        "1.0\n\n   \n,5\n2.0\n",  # blank rows and blank first cells are skipped
        "x\n1.0\nabc\n",
        "x\n1.0\nnan\nabc\n",  # the first refusal in line order wins
        "x\nabc\ninf\n",
        "nan\n1.0\n",  # a number on line 1 is data, not a header
        '"2.5",z\n"1e3"\n',  # quoted cells
        'x\n"1,5"\n',
        "1.0,abc,3\n2.0,,\n",  # extra columns are ignored
        " 1.5 \n\t-2\n1_000\n",
        "x\n",
        "x\n-inf\n",
    ],
)
def test_score_loader_matches_the_row_by_row_reference(capsys, files, n01, content):
    obs = files("obs.csv", content)
    expected = _reference_load(obs)
    code, out, err = run(capsys, ["score", "--rule", "quad", "--forecast", n01, "--obs", obs])
    if isinstance(expected, str):
        assert (code, out, err) == (2, "", f"configuration error: {expected}\n")
    else:
        assert code == 0
        assert [r["x"] for r in json.loads(out)["records"]] == expected


def test_score_non_finite_score_is_a_domain_error(capsys, files):
    # so narrow a Gaussian falls between the nodes: its mass there is 0, refused as every rule refuses it
    spike = {"family": "gaussian", "mean": 0.0, "var": 1e-305}
    obs = files("obs.csv", "0.0\n")
    code, out, err = run(capsys, ["score", "--rule", "hyv", "--forecast", files("spike.json", json.dumps(spike)), "--obs", obs])
    assert (code, out) == (3, "")
    assert "q has nonpositive mass 0.0" in err
    # beside N(0, 1) it has mass, and its Laplacian overflows at its mean: the score is +inf
    mixture = {"family": "mixture", "components": [{"mean": 0.0, "var": 1.0}, spike], "weights": [1.0, 1.0]}
    code, out, err = run(capsys, ["score", "--rule", "hyv", "--forecast", files("mix.json", json.dumps(mixture)), "--obs", obs])
    assert (code, out) == (3, "")
    assert "hyvarinen score of observation 1 (x = 0.0) is inf" in err


def test_score_of_an_overflowing_gaussian_prints_only_its_domain_error(files):
    # its z-scores overflow in the order-2 sample: NumPy warnings must not reach stderr before the error
    spike = files("spike.json", json.dumps({"family": "gaussian", "mean": 0.0, "var": 1e-305}))
    obs = files("obs.csv", "0.0\n1.0\n")
    src = str(Path(conescore.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "conescore.cli", "score", "--rule", "hyv", "--forecast", spike, "--obs", obs]
    proc = subprocess.run(argv, capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "domain error: hyvarinen score undefined where q vanishes\n"


def test_score_out_of_domain_exits_3(capsys, files, uniform):
    obs = files("obs.csv", "2.0\n")
    code, _, err = run(capsys, ["score", "--rule", "quadratic", "--forecast", uniform, "--obs", obs])
    assert code == 3
    assert "domain" in err


def test_score_config_errors_exit_2(capsys, files, n01, uniform):
    obs = files("obs.csv", "0.0\n")
    assert run(capsys, ["score", "--rule", "log", "--forecast", "/nope.json", "--obs", obs])[0] == 2
    bad = files("bad.json", "{not json")
    assert run(capsys, ["score", "--rule", "log", "--forecast", bad, "--obs", obs])[0] == 2
    unknown = files("unknown.json", json.dumps({"family": "beta"}))
    assert run(capsys, ["score", "--rule", "log", "--forecast", unknown, "--obs", obs])[0] == 2
    empty = files("empty.csv", "\n")
    assert run(capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", empty])[0] == 2
    assert run(capsys, ["score", "--rule", "elo", "--forecast", n01, "--obs", obs])[0] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("out", [None, "x.csv"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_score_refuses_a_2d_forecast_whatever_the_number_of_observations(capsys, files, tmp_path, count, out):
    # two observations used to score as the single point (x1, x2), one record at x = x1
    forecast = files("f.json", json.dumps({"family": "gaussian", "mean": [0, 0], "var": [1, 1]}))
    obs = files("obs.csv", "".join(f"0.{k + 1}\n" for k in range(count)))
    argv = ["score", "--rule", "hyv", "--forecast", forecast, "--obs", obs]
    code, stdout, err = run(capsys, argv + (["--out", str(tmp_path / out)] if out else []))
    assert (code, stdout, err) == (2, "", "configuration error: score reads 1-D observations; the forecast is 2-D\n")
    assert not (tmp_path / "x.csv").exists()


_N01 ={"family": "gaussian", "mean": 0.0, "var": 1.0}


@pytest.mark.parametrize(
    "forecast",
    [
        {**_N01, "mean": "abc"},
        {**_N01, "scale": "big"},
        {**_N01, "extra": 3},
        {"family": "mixture", "components": [_N01, {"mean": 1.0, "var": 2.0}], "weights": "ab"},
        {"family": "mixture", "components": [{"mean": 0.0, "var": "x"}], "weights": [1.0]},
        {"family": "power_law", "beta": "x"},
        {"family": "power_law", "beta": 3.0, "dim": "two"},
        {"family": "power_law", "beta": 3.0, "dim": 1.5},
        {"family": "grid", "domain": [0], "values": [1.0, 2.0, 1.0]},
        {"family": "grid", "domain": "ab", "values": [1.0, 2.0, 1.0]},
        {"family": "grid", "domain": [0, 1], "values": "ab"},
        {"density": _N01, "cone": [1]},
        {"density": _N01, "cone": []},
        {"density": _N01, "cone": {"kind": "quadratic_norm", "k1": [1, 2], "k2": 10.0}},
        {"density": _N01, "cones": {"kind": "quadratic_norm", "k1": 0.1, "k2": 10.0}},
        # JSON's true would pass for 1 wherever a number is read
        {**_N01, "mean": True},
        {"family": "mixture", "components": [_N01, _N01], "weights": [True, 1.0]},
        {"family": "grid", "domain": [0, 1], "values": [1.0, True, 1.0]},
        {"family": "power_law", "beta": 3.0, "dim": True},
        {"density": _N01, "cone": {"kind": "shannon_envelope", "a": 2.0, "c1": True, "c2": 1e3}},
        # a JSON integer past the float range
        {**_N01, "mean": 10**400},
    ],
    ids=[
        "gaussian-mean", "gaussian-scale", "gaussian-extra", "mixture-weights", "mixture-component-var",
        "power-law-beta", "power-law-dim-word", "power-law-dim-fraction", "grid-domain-short", "grid-domain-string",
        "grid-values-string", "cone-list", "cone-empty-list", "cone-k1-list", "wrapper-cones",
        "gaussian-mean-bool", "mixture-weights-bool", "grid-values-bool", "power-law-dim-bool", "cone-c1-bool", "gaussian-mean-huge-int",
    ],
)
def test_malformed_forecast_configs_are_configuration_errors(capsys, files, forecast):
    argv = ["score", "--rule", "quad", "--strict-cone", "--forecast", files("f.json", json.dumps(forecast)), "--obs", files("obs.csv", "0.0\n")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ") and "Traceback" not in err


def test_a_divergent_forecast_is_a_domain_error(capsys, files):
    q = files("q.json", json.dumps({"family": "power_law", "beta": 1.0001}))
    code, out, err = run(capsys, ["score", "--rule", "log", "--forecast", q, "--obs", files("obs.csv", "0.0\n")])
    assert (code, out, err) == (3, "", "domain error: tail-mass bound still 9.724e-01 after 400 dyadic shells\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rule, forecast, message",
    [
        # q.q and (q.1)^2 overflow
        ("quad", {"family": "mixture", "components": [_N01, _N01], "weights": [1e300, 1.0]}, "the quadratic score of q overflows: q.q = inf, (q.1)^2 = inf"),
        # its mass overflows on the node set
        ("log", {"family": "grid", "domain": [-1e300, 1e300], "values": [1.0, 1e300, 1.0]}, "q has non-finite mass inf"),
        # beta^2 overflows in the Laplacian
        ("hyv", {"family": "power_law", "beta": 1e300}, "the power law's Laplacian overflows at beta = 1e+300"),
        # its scale over its normaliser overflows: inf times the exps that underflow is nan
        *((rule, {"family": "gaussian", "mean": 0, "var": 1e-305, "scale": 1e300}, "q has non-finite mass nan") for rule in ("log", "quad", "hyv")),
    ],
    ids=["quadratic-score", "grid-mass", "power-law-laplacian", "gaussian-factor-log", "gaussian-factor-quad", "gaussian-factor-hyv"],
)
def test_forecasts_past_the_float_range_are_domain_errors(capsys, files, rule, forecast, message):
    q = files("q.json", json.dumps(forecast))
    code, out, err = run(capsys, ["score", "--rule", rule, "--forecast", q, "--obs", files("obs.csv", "0.0\n")])
    assert (code, out, err) == (3, "", f"domain error: {message}\n")


def test_an_observation_file_csv_cannot_parse_is_a_configuration_error(capsys, files, n01):
    obs = files("obs.csv", "x\n0.5\n" + "1" * 131_073 + "\n")  # past csv's default field size limit
    code, out, err = run(capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs])
    assert (code, out) == (2, "")
    assert err == f"configuration error: invalid CSV in {obs}: field larger than field limit (131072)\n"


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


@pytest.mark.parametrize("error", _subclasses(ConescoreError), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_hierarchy(capsys, monkeypatch, files, n01, error):
    def refuse(*args, **kwargs):
        raise error("refused")

    for module, name in ((rules, "score_at"), (convexity, "derivative_against_closed_form"), (convexity, "run_suite"), (boundary, "boundary_blowup_trace")):
        monkeypatch.setattr(module, name, refuse)
    obs = files("obs.csv", "0.0\n")
    expected = (2, "", "configuration error: refused\n") if issubclass(error, InvalidParameterError) else (3, "", "domain error: refused\n")
    for argv in (
        ["score", "--rule", "log", "--forecast", n01, "--obs", obs],
        ["deriv", "--rule", "log", "--q", n01, "--p", n01],
        ["demo", "--name", "binary-boundary"],
    ):
        assert run(capsys, argv) == expected
    assert run(capsys, ["verify", "--suite", "euler"]) == (2, "", "configuration error: refused\n")


def test_score_node_sets_over_budget_exit_3(capsys, monkeypatch, files, n01):
    # refused from the count: a 20,000-node rule's eigenproblem holds 4e8 entries, a radius of 1e308 inf nodes
    def unbuilt(n):
        raise AssertionError("Gauss-Legendre rule built before its size was counted")

    monkeypatch.setattr(pairing, "_leggauss", unbuilt)
    obs = files("obs.csv", "0.0\n")
    for flags in (["--nodes", "20000"], ["--radius", "1e308"]):
        code, out, err = run(capsys, ["score", "--rule", "quad", "--forecast", n01, "--obs", obs, *flags])
        assert (code, out) == (3, "")
        assert "budget 6,000,000" in err


@pytest.mark.parametrize("flag", ["--forecast", "--obs", "--p"])
@pytest.mark.parametrize("kind", ["utf16", "directory"])
def test_unreadable_input_files_are_configuration_errors(capsys, files, n01, tmp_path, flag, kind):
    if kind == "utf16":
        bad = tmp_path / "bom.txt"
        bad.write_bytes(b"\xff\xfe0\x00\n\x00")
    else:
        bad = tmp_path / "a-directory"
        bad.mkdir()
    obs = files("obs.csv", "0.0\n")
    if flag == "--p":
        argv = ["deriv", "--rule", "log", "--q", n01, "--p", str(bad)]
    else:
        argv = ["score", "--rule", "log", "--forecast", n01, "--obs", obs]
        argv[argv.index(flag) + 1] = str(bad)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: cannot {'decode' if kind == 'utf16' else 'read'} {bad}")


@pytest.mark.parametrize(
    "command, suffix",
    [("verify", ".json"), ("score", ".json"), ("score", ".csv"), ("deriv", ".json"), ("demo", ".json")],
)
def test_unwritable_out_paths_are_configuration_errors(capsys, files, n01, n11, tmp_path, command, suffix):
    out = tmp_path / "missing" / f"x{suffix}"
    argv = {
        "verify": ["verify", "--suite", "euler", "--samples", "2"],
        "score": ["score", "--rule", "log", "--forecast", n01, "--obs", files("obs.csv", "0.0\n")],
        "deriv": ["deriv", "--rule", "log", "--q", n01, "--p", n11],
        "demo": ["demo", "--name", "nowhere-dense"],
    }[command]
    code, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == f"configuration error: cannot write {out}: No such file or directory"
    assert not out.parent.exists()


def test_scheme_flags_replace_only_the_given_defaults():
    def scheme(*flags):
        return cli._scheme_from_args(cli.build_parser().parse_args(["verify", "--suite", "euler", *flags]))

    assert scheme() is None
    assert scheme("--radius", "5") == pairing.QuadratureScheme(radius=5.0)
    assert scheme("--panels", "3", "--tail-tol", "1e-6") == pairing.QuadratureScheme(panels=3, tail_tol=1e-6)
    assert scheme("--panels", "2", "--nodes", "4", "--radius", "7", "--tail-tol", "1e-12") == pairing.QuadratureScheme(
        panels=2, nodes=4, radius=7.0, tail_tol=1e-12
    )


def test_score_strict_cone_gate(capsys, files, n01):
    obs = files("obs.csv", "0.0\n")
    cauchy = files("cauchy.json", json.dumps({"family": "power_law", "beta": 2.0}))
    code, _, _ = run(
        capsys, ["score", "--rule", "log", "--forecast", cauchy, "--obs", obs, "--strict-cone"]
    )
    assert code == 0
    # Gaussian tails fall below every polynomial envelope: not a member
    code, _, err = run(
        capsys, ["score", "--rule", "log", "--forecast", n01, "--obs", obs, "--strict-cone"]
    )
    assert code == 3
    assert "domain" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_runs_are_byte_identical(capsys):
    argv = ["verify", "--suite", "euler", "--samples", "3", "--seed", "7"]
    code_a, out_a, err_a = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "cases passed" in err_a
    payload = json.loads(out_a)
    assert payload["summary"]["pass"] == payload["summary"]["total"]


def test_verify_seed_with_far_tail_hyvarinen_cases_passes(capsys):
    # seed 7 pairs a Hyvarinen score with q ~ 1e-164 where p has support
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", "7"])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["pass"] == summary["total"] > 0


def test_verify_report_is_the_same_on_one_cpu_and_two(capsys, monkeypatch):
    outs = []
    for w in (1, 2):
        monkeypatch.setattr(convexity, "_workers", lambda n_jobs, w=w: min(w, n_jobs))
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", "42"])
        outs.append((code, out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_verify_non_finite_report_value_is_a_typed_error(capsys, monkeypatch):
    # run_suite refuses a non-finite --tol, so a case builder puts the NaN in the report
    def nan_tol(rule_ids, samples, seed, scheme, tol):
        return [convexity.CaseResult("euler/nan", 0.0, float("nan"), False)]

    monkeypatch.setitem(convexity._SUITE_CASES, "euler", (nan_tol, 1e-8))
    code, out, err = run(capsys, ["verify", "--suite", "euler", "--samples", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: report value cases[0].tol is not a finite number")


@pytest.mark.parametrize("tol, message", [("nan", "finite, got nan"), ("inf", "finite, got inf"), ("-inf", "positive, got -inf")])
def test_verify_refuses_a_non_finite_tol_before_any_case_runs(capsys, monkeypatch, tol, message):
    def never(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(convexity, "_SUITE_CASES", {n: (never, t) for n, (_, t) in convexity._SUITE_CASES.items()})
    code, out, err = run(capsys, ["verify", "--suite", "all", "--seed", "3", "--samples", "10", f"--tol={tol}"])
    assert (code, out, err) == (2, "", f"configuration error: tol must be {message}\n")


@pytest.mark.parametrize("suite", ["euler", "all"])
def test_verify_refuses_a_nonpositive_tol(capsys, suite):
    code, out, err = run(capsys, ["verify", "--suite", suite, "--tol", "0"])
    assert (code, out, err) == (2, "", "configuration error: tol must be positive, got 0.0\n")


def test_verify_config_errors_exit_2(capsys):
    assert run(capsys, ["verify", "--suite", "spectra"])[0] == 2
    assert run(capsys, ["verify", "--suite", "euler", "--tol", "-1"])[0] == 2
    assert run(capsys, ["verify", "--suite", "gateaux", "--rule", "log"])[0] == 2
    assert run(capsys, ["verify", "--suite", "euler", "--samples", "0"])[0] == 2


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "euler", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: seed must be a non-negative integer")


# ---------------------------------------------------------------------------
# deriv
# ---------------------------------------------------------------------------

def test_deriv_matches_closed_form(capsys, n01, n11):
    code, out, _ = run(capsys, ["deriv", "--rule", "log", "--q", n01, "--p", n11])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-4
    assert payload["converged"] is True
    assert payload["monotonicity_violations"] == 0
    assert payload["fd_value"] == pytest.approx(-1.9189385332, abs=1e-4)
    assert len(payload["trace"]) == 16


def test_deriv_unsupported_family_exits_3(capsys, uniform, n01):
    code, _, err = run(capsys, ["deriv", "--rule", "hyv", "--q", uniform, "--p", uniform])
    assert code == 3
    assert "domain" in err


def test_deriv_and_score_refuse_the_supremum_rule_off_a_grid_alike(capsys, files, n01):
    obs = files("obs.csv", "0.0\n")
    for argv in (["deriv", "--rule", "sup", "--q", n01, "--p", n01], ["score", "--rule", "sup", "--forecast", n01, "--obs", obs]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "domain error: the supremum rule needs" in err


def test_deriv_zero_mass_is_a_typed_error(capsys, files, n01):
    # a Gaussian this narrow misses every quadrature node: its mass on them is 0
    narrow = files("narrow.json", json.dumps({"family": "gaussian", "mean": 0.0, "var": 1e-30}))
    for q, p in ((narrow, n01), (n01, narrow)):
        code, out, err = run(capsys, ["deriv", "--rule", "log", "--q", q, "--p", p])
        assert (code, out) == (3, "")
        assert "nonpositive mass 0.0" in err


_N2 = {"family": "gaussian", "mean": [0.0, 0.0], "var": [1.0, 1.0]}
_HYV = {"kind": "hyvarinen_growth", "c1": 200.0, "k": 2.0, "c2": 1e5}
_QUAD = {"kind": "quadratic_norm", "k1": 0.1, "k2": 10.0, "eps": 0.05}
_GRID = {"family": "grid", "domain": [0.0, 1.0], "values": [1.0, 2.0, 1.0]}


@pytest.mark.parametrize(
    "density, cone, message",
    [
        (_N2, {**_HYV, "dim": 2, "probes": [0.5, 0.5]}, "cone probes must be finite points of shape (n, 2), got (2,)"),
        ({"family": "gaussian", "mean": 0.0, "var": 1.0}, {**_HYV, "probes": [[0.0, 1.0], [2.0, 3.0]]}, "got (2, 2)"),
        ({"family": "power_law", "beta": 2.0}, {"kind": "shannon_envelope", "a": math.nan, "c1": 0.1, "c2": 0.6}, "decay exponent a must be finite"),
        ({"family": "gaussian", "mean": 0.0, "var": 1.0}, {**_HYV, "dim": 2}, "cone of dimension 2 does not apply to a 1-D density"),
        # cone specs hold only what cone_check reads
        ({"family": "gaussian", "mean": 0.0, "var": 1.0}, {**_QUAD, "delta": 0.05}, "unexpected keyword argument 'delta'"),
        ({"family": "gaussian", "mean": 0.0, "var": 1.0}, {**_QUAD, "probes": [0.0, 1.0]}, "unexpected keyword argument 'probes'"),
        (_GRID, {"kind": "grid_positive", "probes": [0.5]}, "unexpected keyword argument 'probes'"),
    ],
    ids=["flat-2d-probes", "square-1d-probes", "nan-exponent", "dimension-mismatch", "quadratic-delta", "quadratic-probes", "grid-probes"],
)
def test_deriv_malformed_cone_spec_exits_2(capsys, files, density, cone, message):
    q = files("q.json", json.dumps({"density": density, "cone": cone}))
    code, out, err = run(capsys, ["deriv", "--rule", "hyv", "--q", q, "--p", q, "--strict-cone"])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ") and message in err


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, field", [("binary-boundary", "threshold"), ("nowhere-dense", "witnesses[0][0]")])
def test_demo_non_finite_report_value_is_a_typed_error(capsys, name, field):
    code, out, err = run(capsys, ["demo", "--name", name, "--alpha", "inf"])
    assert (code, out) == (3, "")
    assert f"domain error: report value {field} is not a finite number" in err


def test_demo_binary_boundary(capsys):
    code, out, err = run(capsys, ["demo", "--name", "binary-boundary"])
    assert code == 0
    payload = json.loads(out)
    assert payload["strictly_decreasing"] is True
    assert payload["final"] < -27.0
    assert payload["crossed_at_index"] == 11
    assert "crossed" in err


def test_demo_binary_boundary_uncrossed_threshold_fails(capsys):
    code, _, _ = run(capsys, ["demo", "--name", "binary-boundary", "--K", "3"])
    assert code == 1  # partials never reach -27 on a short path


def test_demo_nowhere_dense(capsys):
    code, out, _ = run(capsys, ["demo", "--name", "nowhere-dense"])
    assert code == 0
    payload = json.loads(out)
    assert [10.0, 0] in payload["witnesses"]
    assert [1.0, 2] in payload["witnesses"]
    assert [0.1, 8] in payload["witnesses"]
    assert payload["b_sum"] == pytest.approx((2.0**-0.5) / (1.0 - 2.0**-0.5), rel=1e-9)


def test_demo_sup_mode(capsys):
    code, out, _ = run(capsys, ["demo", "--name", "sup-mode"])
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports["plateau"]["regime"] == "integrable-subgradient"
    assert reports["triangle"]["regime"] == "dirac"
    assert all(r["pass"] for r in reports.values())


def test_a_witness_search_too_short_is_a_configuration_error(capsys):
    code, out, err = run(capsys, ["demo", "--name", "nowhere-dense", "--K", "5", "--alpha", "0.01"])
    assert (code, out) == (2, "")
    assert err == "configuration error: no shell with a_k < 0.01*b_k within 5 shells; extend the truncation\n"


def test_demo_validation(capsys):
    assert run(capsys, ["demo", "--name", "escher"])[0] == 2
    assert run(capsys, ["demo", "--name", "sup-mode", "--grid-points", "3"])[0] == 2


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(conescore.__file__).resolve().parents[1])
    code = "import sys, conescore.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
