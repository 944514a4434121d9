"""Command-line behavior: exit codes, file outputs, reproducibility."""

import datetime
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superfact import (
    Family,
    IdentitySpec,
    PhasePoint,
    TOL_POLY,
    cli,
    dynamics,
    hamiltonian,
    higher_integral_observables,
    integrate,
    second_integral,
)

from superfact import systems, verification
from superfact.systems import WALLS, Wall

from _oracles import spec_for

TWO_PI = 2 * math.pi


def test_csv_numbers_are_the_shortest_17_digit_forms(tmp_path):
    """Each number is written as ``f"{float(x):.17g}"`` would write it, the
    special values included: ``nan``, ``inf``, ``-inf`` and ``-0``."""
    columns = [
        np.array([0.1, -0.0, math.nan, 1e-310]),
        np.array([math.inf, -math.inf, 2.0**60, -1.5e300]),
    ]
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), ["a", "b"], columns)
    want = "a,b\n" + "".join(
        f"{float(a):.17g},{float(b):.17g}\n" for a, b in zip(*columns))
    assert path.read_text(encoding="utf-8") == want
    assert "\n-0,-inf\n" in want and "\nnan," in want


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _column(header, rows, name):
    k = header.index(name)
    return np.array([float(r[k]) for r in rows])


# ---------- catalog ----------


def test_catalog_lists_all_families(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    for family in ("euclidean", "sphere", "ttw"):
        assert f"{family}:" in out


def test_catalog_single_family_text(capsys):
    assert cli.main(["catalog", "--family", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "gamma bound       gamma >= 1/2" in out
    assert "euclidean:" not in out


def test_catalog_json(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["family"] for e in data["families"]] == ["euclidean", "sphere", "ttw"]
    ttw = data["families"][2]
    assert ttw["gamma_bound"] == "gamma >= 1/4"


def test_catalog_domains_come_from_the_walls(capsys, monkeypatch):
    assert cli.main(["catalog", "--json"]) == 0
    domains = [e["domain"] for e in json.loads(capsys.readouterr().out)["families"]]
    assert domains == [
        "all of R^4",
        "|xi| < pi/2 and |y| < pi/2",
        "r > 0 and 0 < theta < pi/2",
    ]
    moved = (*WALLS[Family.TTW][:2], Wall(1, 1.2, "theta = 6pi/16", upper=True))
    monkeypatch.setitem(WALLS, Family.TTW, moved)
    assert cli.main(["catalog", "--family", "ttw", "--json"]) == 0
    [ttw] = json.loads(capsys.readouterr().out)["families"]
    assert ttw["domain"] == "r > 0 and 0 < theta < 6pi/16"


def test_catalog_gamma_bounds_come_from_the_floors(capsys, monkeypatch):
    assert cli.main(["catalog", "--json"]) == 0
    families = json.loads(capsys.readouterr().out)["families"]
    assert [e["gamma_bound"] for e in families] == [
        "gamma > 0", "gamma >= 1/2", "gamma >= 1/4",
    ]
    assert [e["parameters"]["gamma"] for e in families[1:]] == ["m/n >= 1/2", "m/n >= 1/4"]
    monkeypatch.setitem(systems._GAMMA_FLOOR, Family.SPHERE, (2, 3))
    assert cli.main(["catalog", "--family", "sphere", "--json"]) == 0
    [sphere] = json.loads(capsys.readouterr().out)["families"]
    assert sphere["gamma_bound"] == "gamma >= 2/3"
    assert sphere["parameters"]["gamma"] == "m/n >= 2/3"


def test_catalog_unknown_family(capsys):
    assert cli.main(["catalog", "--family", "torus"]) == 2
    assert "error" in capsys.readouterr().err


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


# ---------- verify ----------


def test_verify_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "verify",
            "--system", "euclidean",
            "--gamma", "2",
            "--samples", "150",
            "--seed", "3",
            "--out", "check",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    payload = json.loads((tmp_path / "check.report.json").read_text())
    assert payload["summary"]["pass"] is True
    assert payload["samples"] == 150
    assert {"with_X", "with_Y"} == set(payload["independence"])
    for block in payload["independence"].values():
        assert block["fraction_full"] >= 0.99
    assert "started" not in payload and "finished" not in payload
    manifest = json.loads((tmp_path / "check.manifest.json").read_text())
    assert manifest["tool"] == "superfact"
    assert manifest["command"] == "verify"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["check.report.json"]
    assert manifest["started"] <= manifest["finished"]
    timing = manifest["timing"]
    stages = ("sample_s", "suite_s", "independence_s", "write_s")
    assert all(timing[k] >= 0.0 for k in stages)
    labels = [r["label"] for r in payload["identities"]]
    assert sorted(timing["identities_s"]) == sorted(labels)
    assert sum(timing["identities_s"].values()) <= timing["suite_s"]
    slowest = timing["slowest_identity"]
    assert timing["identities_s"][slowest] == max(timing["identities_s"].values())


def test_verify_report_matches_schema(tmp_path, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    from superfact import REPORT_SCHEMA

    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "verify",
            "--system", "ttw",
            "--gamma", "3/2",
            "--alpha", "1.0",
            "--beta", "2.0",
            "--samples", "120",
            "--seed", "1",
            "--out", "t",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "t.report.json").read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_verify_invalid_ratio_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify", "--system", "sphere", "--gamma", "1/3"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_missing_system_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--gamma", "1"]) == 2
    assert "no system selected" in capsys.readouterr().err


def test_verify_too_many_samples_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify", "--system", "euclidean", "--gamma", "1",
                     "--samples", "1000000000"])
    assert code == 2
    assert "count 1000000000 is above the limit of 1000000 points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sample_dt", ["1e-10", "5e-324"])
def test_integrate_too_fine_a_grid_is_config_error(tmp_path, monkeypatch, capsys, sample_dt):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["integrate", "--system", "euclidean", "--gamma", "1", "--q0", "1,0",
                     "--p0", "0,1", "--t-end", "1", "--sample-dt", sample_dt])
    assert code == 2
    assert "above the limit of 1000000 sample intervals" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_identity_failure_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def doomed_suite(spec):
        return (
            IdentitySpec(
                "forced.failure",
                lambda b: np.ones(len(b), dtype=np.complex128),
                lambda b: np.zeros(len(b), dtype=np.complex128),
                TOL_POLY,
            ),
        )

    monkeypatch.setattr("superfact.verification.build_suite", doomed_suite)
    code = cli.main(
        ["verify", "--system", "euclidean", "--gamma", "1", "--samples", "20",
         "--seed", "0", "--out", "bad"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "forced.failure" in out
    payload = json.loads((tmp_path / "bad.report.json").read_text())
    assert payload["summary"]["pass"] is False


def test_verify_fails_on_an_independence_shortfall(tmp_path, monkeypatch, capsys):
    """A rank survey below INDEPENDENCE_FRACTION fails the library report and
    the command alike, while every identity passes."""
    monkeypatch.chdir(tmp_path)
    survey = verification.independence_report

    def short(*args, **kwargs):
        block = survey(*args, **kwargs)
        return {**block, "fraction_full": verification.INDEPENDENCE_FRACTION / 2}

    monkeypatch.setattr(verification, "independence_report", short)
    report = verification.verify_system(spec_for("euclidean", "2"), count=50, seed=3)
    assert all(r.passed for r in report.identities)
    assert set(report.independence) == {"with_X", "with_Y"}
    assert report.passed is False
    assert report.to_json_dict()["summary"]["pass"] is False
    code = cli.main(["verify", "--system", "euclidean", "--gamma", "2", "--samples", "50",
                     "--seed", "3", "--out", "short"])
    assert code == 1
    assert "  FAIL independence with_X: fraction 0.495\n" in capsys.readouterr().out
    payload = json.loads((tmp_path / "short.report.json").read_text())
    assert all(r["pass"] for r in payload["identities"])
    assert payload["summary"]["pass"] is False


def test_verify_names_the_points_that_are_not_finite(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["verify", "--system", "sphere", "--gamma", "141/100", "--seed", "7",
         "--out", "high"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "  FAIL conj.X: 7 of 1000 points not finite\n" in out
    assert "max residual 0.000e+00 > tol" not in out
    payload = json.loads((tmp_path / "high.report.json").read_text())
    conj = next(r for r in payload["identities"] if r["label"] == "conj.X")
    assert len(conj["errors"]) == 7
    assert all(e.endswith("not finite") for e in conj["errors"])


def test_verify_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["verify", "--system", "euclidean", "--gamma", "1", "--samples", "20"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
    assert cli.main(base + ["--seed", "7", "--out", "a"]) == 0
    assert json.loads((tmp_path / "a.manifest.json").read_text())["seed"] == 7
    assert cli.main(base + ["--out", "b"]) == 0
    assert json.loads((tmp_path / "b.manifest.json").read_text())["seed"] == 5
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert cli.main(base + ["--out", "c"]) == 0
    assert json.loads((tmp_path / "c.manifest.json").read_text())["seed"] == 0
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    assert cli.main(base + ["--out", "d"]) == 2


def test_verify_config_file_with_flag_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({"family": "euclidean", "omega": 2.0, "gamma": "1"}))
    code = cli.main(
        ["verify", "--config", str(cfg), "--gamma", "2", "--samples", "20",
         "--seed", "0", "--out", "cfg"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cfg.manifest.json").read_text())
    assert manifest["config"]["gamma"] == {"m": 2, "n": 1}
    assert manifest["config"]["omega"] == 2.0
    assert cli.main(["verify", "--config", "missing.json", "--gamma", "1"]) == 2


def test_verify_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = [
        "verify", "--system", "sphere", "--gamma", "3/2",
        "--samples", "100", "--seed", "11",
    ]
    assert cli.main(base + ["--out", "r1"]) == 0
    assert cli.main(base + ["--out", "r2"]) == 0
    assert (tmp_path / "r1.report.json").read_bytes() == (
        tmp_path / "r2.report.json"
    ).read_bytes()


def test_verify_names_an_overflow_in_the_independence_survey(tmp_path, monkeypatch, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from superfact import REPORT_SCHEMA

    # X = (B+)^100 (A-)^141 overflows at some default-box points.
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["verify", "--system", "ttw", "--alpha", "1.1", "--beta", "0.7",
         "--gamma", "141/100", "--samples", "30", "--seed", "0", "--out", "big"]
    )
    assert code == 1
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "big.report.json").read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["summary"]["pass"] is False
    for name, block in payload["independence"].items():
        assert 0 < block["non_finite"] < block["points"] == 30
        assert block["fraction_full"] <= 1 - block["non_finite"] / 30
        assert sum(block["ranks"].values()) == 30 - block["non_finite"]
        assert (
            f"FAIL independence {name}: fraction {block['fraction_full']:.3f} "
            f"(gradients not finite at {block['non_finite']} of 30 points: overflow)"
        ) in out
    assert (tmp_path / "big.manifest.json").exists()


# ---------- integrate ----------


def test_integrate_circle_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "euclidean",
            "--gamma", "1",
            "--q0", "1,0",
            "--p0", "0,1",
            "--t-end", f"{2 * TWO_PI}",
            "--closure-eps", "1e-4",
            "--out", "orbit",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "closure: closed orbit" in out
    header, rows = _read_csv(tmp_path / "orbit.csv")
    assert header == ["t", "q1", "q2", "p1", "p2", "H", "I2", "X", "Y"]
    assert all(len(r) == len(header) for r in rows)
    t = _column(header, rows, "t")
    assert np.all(np.diff(t) > 0)
    h = _column(header, rows, "H")
    assert np.max(np.abs(h - h[0])) <= 1e-8 * (1 + abs(h[0]))
    report = json.loads((tmp_path / "orbit.report.json").read_text())
    assert report["status"] == "completed"
    assert report["closure"]["closed"] is True
    assert report["closure"]["period"] == pytest.approx(TWO_PI, abs=1e-6)
    assert report["drift"]["H"]["relative_drift"] <= 1e-8
    assert "started" not in report
    manifest = json.loads((tmp_path / "orbit.manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["outputs"] == ["orbit.csv", "orbit.report.json"]


def _closure_run(argv, capsys):
    code = cli.main(["integrate", "--system", "euclidean", *argv, "--out", "c"])
    assert code == 0
    closure = json.loads(Path("c.report.json").read_text())["closure"]
    return closure, capsys.readouterr().out


def test_integrate_closure_at_a_stationary_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    closure, out = _closure_run(["--gamma", "1", "--q0", "0,0", "--p0", "0,0",
                                 "--t-end", "1", "--closure-eps", "1e-4"], capsys)
    assert "closure: stationary point\n" in out
    assert closure["closed"] is True and closure["period"] is None


def test_integrate_closure_undetermined_on_a_short_span(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    closure, out = _closure_run(["--gamma", "1", "--q0", "1,0", "--p0", "0,1",
                                 "--t-end", "1", "--closure-eps", "1e-4"], capsys)
    assert closure["closed"] is None
    assert "extend t_end" in closure["reason"]
    assert f"closure: undetermined ({closure['reason']})\n" in out


def test_integrate_closure_open_at_this_span(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    closure, out = _closure_run(["--gamma", "141/100", "--q0", "1,0", "--p0", "0,1",
                                 "--t-end", "25", "--closure-eps", "1e-4"], capsys)
    assert closure["closed"] is False
    assert closure["return_distance"] > 1e-4
    assert f"closure: open at this span (best return {closure['return_distance']:.3e})\n" in out


def test_integrate_external_frame(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "euclidean",
            "--gamma", "2",
            "--q0", "0.5,0",
            "--p0", "1,0",
            "--external",
            "--t-end", "1.0",
            "--out", "ext",
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "ext.report.json").read_text())
    assert report["initial_internal"] == [1.0, 0.0, 0.5, 0.0]


def test_integrate_external_angle_column(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "ttw",
            "--gamma", "3/2",
            "--alpha", "1.1",
            "--beta", "0.7",
            "--q0", "1.2,0.7",
            "--p0", "0.3,0.4",
            "--t-end", "1.0",
            "--external-angle",
            "--out", "angle",
        ]
    )
    assert code == 0
    header, rows = _read_csv(tmp_path / "angle.csv")
    assert header[-1] == "phi"
    phi = _column(header, rows, "phi")
    q2 = _column(header, rows, "q2")
    np.testing.assert_allclose(phi, q2 / 1.5, rtol=1e-15)


def test_integrate_external_angle_rejected_off_ttw(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "euclidean",
            "--gamma", "1",
            "--q0", "1,0",
            "--p0", "0,1",
            "--t-end", "1.0",
            "--external-angle",
            "--out", "nope",
        ]
    )
    assert code == 2
    assert "ttw" in capsys.readouterr().err


def test_integrate_breach_keeps_partial_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "sphere",
            "--gamma", "1",
            "--q0", "0,0",
            "--p0", "45,0",
            "--t-end", "1.0",
            "--out", "wall",
        ]
    )
    assert code == 3
    assert "integration stopped" in capsys.readouterr().out
    header, rows = _read_csv(tmp_path / "wall.csv")
    assert len(rows) >= 2
    report = json.loads((tmp_path / "wall.report.json").read_text())
    assert report["status"] == "breach"
    assert 0.0 < report["breach"]["time"] < 0.1
    assert len(report["breach"]["state"]) == 4
    manifest = json.loads((tmp_path / "wall.manifest.json").read_text())
    assert manifest["status"] == "breach"
    assert manifest["breach"]["time"] == report["breach"]["time"]


def test_integrate_immediate_breach_header_only_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "sphere",
            "--gamma", "1",
            "--q0", "1.56,0",
            "--p0", "0,0",
            "--t-end", "1.0",
            "--out", "edge",
        ]
    )
    assert code == 3
    header, rows = _read_csv(tmp_path / "edge.csv")
    assert header[0] == "t" and rows == []
    report = json.loads((tmp_path / "edge.report.json").read_text())
    assert report["samples"] == 0
    assert report["breach"]["time"] == 0.0


def _nan_after_the_initial_step(monkeypatch):
    """Patch the vector field so that DOP853's step size collapses."""
    compiled = dynamics._rhs_function

    def nan_after_the_initial_step(spec):
        field = compiled(spec)
        calls = []

        def patched(*y):
            # The first two evaluations pick the initial step; every later
            # one is NaN, so each step is rejected until the size runs out.
            calls.append(y)
            return field(*y) if len(calls) <= 2 else (math.nan,) * 4

        return patched

    monkeypatch.setattr(dynamics, "_rhs_function", nan_after_the_initial_step)


def test_integrate_adaptive_step_failure_writes_a_manifest(tmp_path, monkeypatch, capsys):
    _nan_after_the_initial_step(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate", "--system", "sphere", "--gamma", "1",
            "--q0", "0.3,0.2", "--p0", "1.5,-0.8", "--t-end", "10",
            "--out", "stuck",
        ]
    )
    assert code == 4
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "stuck.csv").exists()
    assert not (tmp_path / "stuck.report.json").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["stuck.manifest.json"]
    manifest = json.loads((tmp_path / "stuck.manifest.json").read_text())
    assert manifest["status"] == "step_failure"
    assert manifest["outputs"] == []
    message = manifest["message"]
    assert "at t=0: the step size fell to " in message
    step = float(message.split("fell to ")[1].split(",")[0])
    assert 0 < step < 1e-322


def test_integrate_default_method_is_dop853(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "integrate",
            "--system", "euclidean",
            "--gamma", "2",
            "--q0", "0,0",
            "--p0", "0.5,1",
            "--t-end", f"{TWO_PI}",
            "--out", "dflt",
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "dflt.report.json").read_text())
    assert report["method"] == "dop853"
    assert report["status"] == "completed"
    assert report["drift"]["H"]["relative_drift"] <= 1e-8


@pytest.mark.parametrize(
    "option",
    [["--method", "leapfrog"], ["--method", "midpoint"], ["--method", "dop853"],
     ["--fixed-dt", "0.1"]],
    ids=["method=leapfrog", "method=midpoint", "method=dop853", "fixed-dt=0.1"],
)
def test_integrate_unknown_method_exits_2(tmp_path, monkeypatch, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(
            [
                "integrate",
                "--system", "euclidean",
                "--gamma", "1",
                "--q0", "1,0",
                "--p0", "0,1",
                *option,
            ]
        )
    assert exc_info.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_integrate_bad_closure_eps_exits_before_any_work(
    tmp_path, monkeypatch, capsys, eps
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate", None)  # the flow must not start
    code = cli.main(
        ["integrate", "--system", "euclidean", "--gamma", "1", "--q0=0.1,0.2",
         "--p0=0.3,0.4", "--t-end", "1", "--closure-eps", eps, "--out", "p"]
    )
    assert code == 2
    assert "--closure-eps must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_integrate_bad_pair_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["integrate", "--system", "euclidean", "--gamma", "1",
         "--q0", "1", "--p0", "0,1", "--out", "x"]
    )
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


def test_integrate_csv_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = [
        "integrate", "--system", "ttw", "--gamma", "2",
        "--alpha", "1.1", "--beta", "0.7",
        "--q0", "1.3,0.7", "--p0", "0.25,0.4", "--t-end", "3.0",
    ]
    assert cli.main(base + ["--out", "runa"]) == 0
    assert cli.main(base + ["--out", "runb"]) == 0
    assert (tmp_path / "runa.csv").read_bytes() == (tmp_path / "runb.csv").read_bytes()
    ra = json.loads((tmp_path / "runa.report.json").read_text())
    rb = json.loads((tmp_path / "runb.report.json").read_text())
    assert ra == rb


_INTEGRATE_SCRIPT = """
import sys
from superfact import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_integrate_outputs_byte_identical_across_processes(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [
        "integrate", "--system", "sphere", "--gamma", "3/2",
        "--q0", "0.4,-0.3", "--p0", "0.2,0.5", "--t-end", "6.0",
        "--closure-eps", "1e-4",
    ]
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c", _INTEGRATE_SCRIPT, *argv, "--out", f"run{hash_seed}"],
            cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120,
        )
    for suffix in (".csv", ".report.json"):
        assert (tmp_path / f"run0{suffix}").read_bytes() == (
            tmp_path / f"run4242{suffix}"
        ).read_bytes()


def test_integrate_rhs_evaluations_in_manifest_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = [
        "integrate", "--system", "sphere", "--gamma", "3/2",
        "--q0", "0.4,-0.3", "--p0", "0.2,0.5", "--t-end", "2.0",
    ]
    assert cli.main(base + ["--out", "runa"]) == 0
    assert cli.main(base + ["--out", "runb"]) == 0
    for suffix in (".report.json", ".csv"):
        assert (tmp_path / f"runa{suffix}").read_bytes() == (
            tmp_path / f"runb{suffix}"
        ).read_bytes()
    report = (tmp_path / "runa.report.json").read_text()
    assert "integrator" not in report and "rhs_evaluations" not in report
    spec = spec_for("sphere", "3/2")
    traj = integrate(spec, PhasePoint(0.4, -0.3, 0.2, 0.5), 2.0)
    manifest = json.loads((tmp_path / "runa.manifest.json").read_text())
    assert manifest["integrator"] == {
        "rhs_evaluations": traj.rhs_evaluations,
        "steps_accepted": traj.steps_accepted,
        "steps_rejected": traj.steps_rejected,
    }
    assert traj.rhs_evaluations > 0


# ---------- trace ----------


def test_trace_rediscovers_levels(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    from _oracles import spec_for

    spec = spec_for("euclidean", "1")
    seedpt = PhasePoint(0.5, -0.3, 0.4, 0.7)
    h0 = hamiltonian(spec, seedpt)
    i20 = second_integral(spec, seedpt)
    x_real = higher_integral_observables(spec)[2]
    x0 = x_real(seedpt).real
    code = cli.main(
        [
            "trace",
            "--system", "euclidean",
            "--gamma", "1",
            "--energy", f"{h0!r}",
            "--second", f"{i20!r}",
            "--symmetry", f"X={x0!r}",
            "--t-end", "1.0",
            "--plane", "xy",
            "--out", "lv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "levels matched at internal point" in out
    report = json.loads((tmp_path / "lv.report.json").read_text())
    assert report["levels"] == {"H": h0, "I2": i20, "X": x0}
    assert report["solution"]["level_residual"] <= 1e-9
    found = PhasePoint(*report["solution"]["internal"])
    assert hamiltonian(spec, found) == pytest.approx(h0, rel=1e-8, abs=1e-8)
    assert second_integral(spec, found) == pytest.approx(i20, rel=1e-8, abs=1e-8)
    assert x_real(found).real == pytest.approx(
        x0, rel=1e-8, abs=1e-8
    )
    header, rows = _read_csv(tmp_path / "lv.csv")
    assert header[-2:] == ["x", "y"]
    assert len(rows) > 0


def _plane_levels(family):
    """Reachable trace levels per family: those of an in-domain point on the
    plane, the sphere levels of the tests below, and the README's TTW."""
    if family == "euclidean":
        spec, point = spec_for("euclidean", "2"), PhasePoint(0.5, -0.3, 0.4, 0.7)
        levels = (hamiltonian(spec, point), second_integral(spec, point),
                  higher_integral_observables(spec)[2](point).real)
        return ["--system", "euclidean", "--gamma", "2"], levels
    if family == "sphere":
        return (["--system", "sphere", "--gamma", "3/2"],
                (0.4739364112484795, 0.3869453568468833, -0.0054487168913519395))
    return (["--system", "ttw", "--gamma", "2", "--alpha", "1.1", "--beta", "0.7"],
            (12.0, 4.0, 1.5))


@pytest.mark.parametrize("family", ["euclidean", "sphere", "ttw"])
def test_trace_rtheta_columns_are_external_polar(tmp_path, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    spec_args, (h, i2, x) = _plane_levels(family)
    columns = {}
    for plane in ("xy", "rtheta"):
        code = cli.main(["trace", *spec_args, f"--energy={h!r}", f"--second={i2!r}",
                         f"--symmetry=X={x!r}", "--t-end", "2", "--plane", plane,
                         "--out", plane])
        assert code == 0
        header, rows = _read_csv(tmp_path / f"{plane}.csv")
        columns.update({name: _column(header, rows, name) for name in header[-2:]})
    r, theta = columns["r"], columns["theta"]
    if family == "sphere":
        np.testing.assert_allclose(np.cos(r), np.cos(columns["x"]) * np.cos(columns["y"]),
                                   rtol=0, atol=1e-14)
    else:
        np.testing.assert_allclose(r * np.cos(theta), columns["x"], rtol=0, atol=1e-14)
        np.testing.assert_allclose(r * np.sin(theta), columns["y"], rtol=0, atol=1e-14)


def test_trace_infeasible_levels(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "trace",
            "--system", "euclidean",
            "--gamma", "2",
            # H and I2 of a point, X ten times its |X+|: above both floors
            # and above the ceiling |X+|, so no start is tried.
            "--energy", "0.7350000000000001",
            "--second", "0.11125000000000002",
            "--symmetry", "X=0.9672706446491588",
            "--out", "no",
        ]
    )
    assert code == 5
    assert "is above the ceiling |X+| = 0.0967271" in capsys.readouterr().err
    assert not (tmp_path / "no.csv").exists()
    assert not (tmp_path / "no.report.json").exists()
    manifest = json.loads((tmp_path / "no.manifest.json").read_text())
    assert manifest["status"] == "no_solution"
    assert manifest["outputs"] == []
    search = manifest["level_search"]
    assert search["splits"] == 0
    assert search["seconds"] > 0


def test_trace_symmetry_flag_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    base = ["trace", "--system", "euclidean", "--gamma", "1",
            "--energy", "1.0", "--second", "0.2"]
    assert cli.main(base + ["--symmetry", "Z=1"]) == 2
    assert cli.main(base + ["--symmetry", "X:1"]) == 2
    assert "X=<value> or Y=<value>" in capsys.readouterr().err


@pytest.mark.parametrize(
    "energy, second, symmetry, message",
    [
        ("nan", "1", "X=1", "the H level must be finite, got nan"),
        ("1", "nan", "X=1", "the I2 level must be finite, got nan"),
        ("1", "1", "Y=-inf", "the Y level must be finite, got -inf"),
        ("inf", "1", "X=1", "the H level must be finite, got inf"),
    ],
)
def test_trace_non_finite_level_is_config_error(
    tmp_path, monkeypatch, capsys, energy, second, symmetry, message
):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["trace", "--system", "euclidean", "--gamma", "1", "--energy", energy,
         "--second", second, "--symmetry", symmetry, "--out", "bad"]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec_args, second, floor_text",
    [
        (["--system", "sphere", "--gamma", "2"], "0.1", "sphere sector floor 0.125"),
        (
            ["--system", "ttw", "--gamma", "2", "--alpha", "1.1", "--beta", "0.7"],
            "3",
            "ttw angular floor 3.24",
        ),
    ],
)
def test_trace_sector_level_below_floor(
    tmp_path, monkeypatch, capsys, spec_args, second, floor_text
):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["trace", *spec_args, "--energy", "12", "--second", second,
         "--symmetry", "X=1.5", "--out", "low"]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "no phase point matches" in err
    assert f"sector level {second} is below the {floor_text}" in err
    assert not (tmp_path / "low.csv").exists()
    assert not (tmp_path / "low.report.json").exists()
    manifest = json.loads((tmp_path / "low.manifest.json").read_text())
    assert manifest["status"] == "no_solution"
    assert manifest["command"] == "trace"
    assert manifest["level_search"]["splits"] == 0


def test_readme_trace_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = (
        "trace --system ttw --gamma 2 --alpha 1.1 --beta 0.7 "
        "--energy 12 --second 4 --symmetry X=1.5 --plane xy --out level"
    )
    assert cli.main(argv.split()) == 0


def test_trace_manifest_span_covers_the_level_search(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "trace", "--system", "sphere", "--gamma", "3/2",
            "--energy", "0.4739364112484795", "--second", "0.3869453568468833",
            "--symmetry", "X=-0.0054487168913519395", "--t-end", "0.01",
            "--out", "t",
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    started = datetime.datetime.fromisoformat(manifest["started"])
    finished = datetime.datetime.fromisoformat(manifest["finished"])
    assert (finished - started).total_seconds() >= manifest["level_search"]["seconds"]


def test_trace_step_failure_writes_a_manifest(tmp_path, monkeypatch, capsys):
    _nan_after_the_initial_step(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "trace", "--system", "sphere", "--gamma", "3/2",
            "--energy", "0.4739364112484795", "--second", "0.3869453568468833",
            "--symmetry", "X=-0.0054487168913519395", "--out", "stuck",
        ]
    )
    assert code == 4
    out, err = capsys.readouterr()
    assert "levels matched" in out
    assert "error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["stuck.manifest.json"]
    manifest = json.loads((tmp_path / "stuck.manifest.json").read_text())
    assert manifest["status"] == "step_failure"
    assert manifest["outputs"] == []
    assert "the step size fell to " in manifest["message"]
    assert manifest["level_search"]["splits"] == 1
    assert len(manifest["args"]["solution_point"]) == 4


def test_trace_outputs_byte_identical_search_in_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = [
        "trace", "--system", "sphere", "--gamma", "3/2",
        "--energy", "0.4739364112484795", "--second", "0.3869453568468833",
        "--symmetry", "X=-0.0054487168913519395", "--t-end", "2", "--plane", "xy",
    ]
    assert cli.main(base + ["--out", "ta"]) == 0
    assert cli.main(base + ["--out", "tb"]) == 0
    for suffix in (".report.json", ".csv"):
        assert (tmp_path / f"ta{suffix}").read_bytes() == (
            tmp_path / f"tb{suffix}"
        ).read_bytes()
    assert "level_search" not in json.loads((tmp_path / "ta.report.json").read_text())
    search = json.loads((tmp_path / "ta.manifest.json").read_text())["level_search"]
    assert set(search) == {"splits", "seconds"}
    assert search["splits"] == 1
    assert search["seconds"] > 0


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_trace_bad_closure_eps_exits_before_the_level_search(
    tmp_path, monkeypatch, capsys, eps
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve_levels", None)  # the search must not start
    code = cli.main(
        ["trace", "--system", "euclidean", "--gamma", "1", "--energy", "1",
         "--second", "0.3", "--symmetry", "X=0.1", "--closure-eps", eps,
         "--out", "t"]
    )
    assert code == 2
    assert "--closure-eps must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [["--sample-dt", "1e-10"], ["--t-end", "1e10"]])
def test_trace_too_fine_a_grid_exits_before_the_level_search(
    tmp_path, monkeypatch, capsys, option
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve_levels", None)  # the search must not start
    code = cli.main(
        ["trace", "--system", "ttw", "--gamma", "2", "--alpha", "1.1", "--beta", "0.7",
         "--energy", "12", "--second", "4", "--symmetry", "X=1.5", "--plane", "xy",
         *option, "--out", "t"]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert "levels matched" not in out
    assert "above the limit of 1000000 sample intervals" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec_args, levels, reason",
    [
        (["--system", "sphere", "--gamma", "2"], ["12", "0.1", "X=1.5"],
         "sector level 0.1 is below the sphere sector floor 0.125"),
        (["--system", "ttw", "--gamma", "2", "--alpha", "1.1", "--beta", "0.7"],
         ["6.39", "3.41", "X=1.5"],
         "energy 6.39 is below the floor 7.38647 of sector level 3.41"),
        # Levels whose every split point lies in the margin band of a wall.
        (["--system", "ttw", "--gamma", "3/2", "--alpha", "0.001", "--beta", "0.7"],
         ["2.10587725", "0.491501", "X=6.522747723267012e-10"],
         "each of the 32 split points tried fails a domain guard: "
         "32 within 0.05 of the wall theta = pi/2"),
        (["--system", "euclidean", "--gamma", "2"],
         ["0.7350000000000001", "0.11125000000000002", "X=0.9672706446491588"],
         "|X| 0.967271 is above the ceiling |X+| = 0.0967271 "
         "of energy 0.735 and sector level 0.11125"),
    ],
)
def test_trace_no_solution_manifest_names_the_reason(
    tmp_path, monkeypatch, capsys, spec_args, levels, reason
):
    monkeypatch.chdir(tmp_path)
    energy, second, symmetry = levels
    code = cli.main(
        ["trace", *spec_args, "--energy", energy, "--second", second,
         "--symmetry", symmetry, "--out", "no"]
    )
    assert code == 5
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "no.manifest.json").read_text())
    assert manifest["status"] == "no_solution"
    assert manifest["message"].startswith("no phase point matches the requested levels")
    assert manifest["message"].endswith(reason)
    assert f"error: {manifest['message']}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["no.manifest.json"]


def test_trace_finds_levels_the_former_search_gave_up_on(tmp_path, monkeypatch):
    """Levels of a real sphere 7/5 point on which the Gauss-Newton search
    gave up at every start."""
    monkeypatch.chdir(tmp_path)
    levels = {"H": 138.21881396497304, "I2": 4.422081754914755, "X": -886758304.8930755}
    code = cli.main(
        ["trace", "--system", "sphere", "--gamma", "7/5", f"--energy={levels['H']!r}",
         f"--second={levels['I2']!r}", f"--symmetry=X={levels['X']!r}", "--t-end", "0.01",
         "--out", "found"]
    )
    assert code == 0
    solution = json.loads((tmp_path / "found.report.json").read_text())["solution"]
    assert solution["level_residual"] <= 1e-9
    spec = spec_for("sphere", "7/5")
    point = PhasePoint(*solution["internal"])
    found = (hamiltonian(spec, point), second_integral(spec, point),
             higher_integral_observables(spec)[2](point).real)
    for value, target in zip(found, levels.values()):
        assert abs(value - target) <= 1e-9 * (1 + abs(target))


def test_trace_manifest_records_every_integration_option(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        [
            "trace", "--system", "sphere", "--gamma", "3/2",
            "--energy", "0.4739364112484795", "--second", "0.3869453568468833",
            "--symmetry", "X=-0.0054487168913519395", "--t-end", "0.01",
            "--max-step", "0.005", "--out", "t",
        ]
    )
    assert code == 0
    run_args = json.loads((tmp_path / "t.manifest.json").read_text())["args"]
    assert run_args["max_step"] == 0.005
    integrate_args = {"t_end", "rel_tol", "abs_tol", "max_step", "sample_dt", "closure_eps"}
    assert integrate_args <= set(run_args)
