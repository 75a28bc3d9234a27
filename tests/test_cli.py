import ast
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statecon
from statecon.cli import (COMMANDS, CONFIG_KEYS, build_domain, load_config,
                          main)


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


@pytest.fixture
def mini_config(tmp_path):
    cfg = {
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "problem": {"family": "quadratic",
                    "potential": {"type": "linear", "b": [-3.0, 0.0]},
                    "terminal": {"type": "zero"},
                    "T": 1.0, "mu": 1.0, "M": 9.0, "kappa": 0.0},
        "x0": [0.0, 0.0],
        "solver": {"N": 32},
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def mini_mfg_config(tmp_path):
    cfg = {
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "problem": {"family": "quadratic",
                    "terminal": {"type": "zero"},
                    "T": 1.0, "mu": 1.0, "M": 2.0, "kappa": 1.0},
        "mfg": {
            "coupling": {"amp": 0.4, "scale": 0.5},
            "m0": {"points": [[0.05, 0.0], [-0.05, 0.05]],
                   "weights": [0.5, 0.5]},
            "alpha": 0.5, "tol": 1e-3, "max_iter": 50, "N": 32,
            "n_times": 5,
            "value": {"n_points": 3, "n_times": 2, "N": 32},
        },
    }
    path = tmp_path / "mfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSolve:
    def test_writes_artifacts_and_passes(self, tmp_path, mini_config, capsys):
        rc, out = run(tmp_path, "solve", "--config", str(mini_config))
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        rep = json.loads((out / "pmp_report.json").read_text())
        assert all(rep["checks"].values())
        assert "solve:" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, mini_config):
        rc1, out1 = main(["solve", "--config", str(mini_config),
                          "--out", str(tmp_path / "a")]), tmp_path / "a"
        rc2, out2 = main(["solve", "--config", str(mini_config),
                          "--out", str(tmp_path / "b")]), tmp_path / "b"
        assert rc1 == rc2 == 0
        for name in ("trajectory.csv", "pmp_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_grid_override(self, tmp_path, mini_config):
        rc, out = run(tmp_path, "solve", "--config", str(mini_config),
                      "--grid-n", "16")
        assert rc == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 18  # header + 17 knots


class TestPMPCheck:
    def test_round_trip_through_csv(self, tmp_path, mini_config):
        rc, out = run(tmp_path, "solve", "--config", str(mini_config))
        assert rc == 0
        rc2 = main(["pmp-check", "--config", str(mini_config),
                    "--trajectory", str(out / "trajectory.csv"),
                    "--out", str(tmp_path / "check")])
        assert rc2 == 0
        rep = json.loads(
            (tmp_path / "check" / "pmp_report.json").read_text())
        assert all(rep["checks"].values())

    def test_time_column_off_the_grid_is_config_error(self, tmp_path,
                                                      mini_config, capsys):
        # pmp-check reads a trajectory on the uniform grid of its first and
        # last times; one with every interior time halved is refused
        rc, out = run(tmp_path, "solve", "--config", str(mini_config))
        assert rc == 0
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        for i in range(1, len(rows) - 1):
            t, rest = rows[i].split(",", 1)
            rows[i] = f"{float(t) / 2!r},{rest}"
        path = tmp_path / "halved.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        rc = main(["pmp-check", "--config", str(mini_config),
                   "--trajectory", str(path), "--out", str(tmp_path / "c")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trajectory ")
        assert "Traceback" not in err

    def test_missing_trajectory_is_config_error(self, tmp_path, mini_config,
                                                capsys):
        rc, _ = run(tmp_path, "pmp-check", "--config", str(mini_config))
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestValue:
    def test_reports_lipschitz_constants(self, tmp_path, capsys):
        rc, out = run(tmp_path, "value", "--config",
                      str(SCENARIOS / "S2.json"), "--grid-n", "3")
        assert rc == 0
        rep = json.loads((out / "value_report.json").read_text())
        assert rep["failures"] == 0
        assert 0.0 < rep["Lx"] < 10.0
        assert (out / "value.csv").exists()

    def test_horizon_defaults_to_one(self, tmp_path):
        # the node grid's horizon is the problem's, which defaults T to 1
        cfg = json.loads((SCENARIOS / "S2.json").read_text())
        del cfg["problem"]["T"]
        path = tmp_path / "no_T.json"
        path.write_text(json.dumps(cfg))
        values = []
        for name, config in (("default", path),
                             ("shipped", SCENARIOS / "S2.json")):
            rc = main(["value", "--config", str(config), "--grid-n", "3",
                       "--out", str(tmp_path / name)])
            assert rc == 0
            values.append((tmp_path / name / "value.csv").read_bytes())
        assert values[0] == values[1]


class TestMFG:
    def test_equilibrium_artifacts(self, tmp_path, mini_mfg_config, capsys):
        rc, out = run(tmp_path, "mfg", "--config", str(mini_mfg_config))
        assert rc == 0
        for name in ("flow.csv", "residuals.csv", "mild_value.csv"):
            assert (out / name).exists()
        lines = (out / "residuals.csv").read_text().strip().splitlines()
        final = float(lines[-1].split(",")[1])
        assert final <= 1e-3

    def test_grid_override(self, tmp_path, mini_mfg_config, caplog):
        caplog.set_level(logging.INFO, logger="statecon.ladder")
        rc, _ = run(tmp_path, "mfg", "--config", str(mini_mfg_config),
                    "--grid-n", "16")
        assert rc == 0
        Ns = [int(r.getMessage().split("(N=")[1].split(")")[0])
              for r in caplog.records if r.name == "statecon.ladder"]
        # the fixed point solves at --grid-n, then the mild solution's
        # value grid at mfg.value.N = 32
        i = Ns.index(32)
        assert i > 0 and set(Ns[:i]) == {16} and set(Ns[i:]) == {32}


# shapes that build_domain accepts and no shipped scenario uses
DOMAINS = {
    "box-2d": {"shape": "smoothed-box", "center": [0.0, 0.0],
               "half_widths": [1.0, 0.6], "corner_radius": 0.2},
    "box-3d": {"shape": "smoothed-box", "center": [0.0, 0.0, 0.0],
               "half_widths": [1.0, 0.8, 0.6], "corner_radius": 0.25},
    "ball-1d": {"shape": "ball", "center": [0.0], "radius": 1.0},
    "ball-3d": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
}


def domain_config(tmp_path, name):
    """The path of a scenario, or of a config holding only DOMAINS[name]."""
    if name not in DOMAINS:
        return SCENARIOS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"domain": DOMAINS[name]}))
    return path


class TestGeometryAndAssumptions:
    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4", *DOMAINS])
    def test_geometry_passes(self, tmp_path, scenario):
        rc, out = run(tmp_path, "geometry-test", "--config",
                      str(domain_config(tmp_path, scenario)))
        assert rc == 0
        rep = json.loads((out / "geometry_report.json").read_text())
        assert rep["unit_gradient_error"] < 1e-9

    @pytest.mark.parametrize("scenario", ["S1", "S3", *DOMAINS])
    def test_geometry_evaluates_each_batch_once(self, tmp_path, monkeypatch,
                                                scenario):
        # after drawing its sample, one eval gives Db and D2b of every
        # point, and fd_grad differences the first 50 with 2n more
        path = domain_config(tmp_path, scenario)
        dom = build_domain(load_config(str(path)))
        cls = type(dom)
        evaluate, sample = cls.eval, cls.sample_tube
        calls = []

        def counted_eval(self, X, hess=True):
            calls.append("eval")
            return evaluate(self, X, hess)

        def marked_sample(self, rng, size):
            out = sample(self, rng, size)
            calls.append("sampled")
            return out

        monkeypatch.setattr(cls, "eval", counted_eval)
        monkeypatch.setattr(cls, "sample_tube", marked_sample)
        rc, _ = run(tmp_path, "geometry-test", "--config", str(path))
        assert rc == 0
        assert len(calls) - calls.index("sampled") - 1 == 1 + 2 * dom.dim
        if scenario in ("S1", "S3"):
            assert calls.count("eval") == 6

    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_assumptions_pass(self, tmp_path, scenario):
        rc, out = run(tmp_path, "assumptions", "--config",
                      str(SCENARIOS / f"{scenario}.json"))
        assert rc == 0
        rep = json.loads((out / "assumptions.json").read_text())
        assert all(c["passed"] for c in rep["checks"].values())


class TestErrors:
    def test_mu_below_one_rejected(self, tmp_path, capsys):
        cfg = {"domain": {"shape": "ball", "center": [0, 0], "radius": 1.0},
               "problem": {"family": "quadratic", "T": 1.0, "mu": 0.5,
                           "M": 1.0, "kappa": 0.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc, _ = run(tmp_path, "solve", "--config", str(path))
        assert rc == 1
        assert "mu must satisfy" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "solve", "--config",
                    str(tmp_path / "missing.json"))
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [None, 8], ids=["missing", "8-rows"])
    def test_unreadable_trajectory_is_config_error(self, tmp_path,
                                                   mini_config, capsys, rows):
        # pmp-check needs a trajectory CSV of at least 9 knots
        path = tmp_path / "trajectory.csv"
        if rows is not None:
            path.write_text("t,x1,x2\n" + "".join(
                f"{i / (rows - 1)},0,0\n" for i in range(rows)))
        rc, _ = run(tmp_path, "pmp-check", "--config", str(mini_config),
                    "--trajectory", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trajectory ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["pmp-check", "geometry-test",
                                         "assumptions"])
    def test_grid_n_without_a_grid_is_config_error(self, tmp_path,
                                                   mini_config, capsys,
                                                   command):
        rc, _ = run(tmp_path, command, "--config", str(mini_config),
                    "--grid-n", "16")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--grid-n" in err

    @pytest.mark.parametrize("command", ["solve", "pmp-check", "value",
                                         "mfg", "geometry-test",
                                         "assumptions"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        # rejected before the config, which does not exist, is read
        rc, _ = run(tmp_path, command, "--config",
                    str(tmp_path / "missing.json"), "--seed", "-1")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_misspelt_key_is_config_error(self, tmp_path, capsys, command):
        # a misspelt optional key would otherwise take its default, here
        # kappa = 0; every command reads the whole config
        cfg = json.loads((SCENARIOS / "S1.json").read_text())
        cfg["problem"]["kapa"] = 2.0
        path = tmp_path / "kapa.json"
        path.write_text(json.dumps(cfg))
        rc, _ = run(tmp_path, command, "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "problem.kapa" in err

    @pytest.mark.parametrize("scenario, key", [
        ("S1", "solvr"), ("S1", "problem.potential.c"),
        ("S4", "mfg.value.nt"), ("S4", "mfg.m0.mass")])
    def test_unknown_key_is_named_by_its_path(self, tmp_path, capsys,
                                              scenario, key):
        # known per section, whatever the command reads
        cfg = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        *sections, last = key.split(".")
        section = cfg
        for name in sections:
            section = section[name]
        section[last] = 1
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(cfg))
        rc, _ = run(tmp_path, "assumptions", "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} " in err

    def test_out_naming_a_file_is_config_error(self, tmp_path, mini_config,
                                               capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["geometry-test", "--config", str(mini_config),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make --out ")
        assert "Traceback" not in err

    def test_bad_log_level_is_config_error(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("CVX_LOG", "verbose")
        rc, _ = run(tmp_path, "geometry-test", "--config",
                    str(SCENARIOS / "S1.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "CVX_LOG" in err and "Traceback" not in err

    def test_log_level_applies_to_package_logger_only(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("CVX_LOG", "debug")
        pkg = logging.getLogger("statecon")
        root_level, pkg_level = logging.getLogger().level, pkg.level
        try:
            rc, _ = run(tmp_path, "geometry-test", "--config",
                        str(SCENARIOS / "S1.json"))
            assert rc == 0
            assert pkg.level == logging.DEBUG
            assert logging.getLogger().level == root_level
        finally:
            pkg.setLevel(pkg_level)


def _edit_m0(cfg, **m0):
    cfg["mfg"]["m0"].update(m0)


class TestMalformedScenario:
    @pytest.mark.parametrize("command, edit", [
        ("mfg", lambda cfg: cfg["mfg"].pop("m0")),
        ("mfg", lambda cfg: _edit_m0(cfg, weights=[1.5, -0.5])),
        ("mfg", lambda cfg: _edit_m0(cfg, weights=[0.5, 0.25])),
        ("mfg", lambda cfg: _edit_m0(cfg, points=[[0.05, 0.0], [1.5, 0.0]])),
        ("solve", lambda cfg: cfg.update(x0=[1.5, 0.0])),
        ("solve", lambda cfg: cfg.update(x0=[0.0, 0.0, 0.0])),
        ("solve", lambda cfg: cfg["problem"]["potential"].update(b=[1.0])),
        ("solve", lambda cfg: cfg["problem"].update(A=[[1.0]])),
        ("assumptions",
         lambda cfg: cfg["problem"].update(A=[[1.0, 5.0], [0.0, 1.0]])),
        # grids the solver cannot use, read before any solve
        ("value", lambda cfg: cfg.update(value={"n_points": 1})),
        ("value", lambda cfg: cfg.update(value={"n_points": 2})),
        ("value", lambda cfg: cfg.update(value={"n_times": 1})),
        ("value", lambda cfg: cfg.update(value={"N": 4})),
        ("mfg", lambda cfg: cfg["mfg"].update(n_times=1)),
        ("mfg", lambda cfg: cfg["mfg"]["value"].update(n_times=1)),
        ("mfg", lambda cfg: cfg["mfg"]["value"].update(N=4)),
        ("mfg", lambda cfg: cfg["mfg"]["value"].update(n_points=1)),
        ("mfg", lambda cfg: cfg["mfg"]["value"].update(n_points=2)),
        ("mfg", lambda cfg: cfg["mfg"]["value"].update(n_points="x")),
        ("value", lambda cfg: cfg.update(value={"N": 32.5})),
        ("solve --grid-n 4", lambda cfg: None),
        ("value --grid-n 0", lambda cfg: None),
        ("mfg --grid-n 4", lambda cfg: None),
        # fixed-point and penalty parameters, read before any solve
        ("mfg", lambda cfg: cfg["mfg"].update(max_iter="x")),
        ("mfg", lambda cfg: cfg["mfg"].update(max_iter=0)),
        ("mfg", lambda cfg: cfg["mfg"].update(max_iter=True)),
        ("mfg", lambda cfg: cfg["mfg"].update(tol=-1)),
        ("mfg", lambda cfg: cfg["mfg"].update(alpha=0)),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(amp=-1)),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(amp="x")),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(amp=float("nan"))),
        ("solve", lambda cfg: cfg["problem"].update(mu="x")),
        # JSON has no NaN or Infinity, which the reader rejects
        ("solve", lambda cfg: cfg["domain"].update(radius=float("nan"))),
        ("solve", lambda cfg: cfg["problem"].update(T=float("inf"))),
        ("solve", lambda cfg: cfg.update(x0=[float("nan"), 0.0])),
        ("value", lambda cfg: cfg["problem"].update(M=float("nan"))),
        ("mfg", lambda cfg: _edit_m0(cfg, weights=[float("nan"), 0.5])),
        # every section is a JSON object; an edit that returns a string
        # replaces the whole config with it
        ("solve", lambda cfg: "5"),
        ("solve", lambda cfg: cfg.update(domain=[1])),
        ("solve", lambda cfg: cfg.update(problem=[1])),
        ("solve", lambda cfg: cfg.update(solver=[1])),
        ("solve", lambda cfg: cfg["problem"].update(potential=3)),
        ("solve", lambda cfg: cfg["problem"].update(terminal="zero")),
        ("value", lambda cfg: cfg.update(value=3)),
        ("mfg", lambda cfg: cfg.update(mfg=[1])),
        ("mfg", lambda cfg: cfg["mfg"].update(value=3)),
        ("mfg", lambda cfg: cfg["mfg"].update(coupling=3)),
        ("solve", lambda cfg: cfg.update(x0="ab")),
        ("solve", lambda cfg: cfg.update(x0=[0.0, "a"])),
        # T, M, kappa and mu are finite JSON numbers, and M >= 0
        ("solve", lambda cfg: cfg["problem"].update(M=True)),
        ("solve", lambda cfg: cfg["problem"].update(T="2")),
        ("solve", lambda cfg: cfg["problem"].update(kappa=True)),
        ("solve", lambda cfg: cfg["problem"].update(M=-1.0)),
        # every other number of the config by the same rule, and every
        # vector or matrix a nested list of such numbers in its shape
        ("solve", lambda cfg: cfg["domain"].update(radius=True)),
        ("solve", lambda cfg: cfg["domain"].update(radius="1")),
        ("solve", lambda cfg: cfg["domain"].update(radius=None)),
        ("solve", lambda cfg: cfg["domain"].update(center=["0", 0.0])),
        ("solve", lambda cfg: cfg["domain"].update(center=[None, 0.0])),
        ("solve", lambda cfg: cfg.update(domain={
            "shape": "ellipse", "center": [0.0, 0.0],
            "semi_axes": [None, 1.0]})),
        ("solve", lambda cfg: cfg.update(domain={
            "shape": "smoothed-box", "center": [0.0, 0.0],
            "half_widths": [1.0, 1.0], "corner_radius": None})),
        ("solve", lambda cfg: cfg["problem"]["potential"].update(b=[True, 0])),
        ("solve", lambda cfg: cfg["problem"]["potential"].update(b=[None, 0])),
        ("solve", lambda cfg: cfg["problem"].update(A=[["1", 0], [0, 1]])),
        ("solve", lambda cfg: cfg.update(x0=[None, 0.0])),
        ("solve", lambda cfg: cfg.update(x0=[False, 0.0])),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(amp=True)),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(amp=None)),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(scale="0.5")),
        ("mfg", lambda cfg: cfg["mfg"]["coupling"].update(terminal_amp=-1)),
        ("mfg", lambda cfg: cfg["mfg"]["m0"]["points"].__setitem__(
            0, [False, 0.0])),
        ("mfg", lambda cfg: _edit_m0(cfg, weights=["0.5", "0.5"])),
        ("mfg", lambda cfg: _edit_m0(cfg, weights=[[0.5], [0.5]])),
    ], ids=["m0-missing", "negative-weight", "weights-sum", "start-outside",
            "x0-outside", "x0-dimension", "potential-dimension",
            "A-dimension", "A-not-symmetric",
            "value-n_points-1", "value-no-node-inside", "value-n_times-1",
            "value-N-4", "mfg-n_times-1", "mfg-value-n_times-1",
            "mfg-value-N-4", "mfg-value-n_points-1",
            "mfg-value-no-node-inside", "mfg-value-n_points-x",
            "value-N-not-integer", "solve-grid-n-4", "value-grid-n-0",
            "mfg-grid-n-4",
            "mfg-max_iter-x", "mfg-max_iter-0", "mfg-max_iter-true",
            "mfg-tol-negative", "mfg-alpha-0", "mfg-coupling-amp-negative",
            "mfg-coupling-amp-x", "mfg-coupling-amp-nan",
            "solve-mu-not-a-number",
            "radius-nan", "T-infinity", "x0-nan", "value-M-nan",
            "mfg-m0-weight-nan",
            "config-5", "domain-list", "problem-list", "solver-list",
            "potential-number", "terminal-string", "value-number",
            "mfg-list", "mfg-value-number", "mfg-coupling-number",
            "x0-string", "x0-entry-string",
            "M-bool", "T-string", "kappa-bool", "M-negative",
            "radius-true", "radius-string", "radius-null",
            "center-entry-string", "center-entry-null",
            "semi_axes-entry-null", "corner_radius-null",
            "potential-b-entry-true", "potential-b-entry-null",
            "A-entry-string", "x0-entry-null", "x0-entry-false",
            "mfg-coupling-amp-true", "mfg-coupling-amp-null",
            "mfg-coupling-scale-string", "mfg-coupling-terminal_amp-negative",
            "mfg-m0-point-entry-false", "mfg-m0-weights-strings",
            "mfg-m0-weights-nested"])
    def test_is_config_error(self, tmp_path, mini_config, mini_mfg_config,
                             capsys, command, edit):
        path = (mini_mfg_config if command.split()[0] == "mfg"
                else mini_config)
        cfg = json.loads(path.read_text())
        text = edit(cfg)
        path.write_text(text if isinstance(text, str) else json.dumps(cfg))
        rc, _ = run(tmp_path, *command.split(), "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_overflowing_number_is_config_error(self, tmp_path, mini_config,
                                                capsys):
        # 1e400 is valid JSON that reads as inf
        path = tmp_path / "overflow.json"
        path.write_text(mini_config.read_text().replace('"T": 1.0',
                                                        '"T": 1e400'))
        rc, _ = run(tmp_path, "solve", "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config ")
        assert "1e400" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ('"T": 1.0', '"T": 1' + "0" * 400),
        ('"N": 32', f'"N": {10 ** 30}'),
    ], ids=["T-beyond-float", "N-beyond-c-long"])
    def test_oversized_integer_is_config_error(self, tmp_path, mini_config,
                                               capsys, old, new):
        # integers beyond +-2**53 convert to no float or C long
        path = tmp_path / "oversized.json"
        path.write_text(mini_config.read_text().replace(old, new))
        rc, _ = run(tmp_path, "solve", "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, edit", [
        ("solve", lambda cfg: cfg["solver"].update(N=2 ** 53)),
        ("solve --grid-n 9007199254740992", lambda cfg: None),
        ("mfg", lambda cfg: cfg["mfg"].update(N=2 ** 53)),
        ("value", lambda cfg: cfg.update(value={"N": 2 ** 53})),
    ], ids=["solve-N", "solve-grid-n", "mfg-N", "value-N"])
    def test_oversized_grid_is_config_error(self, tmp_path, mini_config,
                                            mini_mfg_config, capsys, command,
                                            edit):
        # 2**53 + 1 knots of two floats ask for 128 PiB, an allocation that
        # fails at once
        path = (mini_mfg_config if command == "mfg" else mini_config)
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        rc, _ = run(tmp_path, *command.split(), "--config", str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the grid does not fit in memory: ")
        assert "Traceback" not in err


class TestDeterminism:
    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # two fresh processes, one and two BLAS threads: the solve must
        # write the same bytes
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [
                str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-m", "statecon.cli", "solve",
                            "--config", str(SCENARIOS / "S1.json"),
                            "--grid-n", "128", "--out", str(out)],
                           env=env, check=True, capture_output=True,
                           timeout=600)
            outputs.append([(out / name).read_bytes() for name in
                            ("trajectory.csv", "pmp_report.json")])
        assert outputs[0] == outputs[1]


class TestPackage:
    def test_all_matches_imports(self):
        # every name in __all__ resolves, and every public name that
        # __init__ imports is listed
        tree = ast.parse(Path(statecon.__file__).read_text())
        imported = {alias.asname or alias.name
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.level == 1 for alias in node.names}
        public = {name for name in imported if not name.startswith("_")}
        assert all(hasattr(statecon, name) for name in statecon.__all__)
        assert public == set(statecon.__all__)

    def test_readme_config_table_lists_the_known_keys(self):
        # README's "Config format" table and the reader's keys, which it
        # refuses any other than, name the same dotted keys
        text = (ROOT / "README.md").read_text()
        table = text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
        documented = {line.split("`")[1] for line in table.splitlines()
                      if line.startswith("| `")}

        def dotted(keys, path=""):
            for key, sub in keys.items():
                yield path + key
                yield from dotted(sub or {}, f"{path}{key}.")

        assert documented == set(dotted(CONFIG_KEYS))

    def test_readme_quick_start_runs(self):
        # the first python block of the README certifies its extremal
        text = (ROOT / "README.md").read_text()
        code = text.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["report"].all_passed


def _run_python(code: str) -> str:
    """stdout of a fresh interpreter that runs ``code`` with ``src`` first
    on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=600).stdout


class TestImports:
    def test_mfg_runs_without_scipy(self, tmp_path):
        # S4 certifies its transport plans without an LP, so neither
        # importing the CLI nor running S4 may load scipy; nor
        # numpy.random, which no mfg step samples from
        report = ("; print(sorted(m for m in sys.modules"
                  " if m.split('.')[0] == 'scipy'"
                  " or m.startswith('numpy.random')))")
        run_s4 = (f"; rc = cli.main(['mfg', '--config', "
                  f"{str(SCENARIOS / 'S4.json')!r}, '--out', "
                  f"{str(tmp_path / 's4')!r}]); assert rc == 0")
        for code in ("import sys; from statecon import cli" + report,
                     "import sys; from statecon import cli" + run_s4 + report):
            assert _run_python(code).splitlines()[-1] == "[]"
        assert (tmp_path / "s4" / "flow.csv").exists()

    def test_solve_runs_without_scipy(self, tmp_path):
        # every solve is a Newton finish, the cold ones from the constant
        # trajectory, so S1 and S3 load no scipy module; nor numpy.random,
        # since the certificate's constants are suprema over the tube grid,
        # as are those of the assumptions check
        runs = [("S1", "solve", "'--grid-n', '64', ", "trajectory.csv"),
                ("S3", "solve", "'--grid-n', '64', ", "trajectory.csv"),
                ("S3", "assumptions", "", "assumptions.json")]
        for s, command, grid, written in runs:
            out = tmp_path / f"{command}-{s}"
            code = (f"import sys; from statecon import cli; rc = cli.main(["
                    f"{command!r}, '--config', "
                    f"{str(SCENARIOS / (s + '.json'))!r}, {grid}'--out', "
                    f"{str(out)!r}]); assert rc == 0; print(sorted(m for m in"
                    " sys.modules if m.split('.')[0] == 'scipy'"
                    " or m.startswith('numpy.random')))")
            assert _run_python(code).splitlines()[-1] == "[]"
            assert (out / written).exists()


class TestCollector:
    def test_no_full_collection_inside_a_cold_solve(self, tmp_path):
        # no full (generation 2) collection walks the heap inside main, and
        # the collector is left enabled; a cold solve imports no
        # scipy.optimize, which would bring some 50k objects
        out = tmp_path / "s3"
        code = (
            "import gc, sys; from statecon import cli\n"
            "full = []\n"
            "gc.callbacks.append(lambda phase, info: full.append(1)\n"
            "    if phase == 'start' and info['generation'] == 2 else None)\n"
            f"rc = cli.main(['solve', '--config', "
            f"{str(SCENARIOS / 'S3.json')!r}, '--grid-n', '64', "
            f"'--out', {str(out)!r}])\n"
            "print(rc, len(full), 'scipy.optimize' not in sys.modules,\n"
            "      gc.isenabled())")
        last = _run_python(code).splitlines()[-1]
        assert last.split() == ["0", "0", "True", "True"]
        assert (out / "trajectory.csv").exists()

    def test_heap_is_frozen_at_exit(self, tmp_path):
        # S2 imports no scipy, so nothing is frozen when main returns; main's
        # exit hook freezes the heap before the interpreter's last full
        # collection.  Exit hooks run last-registered first, so the one
        # registered before main runs after main's
        code = (
            "import atexit, gc; from statecon import cli\n"
            "atexit.register(lambda: print('at exit', gc.get_freeze_count() "
            "> 0))\n"
            f"rc = cli.main(['value', '--config', "
            f"{str(SCENARIOS / 'S2.json')!r}, '--out', "
            f"{str(tmp_path / 's2')!r}])\n"
            "print('returned', rc, gc.get_freeze_count())")
        assert _run_python(code).splitlines()[-2:] == ["returned 0 0",
                                                       "at exit True"]
