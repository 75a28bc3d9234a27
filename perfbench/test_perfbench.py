"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import run
from tracing import Tracer, inclusive_time, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # cli [0, 10] holds geometry [1, 4] and penalty [5, 9]; penalty holds
    # lbfgs [5.5, 8.5], which calls back into penalty [6, 8], which holds
    # geometry [6.5, 7]
    spans = [
        (5, 4, "geometry", "b_many", 6.5, 7.0),
        (4, 3, "penalty", "objective", 6.0, 8.0),
        (3, 2, "lbfgs", "minimize", 5.5, 8.5),
        (2, 0, "penalty", "epsilon_schedule", 5.0, 9.0),
        (1, 0, "geometry", "b_many", 1.0, 4.0),
        (0, -1, "cli", "main", 0.0, 10.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"cli": 3.0, "geometry": 3.0 + 0.5,
                                 "penalty": 1.0 + 1.5, "lbfgs": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)
    assert inclusive_time(spans, "geometry", {"b_many"}) == pytest.approx(3.5)


def test_only_outermost_call_into_a_layer_opens_a_span():
    tr = Tracer("t")
    # geometry methods: the first argument is the domain
    inner = tr.wrap(lambda dom, X: X, "geometry", "b_many")
    outer = tr.wrap(lambda dom, X: inner(dom, X), "geometry", "grad_many")
    penalty = tr.wrap(lambda X: outer(None, X) + outer(None, X[0]),
                      "penalty", "objective")
    penalty(np.zeros((7, 2)))
    assert tr.calls == {"geometry:b_many": [2, 0],
                        "geometry:grad_many": [2, 2],
                        "penalty:objective": [1, 1]}
    assert tr.notes["geometry.points"] == 7 + 1
    names = sorted(s[3] for s in tr.spans)
    assert names == ["grad_many", "grad_many", "objective"]
    root = next(s for s in tr.spans if s[3] == "objective")
    assert all(s[1] == root[0] for s in tr.spans if s is not root)


def test_always_span_names_open_spans_inside_their_layer():
    tr = Tracer("t")
    write = tr.wrap(lambda: None, "cli", "write_csv")
    main = tr.wrap(lambda: write(), "cli", "main")
    main()
    assert sorted(s[3] for s in tr.spans) == ["main", "write_csv"]
    assert tr.calls["cli:write_csv"] == [1, 0]


def test_span_closes_when_the_call_raises():
    tr = Tracer("t")

    def fail():
        raise KeyError("x")

    wrapped = tr.wrap(fail, "penalty", "minimize_penalized")
    with pytest.raises(KeyError):
        wrapped()
    assert tr.stack == [] and len(tr.spans) == 1


def test_restart_inside_the_schedule_is_counted():
    tr = Tracer("t")

    class Runaway(Exception):
        pass

    def minimize_penalized(eps):
        if eps == 1.0:
            raise Runaway
        return "gamma"

    inner = tr.wrap(minimize_penalized, "penalty", "minimize_penalized")

    def epsilon_schedule():
        # as in penalty.epsilon_schedule: halve epsilon after a runaway
        eps = 1.0
        try:
            gamma = inner(eps)
        except Runaway:
            eps *= 0.5
            gamma = inner(eps)
        return gamma, SimpleNamespace(epsilon=eps)

    tr.wrap(epsilon_schedule, "penalty", "epsilon_schedule")()
    assert tr.notes["penalty.restarts"] == 1
    assert tr.notes["penalty.final_eps"] == 0.5
    assert tr.calls["penalty:minimize_penalized"] == [2, 0]
    assert [s[3] for s in tr.spans] == ["epsilon_schedule"]


def test_landing_minimizer_accelerates_lands_and_rests():
    cfg = json.loads((ROOT / "scenarios" / "S1.json").read_text())
    tstar = np.sqrt(2.0 / 3.0)
    t = np.array([0.0, 0.5, tstar, 0.9, 1.0])
    X = oracles.landing_minimizer(cfg, t)
    assert X[0] == pytest.approx([0.0, 0.0])
    assert X[1, 0] == pytest.approx(np.sqrt(6.0) * 0.5 - 1.5 * 0.25)
    assert X[2:] == pytest.approx(np.tile([1.0, 0.0], (3, 1)))


def test_interior_value_matches_criterion_3():
    cfg = json.loads((ROOT / "scenarios" / "S2.json").read_text())
    t = np.array([0.0, 0.5, 0.0])
    X = np.array([[0.1, 0.2], [-0.3, 0.0], [0.9, 0.0]])
    u, inside = oracles.interior_value(cfg, t, X)
    a = np.array([0.5, 0.0])
    assert u == pytest.approx(-X @ a - 0.125 * (1.0 - t))
    assert inside.tolist() == [True, True, False]


def test_layer_metrics_cover_the_per_layer_list():
    trace = {"spans": [], "calls": {}, "notes": {}}
    names = set(run.layer_metrics(trace)) | {"cli.cpu_s", "trace.overhead"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def _bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "solve-disk", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--grid-n", "32")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[1:-1]
               if ln.startswith("  ")}
    for name, unit in want.items():
        assert printed[name] == unit
    assert "fail_rate" in printed
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["penalty.solves"] == 1 and m["penalty.lbfgs.calls"] > 0
        assert m["geometry.self_s"] > 0 and m["penalty.self_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "solve-disk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
