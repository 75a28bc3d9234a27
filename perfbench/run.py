"""Benchmark of the `statecon` CLI on its four shipped scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--grid-n N]

Run from the root of a source checkout; the program is taken from `src/` and
the scenarios from `scenarios/`, unaltered.  Load shape: a closed loop, one
client and one workload process at a time, BLAS and OpenMP pinned to one
thread in every child and every process pinned to the same CPU.  `--seed`
goes to the CLI's `--seed` (the DPP samples of `value`).

--trace 0  runs the workload repeatedly for --seconds (at least once; a run is
           started only if the previous one's wall time still fits) and
           reports the end-to-end metrics: wall_s (mean over the runs, i.e.
           the measured window's seconds per CLI run; median and quartiles
           printed), setup_s (median of the runs' set-up times),
           peak_rss_mb (median).
           failed/attempted is the fail rate.
--trace 1  runs untraced/traced pairs instead and reports the per-layer
           metrics, read from the spans `tracing.Tracer` records in the
           traced process, plus trace.overhead (traced minus untraced wall,
           as a share of untraced).

A run fails if the CLI exits non-zero, an oracle in `oracles.py` rejects its
outputs, or its output files are not byte-identical to the first run of the
same invocation.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracing import inclusive_time, self_times  # noqa: E402

# The closed loop: one process at a time on a 2-core machine; BLAS threads are
# pinned so that timings do not depend on machine load or thread defaults.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0     # every run of this script ends within 180 s


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    grid_n: int | None      # None: the scenario's own grid
    check: object


# BENCHMARK.json lists the benchmark's workloads and why each was chosen.
# solve-disk (penalty-dominated large-N contact solve, closed-form oracle) and
# value-grid (many short solves, affine oracle) stay runnable by name but are
# not listed there: with four workloads the run budget leaves ~20 s per run,
# too short to be steady on a shared 2-vCPU machine.
WORKLOADS = {
    "solve-disk": Workload("solve", "S1", None, oracles.check_solve_disk),
    # the shipped N=256 takes about 55 s on a 2-vCPU VM, too long for one
    # run; N=32 and 48 fail the PMP checks
    "solve-ellipse": Workload("solve", "S3", 64, oracles.check_solve_ellipse),
    "value-grid": Workload("value", "S2", None, oracles.check_value_grid),
    "mfg-crowd": Workload("mfg", "S4", None, oracles.check_mfg),
}

# geometry methods by what they evaluate (outermost calls only)
GEOMETRY_FAMILIES = {
    "b": ("b_many", "signed_distance", "distance", "contains"),
    "grad": ("grad_many", "grad_b", "distance_grad_many", "subdiff_distance"),
    "hess": ("hess_many", "hess_b"),
    "project": ("project_many", "project"),
}


@dataclass
class Execution:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    problems: list = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Spawns workload processes for one invocation and checks each one."""

    def __init__(self, name: str, seed: int, grid_n: int | None,
                 work: Path, deadline: float):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.grid_n = grid_n if grid_n is not None else self.wl.grid_n
        self.config = ROOT / "scenarios" / f"{self.wl.scenario}.json"
        self.cfg = json.loads(self.config.read_text())
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.first_hashes: dict | None = None
        self.count = 0

    def _spawn(self, extra: list, cli_args: list):
        """Run one child; returns (returncode, wall seconds, peak RSS in MB,
        CPU seconds, set-up seconds or None, the tail of its output)."""
        stamp = self.work / f"stamp{self.count}"
        log = self.work / f"log{self.count}"
        self.count += 1
        argv = [sys.executable, str(HERE / "child.py"), "--stamp", str(stamp),
                *extra, "--", *cli_args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        with open(log, "w") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            _pid, status, ru = wait4_killing_after(proc, remaining)
            wall = time.monotonic() - t0
        rc = os.waitstatus_to_exitcode(status)
        setup = (float(stamp.read_text()) - t0) if stamp.exists() else None
        tail = log.read_text()[-2000:]
        return (rc, wall, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime,
                setup, tail)

    def execute(self, traced: bool) -> Execution:
        out = self.work / f"out{self.count}"
        cli_args = [self.wl.command, "--config", str(self.config),
                    "--out", str(out), "--seed", str(self.seed)]
        if self.grid_n is not None:
            cli_args += ["--grid-n", str(self.grid_n)]
        trace_file = self.work / f"trace{self.count}.json"
        extra = ["--trace", str(trace_file)] if traced else []
        rc, wall, rss, cpu, setup, tail = self._spawn(extra, cli_args)
        ex = Execution(wall_s=wall, setup_s=setup, rss_mb=rss, cpu_s=cpu)
        if rc != 0:
            ex.problems.append(f"exit code {rc}: {tail}")
        else:
            try:
                ex.problems += self.wl.check(out, self.cfg)
                hashes = oracles.output_hashes(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ex.problems.append(f"outputs unreadable: {exc!r}")
            else:
                if self.first_hashes is None:
                    self.first_hashes = hashes
                elif hashes != self.first_hashes:
                    ex.problems.append("outputs differ from the first run")
            if traced:
                try:
                    ex.trace = json.loads(trace_file.read_text())
                except (OSError, ValueError) as exc:
                    ex.problems.append(f"trace unreadable: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        trace_file.unlink(missing_ok=True)
        return ex


def wait4_killing_after(proc, timeout: float):
    """os.wait4 on `proc` (for its own peak RSS and CPU time); the process
    is killed if it is still running after `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        pid, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return pid, status, ru


def pin_to_one_cpu() -> int:
    """Pin this process, and so every workload process it starts, to one
    CPU.  The vCPUs of a shared machine run at different speeds (their
    hardware siblings carry other load), so a workload process that the
    scheduler places on either one times bimodally."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def measure_untraced(runner: Runner, seconds: float):
    execs = []
    start = time.monotonic()
    while True:
        execs.append(runner.execute(traced=False))
        elapsed = time.monotonic() - start
        if elapsed + execs[-1].wall_s > seconds:
            break
    return execs


def measure_traced(runner: Runner, seconds: float):
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(runner.execute(traced=False))
        traced.append(runner.execute(traced=True))
        pair = time.monotonic() - t0
        if time.monotonic() - start + pair > seconds:
            break
    return plain, traced


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process (no cli.cpu_s and
    trace.overhead: those need the untraced pair)."""
    spans = trace["spans"]
    calls = trace["calls"]
    notes = trace["notes"]
    own = self_times(spans)

    def outer_calls(layer, methods):
        return sum(v[1] for k, v in calls.items()
                   if k.split(":")[0] == layer
                   and k.split(".")[-1] in methods)

    def total(key):
        return calls.get(key, [0, 0])[0]

    m = {}
    for fam, names in GEOMETRY_FAMILIES.items():
        m[f"geometry.{fam}.calls"] = outer_calls("geometry", names)
    m["geometry.points"] = notes.get("geometry.points", 0)
    m["model.calls"] = sum(v[1] for k, v in calls.items()
                           if k.startswith("model:"))
    solves = total("penalty:epsilon_schedule")
    levels = total("penalty:minimize_penalized")
    m.update({
        "penalty.solves": solves,
        "penalty.eps_levels": levels,
        "penalty.restarts": notes.get("penalty.restarts", 0),
        "penalty.useful_ratio": solves / levels if levels else 0.0,
        "penalty.final_eps": notes.get("penalty.final_eps", 0.0),
        "penalty.lbfgs.calls": total("lbfgs:minimize"),
        "penalty.lbfgs.nit": notes.get("penalty.lbfgs.nit", 0),
        "penalty.lbfgs.nfev": notes.get("penalty.lbfgs.nfev", 0),
        "penalty.lbfgs.s": inclusive_time(spans, "lbfgs", {"minimize"}),
        "penalty.newton.solves": total("newton:spsolve"),
        "pmp.adjoint_ode": notes.get("pmp.adjoint_ode", 0.0),
        "pmp.state_ode": notes.get("pmp.state_ode", 0.0),
        "value.nodes": notes.get("value.nodes", 0),
        "value.failures": notes.get("value.failures", 0),
        "value.dpp.s": inclusive_time(spans, "value", {"dpp_check"}),
        "value.dpp_gap": notes.get("value.dpp_gap", 0.0),
        "mfg.iterations": notes.get("mfg.iterations", 0),
        "mfg.best_responses": total("mfg:best_response"),
        "mfg.best_response.s": inclusive_time(spans, "mfg",
                                              {"best_response"}),
        "mfg.support_max": notes.get("mfg.support_max", 0),
        "mfg.transport.lps": total("transport:linprog"),
        "mfg.mild.s": inclusive_time(spans, "mfg", {"mild_solution"}),
        "mfg.residual": notes.get("mfg.residual", 0.0),
        "cli.write.s": inclusive_time(spans, "cli",
                                      {"write_csv", "write_json"}),
    })
    for layer in ("geometry", "model", "penalty", "pmp", "value", "mfg"):
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["penalty.lbfgs.self_s"] = own.get("lbfgs", 0.0)
    m["penalty.newton.self_s"] = own.get("newton", 0.0)
    m["mfg.transport.self_s"] = own.get("transport", 0.0)
    return m


def run_record(seed: int, executions: int, cpu: int) -> dict:
    import numpy
    import scipy
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = "unknown"
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = "unknown (not a git checkout)"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "thread_env": THREAD_ENV, "pinned_cpu": cpu,
            "seed": seed, "executions": executions}


def run_workload(name: str, args, work: Path, deadline: float,
                 units: dict, cpu: int):
    """One invocation on one workload: returns (attempted, failed, metrics),
    with the metrics named in `units` (name -> unit) in that order."""
    runner = Runner(name, args.seed, args.grid_n, work, deadline)
    load_before = os.getloadavg()
    notes = {}
    if args.trace:
        plain, traced = measure_traced(runner, args.seconds)
        execs = plain + traced
        per = [layer_metrics(e.trace) for e in traced if e.trace is not None]
        metrics = {}
        if per:
            metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}
            w_plain = statistics.median(e.wall_s for e in plain)
            w_traced = statistics.median(e.wall_s for e in traced)
            metrics["cli.cpu_s"] = statistics.median(e.cpu_s for e in plain)
            metrics["trace.overhead"] = (w_traced - w_plain) / w_plain
    else:
        execs = measure_untraced(runner, args.seconds)
        setups = [e.setup_s for e in execs if e.setup_s is not None]
        walls = [e.wall_s for e in execs]
        lo, med, hi = quartiles(walls)
        # The mean, not the median: an invocation holds two or three
        # 15-30 s CLI runs, and a shared machine's speed drifts on that
        # scale rather than spiking, so the mean averages the drift over
        # the whole window where the median of so few runs keeps one run's.
        metrics = {"wall_s": statistics.fmean(walls),
                   "setup_s": statistics.median(setups) if setups else 0.0,
                   "peak_rss_mb": statistics.median(e.rss_mb for e in execs)}
        notes = {"wall_s": f"mean; median {med:.4f}, p25 {lo:.4f}, "
                           f"p75 {hi:.4f}; n={len(execs)}",
                 "setup_s": f"median; n={len(setups)}"}
    failed = [e for e in execs if not e.ok]
    for e in failed:
        print(f"{name}: failed run: {'; '.join(e.problems)}", file=sys.stderr)

    print(f"workload {name}  seed {args.seed}  runs {len(execs)}  "
          f"trace {args.trace}  grid_n {runner.grid_n}")
    for key, unit in units.items():
        if key in metrics:
            note = f"   ({notes[key]})" if key in notes else ""
            print(f"  {key:24s} {metrics[key]:.6g} {unit}{note}")
    print(f"  {'fail_rate':24s} {len(failed)}/{len(execs)} = "
          f"{len(failed) / len(execs):g}")
    record = run_record(args.seed, len(execs), cpu)
    record.update(workload=name, loadavg_before=load_before,
                  loadavg_after=os.getloadavg())
    print("record " + json.dumps(record, sort_keys=True))
    return len(execs), len(failed), {
        k: {"value": metrics[k], "unit": u} for k, u in units.items()
        if k in metrics}


def load_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def missing_files() -> list:
    """Files of the checkout the benchmark needs but cannot find."""
    need = [ROOT / "BENCHMARK.json", ROOT / "src" / "statecon" / "cli.py"]
    need += [ROOT / "scenarios" / f"{w.scenario}.json"
             for w in WORKLOADS.values()]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid-n", type=int, default=None,
                    help="override the workload's grid (smoke runs)")
    return ap.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still kills and reaps its workload process
    signal.signal(signal.SIGTERM, _terminate)
    missing = missing_files()
    if missing:
        print("error: not a statecon checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    units = load_units(args.trace)
    cpu = pin_to_one_cpu()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / uuid.uuid4().hex
    work.mkdir(parents=True)
    try:
        attempted, failed, metrics = run_workload(
            args.workload, args, work, deadline, units, cpu)
    except TimeoutError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        attempted, failed, metrics = 1, 1, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
