"""Workload process: runs the `statecon` CLI entry point as shipped.

    python3 child.py --stamp FILE [--trace FILE] -- CLI ARGS

It does what the `statecon` console script does (import `statecon.cli` and
call `main` with the arguments), with two additions for the benchmark:

* after `statecon` is imported and the scenario's domain and problem are
  built, it writes `time.monotonic()` to the `--stamp` file; the parent
  subtracts its own spawn time to get the set-up time (CLOCK_MONOTONIC is
  shared by all processes).
* with `--trace FILE` it installs `tracing.Tracer` (scipy first, before
  `statecon` is imported) and writes the spans to FILE when `main` returns.
"""

from __future__ import annotations

import argparse
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--stamp", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = None
    if opts.trace:
        from tracing import Tracer
        tracer = Tracer(run_id=opts.trace)
        tracer.patch_scipy()

    import statecon.cli as cli

    args = cli.make_parser().parse_args(cli_args)
    cfg = cli.load_config(args.config)
    cli.build_problem(cfg, cli.build_domain(cfg))
    with open(opts.stamp, "w") as fh:
        fh.write(repr(time.monotonic()))
    if tracer is not None:
        tracer.install([sys.modules[name] for name in sorted(sys.modules)
                        if name == "statecon"
                        or name.startswith("statecon.")])
    rc = cli.main(cli_args)
    if tracer is not None:
        tracer.dump(opts.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
