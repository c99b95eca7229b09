"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload molecules --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
report provenance, each phase's operations and each metric's median,
quartiles and sample count.  A failed correctness check prints
``"correct": false`` and exits with status 1; a checkout without the program
exits with status 2 before doing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")


def _git_commit() -> str:
    """The checkout's commit, or "none" outside a git repository."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # Never report the commit of a repository that encloses the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except OSError:
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import numpy
        import scipy

        import repro.hdc
        from perfbench import checks, pipeline
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(pipeline.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # Scratch files of the program and its children stay in the checkout.
    os.environ["TMPDIR"] = workdir
    run = pipeline.Run(pipeline.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), ROOT, workdir)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"provenance commit={_git_commit()} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"popcount={repro.hdc.POPCOUNT_IMPLEMENTATION}")
    correct = True
    try:
        run.run()
    except checks.CheckFailed as error:
        print(f"CHECK FAILED: {error}")
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(phase.attempted for phase in run.phases.values())
    failed = sum(phase.failed for phase in run.phases.values())
    print(f"{'phase':<16}{'attempted':>10}{'failed':>8}")
    for name, phase in run.phases.items():
        print(f"{name:<16}{phase.attempted:>10}{phase.failed:>8}")
    for name, count in run.notes.items():
        print(f"note {name}={count}")
    metrics = {}
    if correct:
        metrics = run.per_layer() if args.trace else run.end_to_end()
        print("\n".join(run.report_lines(metrics)))
        if args.trace:
            print("\n".join(run.trace_table()))
            _write_spans(run, args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _write_spans(run, args) -> None:
    path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            [dict(zip(("name", "start", "end", "parent", "phase"), span))
             for span in run.tracer.spans],
            handle,
        )
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
