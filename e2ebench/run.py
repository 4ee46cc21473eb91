"""End-to-end benchmark of the simra-dram reproduction.

    python3 e2ebench/run.py --workload paper-fused --seed 1 --seconds 20 --trace 0

Workloads: ``paper-fused`` (all 11 figures on FusedExecutor),
``adaptive-pool`` (the adaptive planner on a 2-worker fused pool) and
``serve-readwrite`` (``simra-dram serve`` under a read mix while a
writer re-commits one figure).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed, apart from checks of known faults
(counted in ``failed``, see ``common.Checks``); without the program's sources
next to this directory the command exits 2 and prints no result.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from common import ROOT, SRC, Context, remove_scratch, scratch_root  # noqa: E402

WORKLOADS = ("paper-fused", "adaptive-pool", "serve-readwrite")

UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scope, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported repro from {origin}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    from layers import PER_LAYER_UNITS
    return PER_LAYER_UNITS[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so servers, pools and scratch are
    # still cleaned up by the finally blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    import procstat
    host_before = procstat.host_ticks()
    tmp = scratch_root()
    os.environ["TMPDIR"] = str(tmp)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  smoke=args.smoke, tmp=tmp)
    try:
        if args.workload == "serve-readwrite":
            import serve_workload as workload
        else:
            import campaign_workloads as workload
        outcome = workload.run(ctx)
    finally:
        procstat.stop_children()
        remove_scratch(tmp)
    if args.trace:
        from layers import complete
        outcome.metrics = complete(outcome.metrics)
    correct = outcome.failed == outcome.known_failed
    info = dict(outcome.info, workload=args.workload, seed=args.seed,
                trace=args.trace, smoke=args.smoke,
                known_faults=outcome.known_failed,
                host_steal_frac=round(procstat.steal_share(
                    host_before, procstat.host_ticks()), 4),
                failures=outcome.failures, checkout=str(ROOT),
                process_s=round(time.perf_counter() - STARTED, 3))
    print(json.dumps({"info": info}, sort_keys=True), file=sys.stderr)
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(outcome.metrics.items())
    }
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
