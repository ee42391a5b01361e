"""pflens benchmark: one workload, one process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pflens is imported from its
``src/``. Set-up makes the workload's inputs from the seed, then ops
run back to back (each starts after the previous one returns) while
fewer than S seconds have passed, so at least one op runs. Every
op's output is checked. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The line before it, starting ``# summary``, also holds
``op_s_tail``, ``failed_frac`` and the environment record. The exit
code is 0 only when every op passed its check; a run refused by the
memory guard or unable to import pflens prints no result.
"""

import time

_ORIGIN = time.perf_counter()

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail(values: list[float]):
    """Highest percentile with at least ten ops beyond it: (percentile, value, beyond) or None."""
    ordered = sorted(values)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1], len(ordered) - rank
    return None


def _import_pflens():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pflens
    except ImportError as error:
        sys.exit(f"perfbench: cannot import pflens from {ROOT / 'src'}: {error}")
    if not Path(pflens.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: pflens was imported from {pflens.__file__}, not {ROOT / 'src'}")


def _loop(workload, seconds: float, tracer):
    op_seconds = []
    failures = []
    start = time.perf_counter()
    while True:
        workload.before_op()
        op_start = time.perf_counter()
        try:
            with tracer.span("op") if tracer else nullcontext():
                result = workload.op(len(op_seconds))
            error = None
        except Exception:  # an op that raises counts as failed; keep measuring
            error = traceback.format_exc()
        elapsed = time.perf_counter() - op_start
        problems = [error] if error else workload.check(result)
        if problems:
            failures.append((len(op_seconds), problems))
            print(f"op {len(op_seconds)} failed: {problems}", file=sys.stderr)
        op_seconds.append(elapsed)
        if time.perf_counter() - start >= seconds:
            return op_seconds, failures


def main(argv=None) -> int:
    _import_pflens()
    import machine
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return _run(args, workloads.WORKLOADS[args.workload])
    except machine.MemoryGuardError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3


def _run(args, workload_class) -> int:
    from numpy.random import default_rng

    import machine
    import tracing

    env = machine.environment(ROOT)
    machine.require_memory(workload_class.peak_kernel_bytes, f"workload {args.workload}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_pflens(tracer)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{args.workload}-") as scratch:
        with tracer.span("setup") if tracer else nullcontext():
            workload = workload_class(default_rng(args.seed), Path(scratch))
        setup_s = time.perf_counter() - _ORIGIN
        op_seconds, failures = _loop(workload, args.seconds, tracer)
        workload.close()
        del workload

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(op_seconds)
    op_s_p50 = statistics.median(op_seconds)
    op_tail = tail(op_seconds)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "ops": attempted,
        "op_s_p50": op_s_p50,
        "op_s_tail": None if op_tail is None else {
            "percentile": op_tail[0], "value_s": op_tail[1], "ops_beyond": op_tail[2], "ops": attempted,
        },
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "failed_frac": len(failures) / attempted,
        "env": env,
    }

    if tracer is None:
        metrics = {
            "op_s_p50": (op_s_p50, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
        }
    else:
        tracer.uninstall()
        cache = machine.last_level_cache_bytes() or 0
        array_bytes = max(machine.STREAM_CACHE_MULTIPLE * cache, 1 << 30)
        machine.require_memory(array_bytes, "bandwidth calibration")
        gbps = machine.stream_gbps(array_bytes)
        summary["stream"] = {"last_level_cache_bytes": cache, "array_bytes": array_bytes, "gbps": gbps}
        metrics = tracing.layer_metrics(tracer.spans, gbps)
        metrics["trace.op_s_p50"] = (op_s_p50, "s")
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"summary": summary, "spans": tracer.to_json()}))
        summary["trace_file"] = str(trace_path.relative_to(ROOT))

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    if op_tail is not None:
        print(f"{'op_s_tail':34s} {op_tail[1]:.6g} s (p{op_tail[0]:g}, {op_tail[2]} of {attempted} ops beyond)")
    else:
        print(f"{'op_s_tail':34s} undefined ({attempted} ops; needs >= 20)")
    print(f"{'failed_frac':34s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    print("# summary " + json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
