"""One workload in one fresh interpreter; started by bench/run.py.

    PYTHONPATH=src python3 bench/worker.py --workload law_sweep --seed 1 \
        --seconds 25 --trace 0 [--setup-only]

The set-up (interpreter start, ``import chientropy``, the inputs of
round 0) ends at the ``ready`` timestamp.  Then whole rounds run until
``--seconds`` have passed since ``ready``; the calibration kernel runs
between ops, outside their timings.  Peak memory is read before any
oracle work, and the oracle checks come last.  The last line of stdout
is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import chientropy
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _import_times() -> tuple[float, float]:
    """Cumulative ms of ``import chientropy`` and of scipy.integrate in it."""
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chientropy"],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH="src"))
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e3
        samples.append((cumulative["chientropy"], cumulative.get("scipy.integrate", 0.0)))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def _code_size() -> tuple[int, int]:
    src = os.path.join(ROOT, "src", "chientropy")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for line in fh if line.strip())
    return lines, len(chientropy.__all__)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="run length (not needed with --setup-only)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    ops = wl.make_round(args.seed, 0)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import calib   # after the set-up: its imports are not the program's

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        wl.in_process = True   # the CLI session runs chientropy.cli.main in process

    op_s, done_ops, outputs, failures = [], [], [], []
    kernel_s, kernel_runs, rounds = 0.0, 0, 0
    while True:
        if tracer:
            tracer.new_round()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:   # an op that raises counts as failed
                failures.append(f"{op}: {type(exc).__name__}: {exc}")
                out = None
            op_s.append(time.perf_counter() - t0)
            if out is not None:
                done_ops.append(op)
                outputs.append(out)
            if wl.kernel_reps:
                kernel_s += calib.timed_kernel(wl.kernel_reps)
                kernel_runs += wl.kernel_reps
            elif len(op_s) % wl.process_kernel_every == 0:
                kernel_s += calib.timed_process_kernel()
                kernel_runs += 1
        rounds += 1
        if tracer:
            tracer.snapshot_counts()
        if time.monotonic() - ready >= args.seconds:
            break
        ops = wl.make_round(args.seed, rounds)

    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" and not tracer else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    reference_s = calib.KERNEL_REFERENCE_S if wl.kernel_reps else calib.PROCESS_KERNEL_REFERENCE_S
    result = {"ready": ready, "rounds": rounds, "op_s": op_s,
              "kernel_s": kernel_s, "kernel_runs": kernel_runs,
              "kernel_reference_s": reference_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(op_s),
              "failed": len(failures), "failures": failures[:20]}
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        import_ms, scipy_integrate_ms = _import_times()
        lines, names = _code_size()
        main_ms = 1e3 * statistics.fmean(op_s) if wl.name == "cli_session" else 0.0
        layers.update({
            "cli.import_ms": (import_ms, "ms"),
            "cli.import_scipy_integrate_ms": (scipy_integrate_ms, "ms"),
            "cli.main_ms": (main_ms, "ms"),
            "code.src_lines": (lines, "count"),
            "code.public_names": (names, "count"),
            "trace.wall_rel": (sum(op_s) / rounds / (kernel_s / kernel_runs), "cal"),
            "trace.wall_s": (sum(op_s) / rounds * reference_s / (kernel_s / kernel_runs), "s"),
        })
        result["layers"] = layers
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        tracer.write(os.path.join(BENCH_DIR, "out",
                                  f"trace-{wl.name}-{args.seed}.json"))

    errors = []
    wl.check(done_ops, outputs, errors)
    result["errors"] = errors[:20]
    result["n_errors"] = len(errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
