"""Benchmark of chientropy: three seeded workloads, checked by an oracle.

    python3 bench/run.py --workload law_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics of a traced run.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("law_sweep", "process_curves", "cli_session")
SETUP_PROBES = 3     # extra fresh interpreters that only set up
TIMEOUT_S = 170.0


def _spawn(args: list, deadline: float) -> tuple[float, dict]:
    """Run the worker; returns (spawn time, its JSON result)."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "chientropy", "__init__.py")):
        sys.stderr.write("no chientropy sources under src/; run from a checkout\n")
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0, res = _spawn(common + ["--setup-only"], deadline)
            setup.append(res["ready"] - t0)
    t0, res = _spawn(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    setup.append(res["ready"] - t0)

    for line in res["failures"] + res["errors"]:
        sys.stderr.write(line + "\n")
    if res["n_errors"]:
        sys.stderr.write(f"{res['n_errors']} check(s) failed\n")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        raw_round_s = sum(res["op_s"]) / res["rounds"]
        kernel_s = res["kernel_s"] / res["kernel_runs"]
        # the host's speed drifts between runs; rescale the timings to
        # the kernel's fixed reference run time
        to_reference = res["kernel_reference_s"] / kernel_s
        sys.stderr.write(f"raw: {raw_round_s:.4f} s per round, median op "
                         f"{1e3 * statistics.median(res['op_s']):.2f} ms, "
                         f"kernel {1e3 * kernel_s:.3f} ms\n")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": raw_round_s * to_reference, "unit": "s"},
            "wall_rel": {"value": raw_round_s / kernel_s, "unit": "cal"},
            "op_ms_p50": {"value": 1e3 * statistics.median(res["op_s"]) * to_reference,
                          "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["n_errors"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
