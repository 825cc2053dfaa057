"""koszulspec benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one by one

Each run starts fresh single-threaded Python processes from the root of the
checkout.  Six of them only import koszulspec.cli, to time set-up.  One
more runs the workload as a closed loop with one caller: it calls
`koszulspec.cli.main([..., "--json"])` in-process on every input of the
workload, pass after pass, while another pass still fits in S seconds, and
checks every output against perfbench/expected.json.

With `--trace 0` the run reports the end-to-end metrics:

    wall_ref     median over passes of the summed wall time of the calls,
                 divided by the median time of a fixed pure-Python loop
                 sampled every 0.1 s while they run (worker.HostProbe),
                 so that the drifting speed of a shared host cancels out
    peak_rss_mb  ru_maxrss of the workload process
    ok_ratio     share of calls that matched the oracle; fail_ratio is
                 1 - ok_ratio
    setup_s      median time from process start to koszulspec.cli imported

and prints the plain wall_s (median summed wall time of a pass) and
fail_ratio next to them.

With `--trace 1` every second pass runs with the layer hooks of
perfbench/layers.py installed, and the run reports per-layer metrics
instead.  Spans go to .bench_build/perfbench/.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402

PROBES = 6
DIAGNOSTICS = ["proc.wall_s", "proc.cpu_s", "host.calib_s", "trace.coverage", "trace.overhead"]
TIME_LIMIT = 170.0
# numpy must not start worker threads: one caller, one thread
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spawned-at", repr(t0), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace."):
        return "ratio"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT
    setups = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(PROBES)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "perfbench", f"spans-{workload}-seed{seed}.json")
        args += ["--spans", spans]
    res = spawn(args, deadline)
    setups.append(res["setup_s"])

    ncalls = len(workloads.calls(workload, seed))
    passes = res["attempted"] // ncalls
    known = sorted(set(res["failures"]) - set(res["unexpected"]))
    print(
        f"{workload} seed={seed} passes={passes} calls/pass={ncalls} "
        f"failed/pass={res['failed'] / passes:g} known-defect={','.join(known) or '-'} "
        f"calib_ms={1e3 * statistics.median(res['refs']):.4f} "
        f"pass_walls_s={','.join(f'{w:.3f}' for w in res['walls'])} "
        f"pass_wall_refs={','.join(f'{w / r:.0f}' for w, r in zip(res['walls'], res['refs']))} "
        f"stdout_sha256={res['stdout_sha256'][:16]}"
    )
    for label, why in sorted(res["failures"].items()):
        tag = "UNEXPECTED" if label in res["unexpected"] else "known defect"
        print(f"  FAIL {label} ({tag}): {why}")

    if trace:
        layer = dict(res["layers"])
        layer["proc.wall_s"] = statistics.median(res["walls"])
        layer["proc.cpu_s"] = statistics.median(res["cpus"])
        layer["host.calib_s"] = statistics.median(res["refs"])
        names = list(LAYER_METRICS) + DIAGNOSTICS
        metrics = {k: {"value": layer[k], "unit": layer_unit(k)} for k in names}
    else:
        ok = (res["attempted"] - res["failed"]) / res["attempted"]
        metrics = {
            "wall_ref": {"value": statistics.median(w / r for w, r in zip(res["walls"], res["refs"])), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": ok, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  wall_s = {statistics.median(res['walls']):.6g} s")
        print(f"  fail_ratio = {1 - metrics['ok_ratio']['value']:.6g} ratio")
    return {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
