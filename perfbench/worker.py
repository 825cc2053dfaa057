"""One benchmark process: import koszulspec, then run a workload as a
closed loop with a single caller until the time is up.

    python3 perfbench/worker.py --spawned-at T --workload NAME --seed N
        --seconds S --trace 0|1 [--spans FILE]
    python3 perfbench/worker.py --spawned-at T --setup-only

`--spawned-at` is the parent's time.perf_counter() just before it started
this process; perf_counter is the system-wide monotonic clock, so the
difference to the moment koszulspec.cli is imported is the set-up time.
Prints one JSON object on stdout.
"""

import time

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import koszulspec.cli as cli  # noqa: E402

READY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import expectations  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, about a millisecond: how fast
    the host runs Python right now.  It shares no code with koszulspec, so
    a change to the program cannot move it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class HostProbe:
    """Samples the host speed while the calls run.  Every PERIOD seconds
    SIGALRM interrupts the program between two bytecodes and runs
    calibrate() once, in the one thread there is.  `spent` adds up the
    handler time, which the caller takes out of its wall times."""

    PERIOD = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_call(call: dict, expected: dict, probe: HostProbe) -> tuple[float, str | None, str]:
    """Run one CLI call; (wall seconds without the probe's share, failure
    reason or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    spent0 = probe.spent
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(call["argv"])
    except Exception as exc:  # recorded as a failure; the run goes on
        rc, why = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 - (probe.spent - spent0)
    text = out.getvalue()
    if rc is None:
        return wall, why, text
    if rc != 0:
        return wall, f"exit {rc}: {err.getvalue().strip()[-200:]}", text
    return wall, expectations.mismatch(json.loads(text), expected), text


def run_pass(calls, expected, first_out, failures) -> tuple[float, float, int, float]:
    """One pass over the workload; (summed wall of the calls, their CPU
    seconds, number of failed calls, median probe sample)."""
    wall = cpu = 0.0
    failed = 0
    with HostProbe() as probe:
        for i, call in enumerate(calls):
            label = call["label"]
            cpu0 = time.process_time()
            dt, why, text = run_call(call, expected[label], probe)
            cpu += time.process_time() - cpu0
            wall += dt
            if first_out[i] is None:
                first_out[i] = text
            elif why is None and text != first_out[i]:
                why = "stdout differs from the first pass"
            if why is not None:
                failed += 1
                failures.setdefault(label, why)
    return wall, cpu, failed, statistics.median(probe.samples or [calibrate()])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    setup_s = READY - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calls = workloads.calls(args.workload, args.seed)
    expected = expectations.load()[args.workload]
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()  # fail on a missing hook before measuring anything
        tracer.uninstall()

    first_out = [None] * len(calls)
    failures: dict[str, str] = {}
    walls, cpus, refs, traced_walls, traced_refs, layer_rows = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # with tracing on, every second pass is traced; the others give the
        # untraced baseline for the overhead
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            wall, cpu, bad, ref = run_pass(calls, expected, first_out, failures)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(calls)
        failed += bad
        if traced:
            traced_walls.append(wall)
            traced_refs.append(ref)
            layer_rows.append(tracer.summary(first_span))
        else:
            walls.append(wall)
            cpus.append(cpu)
            refs.append(ref)
        elapsed = time.perf_counter() - start
        # closed loop: start another pass only if it should end in time
        done = tracer is None or traced_walls
        if done and elapsed + max(walls + traced_walls) > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unexpected": sorted(set(failures) - expectations.known_defects(args.workload)),
        # equal for two runs of one seed when stdout is deterministic
        "stdout_sha256": hashlib.sha256("".join(first_out).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layer = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        # host-normalized, like wall_ref, so a slow spell of the host does
        # not read as tracing cost
        with_hooks = statistics.median(w / r for w, r in zip(traced_walls, traced_refs))
        without = statistics.median(w / r for w, r in zip(walls, refs))
        layer["trace.overhead"] = with_hooks / without - 1
        result["layers"] = layer
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([s[:4] for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
