"""Write perfbench/expected.json from the current engine at seed 0.

    python3 perfbench/make_expected.py

Run it only when an output is meant to change, and review the diff: the
file is the benchmark's oracle.  Adversarial inputs store the answer of
their plain twin (the same hypersurface over Q), which is the true answer;
test_expected.py checks every stored answer against independent oracles.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import koszulspec.cli as cli  # noqa: E402

import expectations  # noqa: E402
import workloads  # noqa: E402

KNOWN_DEFECT = (
    "the coefficient is the product of the two fixed rank primes, so the "
    "modular rank path returns a wrong rank (ROADMAP item 2)"
)


def record(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv}: exit {rc}")
    return json.loads(out.getvalue())


def main() -> None:
    data = {}
    for name, inputs in workloads.WORKLOADS.items():
        data[name] = {}
        for (label, *_rest, twin), call in zip(inputs, workloads.calls(name, 0)):
            argv = list(call["argv"])
            if twin is not None:
                argv[1] = twin
            rec = record(argv)
            entry = {"fields": {k: v for k, v in sorted(rec.items()) if k not in expectations.VOLATILE}}
            if twin is not None:
                entry["known_defect"] = KNOWN_DEFECT
            data[name][label] = entry
            print(name, label, file=sys.stderr)
    # one line per input keeps the diff of a changed answer readable
    blocks = []
    for name in sorted(data):
        rows = [f"  {json.dumps(label)}: {json.dumps(data[name][label], sort_keys=True)}" for label in sorted(data[name])]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(expectations.PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
