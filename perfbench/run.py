"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
The program under test is imported from ``src/`` next to this directory.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is
non-zero when a served output is wrong or the program cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "serve-open": "perfbench.serve_open",
    "serve-http": "perfbench.serve_http",
    "offline-base": "perfbench.offline_base",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for name in WORKLOADS)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    workload = importlib.import_module(WORKLOADS[args.workload])
    harness.WORK.mkdir(exist_ok=True)
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    tracer = result["tracer"]
    if tracer is not None:
        tracer.write(harness.WORK / f"trace-{args.workload}-{args.seed}.jsonl")
    print("end-to-end metrics" + (" (traced run: not the official figures)"
                                  if args.trace else "") + ":")
    harness.print_metrics(result["end_to_end"])
    metrics, kind = result["end_to_end"], "end_to_end"
    if args.trace:
        print("per-layer metrics:")
        harness.print_metrics(result["per_layer"])
        metrics, kind = result["per_layer"], "per_layer"
    expected = [metric["name"] for metric in harness.SPEC[kind]]
    if sorted(metrics) != sorted(expected):
        raise SystemExit(f"{args.workload} reported {sorted(metrics)}, "
                         f"BENCHMARK.json lists {sorted(expected)}")
    return harness.finish(result["phases"], metrics, result["ok"])

if __name__ == "__main__":
    sys.exit(main())
