#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for csq.

Run from the repository root:

    python3 perfbench/run.py --workload serve-random --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics (spans go to ``perfbench/out/``).  The
workloads are described in ``workloads.py``.  Every answer is checked
against an independent oracle.  Report lines come first, as
``name: value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer is correct, 1 on any mismatch, and 2 when the csq
sources are missing or the arguments are bad.

End-to-end times are scaled to a nominal machine speed by a reference
kernel timed throughout the run (``speed_scale`` in the report; the
unscaled values are printed as ``raw.*``).  Per-layer times are unscaled.

The library runs from ``src/`` under the plain interpreter, asserts on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("serve-random", "serve-repetitive", "gadget-sweep")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "csq" / "__init__.py").is_file():
        print(f"perfbench: no csq sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    scale = workloads.SMALL if args.small else workloads.FULL
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scale, OUT_DIR)
    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(wanted) - set(result.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")

    for name, value, unit in result.lines:
        print(f"{name}: {value}{' ' + unit if unit else ''}")
    for message in result.failures:
        print(f"mismatch: {message}")
    correct = result.failed == 0
    document = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": unit} for name, unit in wanted.items()
        },
    }
    print(json.dumps(document))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
