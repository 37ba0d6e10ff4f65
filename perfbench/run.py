"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mvx-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the ``repro`` package is
imported from its ``src/`` directory.  The report lists every metric
by name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics with no
tracing installed, ``--trace 1`` the per-layer ledger.  The exit code
is 0 only when every response matched the bare runtime and nothing
leaked; without a ``src/repro`` package it is 2 and nothing is printed
to standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from measure import LeakError, stop_children

    try:
        result = workloads.run(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
    except (workloads.BenchmarkError, LeakError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        stragglers = stop_children()
    if stragglers:
        print(f"perfbench: processes left running: {stragglers}", file=sys.stderr)
        return 1
    for line in result.lines():
        print(line)
    print(json.dumps(result.to_json()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
