"""Child process of bench/run.py; one role per process.

    worker.py inputs --workload W --seed N --scale X --work DIR
    worker.py setup  --workload W --work DIR
    worker.py run    --workload W --seconds S --trace 0|1 --work DIR

``setup`` prints the CLOCK_MONOTONIC time at which the workload is ready
(package imported, catalog and models loaded), so the parent can time it
from the moment it started the process.  ``run`` writes its result to
DIR/result.json.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_climbgen() -> None:
    import climbgen

    where = Path(climbgen.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"climbgen was imported from {where}, not from {ROOT / 'src'}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("inputs", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    _import_climbgen()
    import workloads

    inputs = args.work / "inputs"
    if args.role == "inputs":
        workloads.make_inputs(args.workload, args.seed, args.scale, inputs)
        return 0
    if args.role == "setup":
        workloads.Setup(args.workload, inputs)
        print(repr(time.monotonic()), flush=True)
        return 0

    import json

    import measure

    result = measure.run(args.workload, inputs, args.work, args.seconds, bool(args.trace))
    (args.work / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
