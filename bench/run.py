"""Run one workload of the geoshard benchmark and print its metrics.

    python3 bench/run.py --workload transit_query --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the cluster is built from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it print
every metric with its unit and base. The full report (environment,
sizes, failures) goes to `bench/out/`, and a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HASH_SEED = "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # pin string hashing, and with it dict and set layout, so that speed
        # does not change from one process to the next; exec keeps the pid
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "geoshard").is_dir():
        print(f"error: no geoshard sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from geobench.runner import run
    from geobench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    report = run(w, args.seed, args.seconds, bool(args.trace), ROOT, ROOT / "bench" / "out")
    env = report["env"]
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("sizes " + " ".join(f"{k}={v}" for k, v in report["sizes"].items()))
    for text in report["failures"]:
        print(f"FAILED {text}")
    width = max(len(k) for k in report["metrics"])
    for name, m in report["metrics"].items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}  ({m['base']})")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
