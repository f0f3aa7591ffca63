"""Print every metric of every workload, each with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 35]

For each workload this makes one untraced run (the end-to-end metrics and
checks_failed_frac) and one traced run (the per-layer metrics), the same
runs `run.py` makes, and prints one row per metric.
"""

import argparse
import sys

import run
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                result, info = run.run(workload, args.seed, args.seconds, trace,
                                       log=lambda *_: None)
                for name, metric in result["metrics"].items():
                    print(f"{workload:18} {name:34} {metric['value']:>16.6g} {metric['unit']}")
                if not trace:
                    print(f"{workload:18} {'checks_failed_frac':34} "
                          f"{info['checks_failed_frac']:>16.6g} ratio "
                          f"({result['failed']} of {result['attempted']})")
            sys.stdout.flush()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
