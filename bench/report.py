#!/usr/bin/env python3
"""Run every workload once and print each metric by name and unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through run.py exactly as BENCHMARK.json's command does;
the failures column is failed over attempted calls.  Exits 1 when a run
fails or reports a failed call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every workload once.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
            status = 1
            continue
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        status |= result["failed"] > 0
        print(f"{name}: failures {result['failed']}/{result['attempted']}, "
              f"throughput in {info['throughput_unit']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:50s} {v['value']:12.6g} {v['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
