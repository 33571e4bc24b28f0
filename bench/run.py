#!/usr/bin/env python3
"""iwaspectra benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The program under test
is the checkout's own src/iwaspectra; nothing needs to be built.

--trace 0 measures end to end.  The load is a closed loop with one client:
each call of the workload runs `python -m iwaspectra.cli ...` as a fresh
subprocess, interpreter start included, and the next call starts only after
the previous one has exited.  The calls repeat in the same order until
--seconds have passed (at least one whole pass runs), so each call is timed
several times.  Call times are summarised by their upper quartile, not their
median: on a shared 2-vCPU virtual machine a fixed piece of work runs up to
1.6 times faster for seconds at a time, how often that happens changes from
minute to minute, and the median of a run moves with it (see README.md).

--trace 1 runs the same calls in-process through iwaspectra.cli.main, first
untraced and then with every layer's public functions wrapped in spans (see
tracing.py), and reports per-layer counts and self times.

Every call is checked against the references recorded at the seed commit
(see checks.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the run's
context (seed, input digest, machine, tail percentile, failures).  The same
record is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CALL_TIMEOUT_S = 60
SETUP_SAMPLES = 20

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_s.p75", "s"),
    ("throughput", "work/s"),
    ("peak_rss_mb", "MB"),
]


class Outcome:
    __slots__ = ("call", "seconds", "exit", "digest", "stdout", "stderr")

    def __init__(self, call, seconds, exit_code, stdout: bytes, stderr: bytes):
        self.call = call
        self.seconds = seconds
        self.exit = exit_code
        self.digest = checks.stdout_digest(stdout)
        self.stdout = stdout if call.oracle else None   # kept only for the oracle checks
        self.stderr = stderr


def child_env() -> dict:
    # Bytecode caching stays on whatever the caller's environment says: an
    # installed CLI runs from cached bytecode, so no call should pay for
    # compiling the package.  Every call names its --format.
    dropped = ("IWASPECTRA_FORMAT", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_call(call, env, timeout=CALL_TIMEOUT_S) -> Outcome:
    """One CLI call in a fresh interpreter, from spawn to exit.  A call that
    outlives the timeout is killed and reaped, and has no exit code."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "iwaspectra.cli", *call.argv],
                              cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return Outcome(call, time.perf_counter() - start, None, exc.stdout or b"", exc.stderr or b"")
    return Outcome(call, time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)


def setup_once(env) -> float:
    """Wall time of a fresh interpreter that imports iwaspectra.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import iwaspectra.cli"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def run_cycle(calls, seconds, run_one, after_call=lambda elapsed: None):
    """The calls in order, over and over, until seconds have passed; always at
    least one whole pass.  Returns the outcomes in run order.  after_call runs
    between calls with the seconds elapsed so far."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < len(calls) or time.perf_counter() - start < seconds:
        outcomes.append(run_one(calls[len(outcomes) % len(calls)]))
        after_call(time.perf_counter() - start)
    return outcomes


def run_passes(calls, seconds, run_one):
    """Whole passes over calls while another pass still fits in seconds.
    Returns the outcomes and each pass's wall time, the sum of its calls'
    times."""
    outcomes, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall = 0.0
        for call in calls:
            outcomes.append(run_one(call))
            wall += outcomes[-1].seconds
        walls.append(wall)
    return outcomes, walls


def upper_quartile(values) -> float:
    """75th percentile, interpolated between the two nearest values; a call
    timed once (a run shorter than two passes) is its own quartile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def pass_wall(outcomes, calls_per_pass: int) -> float:
    """Wall time of one pass with every call at the upper quartile of its
    times over the run."""
    return sum(upper_quartile([o.seconds for o in outcomes[k::calls_per_pass]])
               for k in range(calls_per_pass))


def tail_level(samples: int) -> int:
    """Highest whole percentile with at least 10 of the run's call times
    beyond it (the median for runs of fewer than 20 calls)."""
    return max(50, math.floor(100 - 1000 / samples))


def nearest_rank(values, level: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level / 100 * len(ordered)) - 1)]


def failures(outcomes, references, oracles) -> list[str]:
    reasons = []
    for o in outcomes:
        reason = checks.check(o.call, o.exit, o.digest, o.stderr, o.stdout, references, oracles)
        if reason:
            reasons.append(f"{' '.join(o.call.argv)}: {reason}")
    return reasons


def end_to_end(calls, seconds, references, oracles) -> tuple[dict, list, int, dict]:
    env = child_env()
    setup_once(env)   # unmeasured: writes the bytecode caches
    # Set-up samples are spread evenly over the run, so that their median
    # sees the same machine as the calls do.
    setups = []

    def sample_setup(elapsed):
        if elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_once(env))

    outcomes = run_cycle(calls, seconds, lambda call: run_call(call, env), sample_setup)
    wall = pass_wall(outcomes, len(calls))
    latencies = [o.seconds for o in outcomes]
    level = tail_level(len(latencies))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "latency_s.p75": upper_quartile(latencies),
        "throughput": sum(c.work for c in calls) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    context = {"passes": len(outcomes) / len(calls), "latencies_s": latencies,
               "latency_samples": len(latencies),
               "setup_samples": len(setups),
               # Neither is a BENCHMARK.json metric: on a shared machine they
               # did not repeat within a tenth across seeds on every workload.
               "latency_p50_s": statistics.median(latencies),
               "latency_tail_s": nearest_rank(latencies, level), "tail_percentile": f"p{level}"}
    return metrics, failures(outcomes, references, oracles), len(outcomes), context


def traced(calls, seconds, references, oracles, roadmap: dict,
           spans_path: Path) -> tuple[dict, list, int, dict]:
    import iwaspectra.cli as cli

    import_s = tracing.measure_import(child_env(), ROOT)
    run_one = lambda call: Outcome(call, *tracing.run_inprocess(cli, call))  # noqa: E731
    plain, plain_walls = run_passes(calls, seconds / 3, run_one)
    outcomes, walls = list(plain), []
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        while len(walls) < len(plain_walls) and (not walls or time.perf_counter() - start < seconds):
            wall = 0.0
            for call in calls:
                tracer.call_id += 1
                outcomes.append(run_one(call))
                wall += outcomes[-1].seconds
            walls.append(wall)
    tracer.write_spans(spans_path)
    untraced_wall, traced_wall = statistics.median(plain_walls), statistics.median(walls)
    values = tracing.per_layer_metrics(tracer, len(walls), import_s,
                                       untraced_wall, traced_wall, roadmap)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    # Share of self time per layer, counting the import once per call as
    # every subprocess call pays it.
    self_s = {layer: values[f"{layer}.self_s"] for layer in tracing.LAYERS}
    self_s["import"] = import_s * len(calls)
    total = sum(self_s.values())
    context = {"untraced_passes": len(plain_walls), "traced_passes": len(walls),
               "spans_kept": tracer.spans_kept, "spans_dropped": tracer.dropped,
               "spans_file": str(spans_path),
               "layer_self_share": {k: round(v / total, 4) for k, v in
                                    sorted(self_s.items(), key=lambda kv: -kv[1])}}
    return metrics, failures(outcomes, references, oracles), len(outcomes), context


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(status.strip())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "iwaspectra" / "cli.py", ROOT / "corpus", ROOT / "tests" / "oracles.py",
              checks.REFERENCES)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a checkout of the repository, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    oracles = checks.load_oracles(ROOT)
    references = checks.load_references()

    tag = f"{args.workload}-s{args.seed}"
    calls = workloads.build(args.workload, args.seed, OUT / "inputs" / tag, ROOT / "corpus")
    if args.trace:
        metrics, failed, attempted, context = traced(
            calls, args.seconds, references, oracles, tracing.roadmap_figures(oracles),
            OUT / f"spans-{tag}.tsv")
    else:
        metrics, failed, attempted, context = end_to_end(calls, args.seconds, references, oracles)

    rev, dirty = git_state()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "calls_per_pass": len(calls),
        "inputs_sha256": hashlib.sha256("".join(c.key for c in calls).encode()).hexdigest(),
        "throughput_unit": workloads.WORKLOADS[args.workload].throughput_unit,
        "fail_ratio": len(failed) / attempted, "failures": failed[:20],
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_rev": rev, "git_dirty": dirty, **context,
    }
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    (OUT / f"result-{tag}-t{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
