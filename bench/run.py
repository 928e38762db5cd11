"""Benchmark of parlorproofs, measured from outside the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one closed-loop client (the next request is sent when the
previous one has returned) in a fresh worker process, so the library's
caches start cold as they do for a CLI user.  Every answer is checked
against bench/reference.py; a wrong answer or an exception is a failed
operation.  Workloads:

  oracle-natural  verify_closed_forms over the standard deck and seeded
                  wild-free decks (V 5..13, S 2..6, both ace rules): the
                  enumeration and its classifier do nearly all the work.
  oracle-wild     tally_all over the two golden wild decks and seeded decks
                  with W 1..3: wild substitution does the work.
  query-mix       many small library requests over many decks (hands,
                  counts with Zipf-repeated and fresh V, proofs, winners,
                  graphs of 10..40k edges, rubrics, in-process CLI): per-deck
                  caches and O(V) work show here, the oracle is never called.
  cli-cold        `python -m parlorproofs.cli ...` subprocesses, one at a
                  time: interpreter start, import and argparse show here.

With --trace 0 the last line holds the end-to-end metrics:

  setup_s          median over SETUP_RUNS fresh workers of the time from
                   process start to READY (import, inputs, warm-up)
  ops_per_s        operations per second of the operations' own time: an
                   operation is one hand on oracle-* (hands_per_s) and one
                   request on query-mix and cli-cold (requests_per_s)
  latency_p50_ms   median time of one library call: one deck on oracle-*,
                   one request otherwise
  latency_tail_ms  p99 on query-mix, p90 elsewhere (a run goes on past
                   its time until ten samples lie beyond it)
  peak_rss_mb      ru_maxrss of the worker; of its CLI children on cli-cold

Every time above is scaled by the speed gauge of bench/gauge.py to a
machine of nominal speed, so that the figures of runs made while the
machine is slower or faster can be compared; the table also shows the
unscaled figures.  Runs end at the end of a round, so that every run holds
whole rounds of the same mix of work.  error_rate, failed / attempted, is
printed in the table; both counts are in the result line.

With --trace 1 an untraced worker runs for half the time, then a traced
worker replays the same operations with a span around each call into the
library.  The spans go to .bench-trace/WORKLOAD-SEED.json; the last line
holds the per-layer metrics, among them trace.overhead_pct, the traced
time over the untraced time of the same operations, and
trace.self_coverage, the share of the requests' time that the spans of
library calls cover.  A layer the workload does not call is measured by a
short probe of seeded calls after the main pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("oracle-natural", "oracle-wild", "query-mix", "cli-cold")
ORACLE = ("oracle-natural", "oracle-wild")
TAIL = {"query-mix": 0.99}  # percentile of latency_tail_ms; 0.90 elsewhere
SETUP_RUNS = 7
TRACE_DIR = os.path.join(ROOT, ".bench-trace")
DEADLINE_S = 170


def per_layer_units() -> dict:
    """Unit of each per-layer metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, workdir, deadline, *extra) -> tuple:
    """Run one worker; (set-up seconds, result dict or None)."""
    command = [sys.executable, WORKER, "--workload", workload, "--seed",
               str(seed), "--workdir", workdir, *extra]
    # Bytecode is cached in the work directory, as an installed package has
    # it, whatever the caller's PYTHONDONTWRITEBYTECODE says.  A fixed hash
    # seed gives the worker and its CLI children the same dict and set
    # layouts in every run.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    # Kills a worker that outlives the deadline, even before READY.
    timer = threading.Timer(max(deadline - perf_counter(), 1), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"{workload} worker exited with {code}")
    if "--setup-only" in extra:
        return setup, None
    with open(result_path, encoding="utf-8") as handle:
        return setup, json.load(handle)


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[rank], len(ordered) - rank - 1


def machine_facts() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            commit = commit.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit}


def end_to_end(workload, setups, result) -> tuple:
    """(metrics for the result line, rows of the readable table)."""
    latency, raw = result["scaled_s"], result["latency_s"]
    q = TAIL.get(workload, 0.90)
    tail, beyond = percentile(latency, q)
    rss = result["children_rss_mb" if workload == "cli-cold" else "rss_mb"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(result["units"]) / sum(latency), "op/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    rate = ("hands_per_s", "hands/s") if workload in ORACLE else \
        ("requests_per_s", "req/s")
    rows = [("setup_s", metrics["setup_s"][0], "s",
             f"median of {len(setups)} set-ups"),
            (rate[0], metrics["ops_per_s"][0], rate[1],
             f"{sum(result['units'])} in {sum(latency):.3f} s; "
             f"{sum(result['units']) / sum(raw):.6g} unscaled"),
            ("latency_p50_ms", metrics["latency_p50_ms"][0], "ms",
             f"of {len(latency)} "
             f"{'deck calls' if workload in ORACLE else 'requests'}; "
             f"{statistics.median(raw) * 1e3:.6g} unscaled"),
            (f"latency_p{round(q * 100)}_ms", tail * 1e3, "ms",
             f"{beyond} samples beyond it; "
             f"{percentile(raw, q)[0] * 1e3:.6g} unscaled"),
            ("peak_rss_mb", rss, "MB",
             "CLI children" if workload == "cli-cold" else "worker"),
            ("error_rate", result["failed"] / result["attempted"], "ratio",
             f"{result['failed']} failed / {result['attempted']} attempted"),
            ("gauge kernel", statistics.median(result["gauge_s"]) * 1e3, "ms",
             f"median of {len(result['gauge_s'])} samples; "
             f"{gauge.NOMINAL_S * 1e3:g} ms is nominal")]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, rows


def per_layer(untraced, traced) -> tuple:
    units = per_layer_units()
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = (
        sum(traced["scaled_s"]) / sum(untraced["scaled_s"]) - 1) * 100
    layers["trace.self_coverage"] = traced["trace_coverage"]
    layers["trace.spans"] = traced["trace_spans"]
    rows = [(name, value, units[name], "")
            for name, value in sorted(layers.items())]
    rows.append(("requests' share of traced wall time",
                 traced["busy_s"] / traced["wall_s"], "ratio",
                 "the rest: inputs, answer checks, speed gauge"))
    rows += [(f"import {m}", ms, "ms", "self, -X importtime")
             for m, ms in sorted(traced["imports"].items(),
                                 key=lambda kv: -kv[1])[:15]]
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}, rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "parlorproofs", "__init__.py")):
        print(f"no parlorproofs sources under {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        common = (args.workload, args.seed, workdir, deadline)
        if args.trace:
            _, untraced = spawn(*common, "--budget", str(args.seconds / 2))
            _, traced = spawn(*common, "--ops", str(untraced["attempted"]),
                              "--trace")
            result = traced
            metrics, rows = per_layer(untraced, traced)
            os.makedirs(TRACE_DIR, exist_ok=True)
            spans = os.path.join(TRACE_DIR, f"{args.workload}-{args.seed}.json")
            os.replace(os.path.join(workdir, "spans.json"), spans)
            rows.append(("spans written", traced["trace_spans"], "",
                         os.path.relpath(spans, ROOT)))
        else:
            speed = gauge.Gauge()
            stretches = [speed.sample()]
            setups = []
            for _ in range(SETUP_RUNS):
                setups.append(spawn(*common, "--setup-only")[0])
                stretches.append(speed.sample())
            setups = speed.scaled(setups, stretches)
            # Enough operations that ten samples lie beyond the tail
            # percentile, however slow the machine runs.
            tail_ops = math.ceil(10 / (1 - TAIL.get(args.workload, 0.90)))
            _, result = spawn(*common, "--budget", str(args.seconds),
                              "--min-ops", str(tail_ops))
            metrics, rows = end_to_end(args.workload, setups, result)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# machine {json.dumps(machine_facts())}")
    print(f"# {args.workload} seed {args.seed}, trace {args.trace}: closed "
          f"loop, 1 client, fresh process; operations {result['kinds']}")
    for name, value, unit, note in rows:
        print(f"#   {name:<42} {value:>14.6g} {unit:<8} {note}")
    for error in result["errors"]:
        print(f"# failed: {error}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
