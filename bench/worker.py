"""Run one workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
        [--budget SECONDS [--min-ops N] | --ops N] [--trace] [--setup-only]

The worker imports parlorproofs, builds its seeded operation stream, warms
up on small inputs of another seed and clears the library's caches, then
prints READY: the parent times set-up up to that line.  It then runs the
closed loop, one operation at a time, until the operations' own time
reaches --budget with at least --min-ops operations done, or until --ops
operations are done, and writes its result as JSON to DIR/result.json.
Only the library call of an operation is timed; generating its input and
checking its answer are not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from itertools import chain, islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from parlorproofs import deck, oracle  # noqa: E402

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LOOP_WALL_CAP_S = 100   # the loop stops here even if its budget is not met
WARM_UP_SEED = -1
# Small operations called before READY to load every code path, answers
# unchecked: one query-mix round, a few otherwise.
WARM_UP_OPS = {"oracle-natural": 2, "oracle-wild": 2, "query-mix": 80,
               "cli-cold": 2}
PROBE_RUNS = 5          # interpreter and import probes, median taken
SCALING_DECK = deck.DeckSpec(values=9, suits=4)


def clear_caches() -> None:
    """Empty every lru_cache in parlorproofs, as in a fresh CLI process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("parlorproofs"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_loop(rounds, budget=None, max_ops=None, tracer=None,
             min_ops=0) -> dict:
    """Run rounds of operations, one at a time, until their own time reaches
    `budget` with `min_ops` done at the end of a round, or until `max_ops`
    operations.  The gauge's kernel runs after every gauge.EVERY_S of
    operation time."""
    latency, units, stretches, errors, kinds = [], [], [], [], {}
    failed = busy = since_sample = 0
    start = perf_counter()
    speed = gauge.Gauge()
    stretch = speed.sample()
    root = tracer.open("bench.workload") if tracer else None
    for ops in rounds:
        if (budget is not None and busy >= budget
                and len(latency) >= min_ops) or \
                (max_ops is not None and len(latency) >= max_ops) or \
                perf_counter() - start > LOOP_WALL_CAP_S:
            break
        # What the earlier rounds left (the library's caches among it) is
        # moved out of the collector's reach, so that a collection inside an
        # operation scans this round's objects only; a full scan of the
        # whole heap, which the benchmark's own inputs and checks trigger as
        # often as the library does, would land in random operations.
        gc.collect()
        gc.freeze()
        for op in ops:
            if max_ops is not None and len(latency) >= max_ops:
                break
            if tracer:
                lookups = tracing.straight_runs_hits()
                tracer.request = len(latency)
                request = tracer.open("bench.request")
                inner = tracer.open(op.span) if op.span else None
            t0 = perf_counter()
            try:
                answer, error = op.call(), None
            except Exception as exc:  # a failed operation, counted and reported
                answer, error = None, f"{op.kind}: {exc!r}"
            elapsed = perf_counter() - t0
            if tracer:
                if inner is not None:
                    tracer.close(inner)
                tracer.close(request)
                tracer.request = None
                for i, (after, before) in enumerate(
                        zip(tracing.straight_runs_hits(), lookups)):
                    tracer.cache_lookups[i] += after - before
            if error is None:
                try:
                    error = op.check(answer)
                except Exception as exc:  # a check that cannot read the answer
                    error = f"{op.kind} check: {exc!r}"
            if error is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(error)
            latency.append(elapsed)
            units.append(op.units)
            stretches.append(stretch)
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            busy += elapsed
            since_sample += elapsed
            if since_sample >= gauge.EVERY_S:
                stretch, since_sample = speed.sample(), 0
    gc.unfreeze()
    speed.sample()
    if tracer:
        tracer.close(root)
    return {"attempted": len(latency), "failed": failed, "errors": errors,
            "latency_s": latency, "scaled_s": speed.scaled(latency, stretches),
            "units": units, "kinds": kinds, "busy_s": busy,
            "gauge_s": speed.samples, "wall_s": perf_counter() - start}


# --- probes of the traced run ---------------------------------------------------


def scaling_efficiency() -> float:
    """Speed-up of tally_all at 2 workers over 1, divided by 2."""
    t0 = perf_counter()
    one = oracle.tally_all(SCALING_DECK, workers=1)
    t1 = perf_counter()
    two = oracle.tally_all(SCALING_DECK, workers=2)
    t2 = perf_counter()
    if one != two:
        raise RuntimeError("tally_all differs between 1 and 2 workers")
    return (t1 - t0) / (2 * (t2 - t1))


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def _import_times(env, code: str) -> dict:
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    out = {}
    for line in done.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(4)] = int(m.group(1)) / 1000
    return out


def import_probe(env) -> dict:
    """Interpreter start-up and `import parlorproofs.cli` times (ms)."""
    bare = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, timeout=60,
                       check=True)
        bare.append((perf_counter() - t0) * 1000)
    startup = set(_import_times(env, "pass"))
    runs = [_import_times(env, "import parlorproofs.cli")
            for _ in range(PROBE_RUNS)]
    modules = sorted({m for run in runs for m in run} - startup)
    per_module = {m: statistics.median(run.get(m, 0.0) for run in runs)
                  for m in modules}
    own = [sum(t for m, t in run.items() if m.startswith("parlorproofs"))
           for run in runs]
    added = [sum(t for m, t in run.items() if m not in startup) for run in runs]
    return {"interpreter_ms": statistics.median(bare),
            "import_ms": statistics.median(own),
            "import_total_ms": statistics.median(added),
            "per_module_ms": per_module}


def traced_layers(main, seed, script) -> tuple:
    """Per-layer metrics from the main pass, probes for the rest."""
    main.uninstall()
    probe = tracing.Tracer()
    probe.install()
    try:
        probe_result = run_loop([workloads.probe_round(script, seed)],
                                tracer=probe)
    finally:
        probe.uninstall()
    layers = tracing.LayerMetrics(main, probe)
    table = layers.table()
    table["oracle.wild_subs_per_hand"] = layers.wild_subs_per_hand()
    hits, misses = main.cache_lookups if sum(main.cache_lookups) else \
        probe.cache_lookups
    table["hands.straight_runs.hit_ratio"] = hits / max(hits + misses, 1)
    table["oracle.scaling_eff_2w"] = scaling_efficiency()
    imports = import_probe(script.env)
    table["cli.interpreter_ms"] = imports["interpreter_ms"]
    table["cli.import_ms"] = imports["import_ms"]
    table["cli.import_total_ms"] = imports["import_total_ms"]
    missing = sorted(k for k, v in table.items() if v is None)
    if missing or probe_result["failed"]:
        raise RuntimeError(f"probes failed {probe_result['errors']}, "
                           f"no samples for {missing}")
    return table, imports["per_module_ms"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    script = workloads.CliScript(args.workdir, SRC)
    warm = chain.from_iterable(
        workloads.stream(args.workload, WARM_UP_SEED, script, small=True))
    for op in islice(warm, WARM_UP_OPS[args.workload]):
        try:
            op.call()
        except Exception:  # the timed loop counts and reports the failure
            pass
    clear_caches()
    ops = workloads.stream(args.workload, args.seed, script)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    result = run_loop(ops, args.budget, args.ops, tracer, args.min_ops)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["rss_mb"] = usage.ru_maxrss / 1024
    result["children_rss_mb"] = children.ru_maxrss / 1024
    if tracer:
        result["trace_coverage"] = tracer.coverage()
        result["trace_spans"] = len(tracer.spans)
        with open(os.path.join(args.workdir, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans},
                      handle)
        result["layers"], result["imports"] = traced_layers(
            tracer, args.seed, script)
    with open(os.path.join(args.workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
