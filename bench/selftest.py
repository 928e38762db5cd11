"""Self-test of the benchmark: run every workload on small inputs and show
that right answers pass and a deliberately wrong answer is counted as a
failed operation.

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from itertools import chain, islice
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from parlorproofs import hands, oracle  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

OPS = {"oracle-natural": 4, "oracle-wild": 4, "query-mix": 160, "cli-cold": 9}

# Fault planted in the CLI subprocesses: every pair count is one too high.
CLI_FAULT = """\
import parlorproofs.hands as hands
_count = hands.count_category
def count_category(category, spec):
    return _count(category, spec) + (category is hands.HandCategory.PAIR)
hands.count_category = count_category
"""


original_tally_all = oracle.tally_all
original_count_category = hands.count_category


def wrong_tally_all(spec, *args, **kwargs):
    tallies = dict(original_tally_all(spec, *args, **kwargs))
    tallies[hands.HandCategory.PAIR] += 1
    return tallies


def wrong_count_category(category, spec):
    return original_count_category(category, spec) + (
        category is hands.HandCategory.PAIR)


def run(name: str, script, tracer=None) -> dict:
    ops = chain.from_iterable(workloads.stream(name, 7, script, small=True))
    return worker.run_loop([list(islice(ops, OPS[name]))], tracer=tracer)


# Spans a traced run must hold, and spans it must not: cli-cold checks its
# answers with an in-process cli.run, which is not part of the workload.
TRACED = {"oracle-natural": ({"oracle.verify_closed_forms", "oracle.tally_all"},
                             set()),
          "cli-cold": ({"cli.subprocess"}, {"cli.run", "hands.count_category"})}


def faulty(name: str, script, workdir: str):
    """A context in which the library gives `name` wrong answers."""
    if name.startswith("oracle"):
        return mock.patch.object(oracle, "tally_all", wrong_tally_all)
    if name == "query-mix":
        return mock.patch.object(hands, "count_category", wrong_count_category)
    fault_dir = os.path.join(workdir, "fault")
    os.makedirs(fault_dir, exist_ok=True)
    with open(os.path.join(fault_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as handle:
        handle.write(CLI_FAULT)
    env = dict(script.env, PYTHONPATH=os.pathsep.join([fault_dir, SRC]))
    return mock.patch.object(script, "env", env)


def main() -> int:
    problems = []
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        script = workloads.CliScript(workdir, SRC)
        for name in workloads.WORKLOADS:
            clean = run(name, script)
            with faulty(name, script, workdir):
                broken = run(name, script)
            print(f"{name}: {clean['failed']}/{clean['attempted']} failed, "
                  f"{broken['failed']}/{broken['attempted']} with a fault")
            if clean["failed"] or clean["attempted"] != OPS[name]:
                problems.append(f"{name}: {clean['errors']}")
            if not broken["failed"]:
                problems.append(f"{name}: a wrong answer passed its check")

        before = oracle.tally_all
        for name, (wanted, unwanted) in TRACED.items():
            tracer = tracing.Tracer()
            tracer.install()
            traced = run(name, script, tracer)
            tracer.uninstall()
            names = {span[0] for span in tracer.spans}
            if traced["failed"] or not wanted <= names or names & unwanted:
                problems.append(f"tracing {name}: spans {sorted(names)}")
        if oracle.tally_all is not before:
            problems.append("tracing: uninstall left a wrapper behind")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
