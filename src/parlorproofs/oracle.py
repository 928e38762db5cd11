"""Brute-force ground truth: tally the categories of all 5-card hands by
enumeration.

The hands are split into tasks (v, t): v is the lowest value among a hand's
natural cards and t the number of suits in which it holds v.  A suit
permutation that maps those t suits onto suits 1..t keeps every card above v
above v and keeps every category, so each task enumerates only the hands
holding (v, 1)..(v, t), with the rest drawn from the natural cards above v,
and weights each by the C(S, t) choices of suits.  A hand holding k of the W
wilds is one of those natural subsets together with any of C(W, k) wild
k-subsets, so it is weighted by C(W, k) as well; the C(W, 5) all-wild hands
are added once.  Natural hands are classified by `hands.classify_pairs`, the
classifier behind `classify`, and wild hands by `hands.best_completion`.
Every weight counts suit choices and wild subsets, never a closed form.
In a process pool each task is taken by whichever worker is free.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .deck import DeckSpec, binomial
from .errors import InputError, render_int
from .hands import HandCategory, best_completion, classify_pairs, count_category

ENUMERATION_CAP = 10 ** 8


class EnumerationCapError(InputError):
    """The deck's hand count exceeds ENUMERATION_CAP."""


def _tally_task(spec: DeckSpec, v: int, t: int) -> dict:
    """Tally the hands whose lowest natural value v is held in t suits."""
    low = tuple((v, s) for s in range(1, t + 1))
    above = [(u, s) for u in range(v + 1, spec.values + 1)
             for s in range(1, spec.suits + 1)]
    orbit = binomial(spec.suits, t)
    tallies = dict.fromkeys(HandCategory, 0)

    for combo in combinations(above, 5 - t):
        tallies[classify_pairs(low + combo, spec)] += orbit
    for k in range(1, min(spec.wilds, 5 - t) + 1):
        weight = orbit * binomial(spec.wilds, k)
        for combo in combinations(above, 5 - t - k):
            tallies[best_completion(low + combo, k, spec)] += weight
    return tallies


def tally_all(spec: DeckSpec, workers: int = 1) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    One task per lowest natural value v and number t of suits holding it;
    a suit permutation that moves those t suits onto 1..t changes no
    category, so each task enumerates suits 1..t of v and weights by C(S, t).
    With workers > 1 whichever pool process is free takes the next task; the
    tasks differ in cost, so no split is planned ahead.  At most
    min(workers, V*min(S, 5), CPU count) processes start; when that is 1 the
    enumeration runs in this process.  Results are bit-identical for any
    worker count.
    """
    total = binomial(spec.size, 5)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"enumerating {render_int(total)} hands exceeds the cap of "
            f"{ENUMERATION_CAP}"
        )

    tasks = [(v, t) for v in range(1, spec.values + 1)
             for t in range(1, min(spec.suits, 5) + 1)]
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    tallies = dict.fromkeys(HandCategory, 0)
    if processes <= 1:
        parts = [_tally_task(spec, v, t) for v, t in tasks]
    else:
        # Imported here, so that a run without a pool never pays for it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_tally_task, [spec] * len(tasks),
                                  *zip(*tasks)))
    for part in parts:
        for cat, count in part.items():
            tallies[cat] += count
    if spec.wilds >= 5:  # the hands without a natural card
        tallies[best_completion((), 5, spec)] += binomial(spec.wilds, 5)
    return tallies


@dataclass(frozen=True)
class VerificationRow:
    category: HandCategory
    closed_form: int
    oracle: int

    @property
    def ok(self) -> bool:
        return self.closed_form == self.oracle


@dataclass(frozen=True)
class VerificationReport:
    spec: DeckSpec
    rows: tuple
    total: int

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def render_text(self) -> str:
        lines = [
            f"deck: {self.spec.values} values x {self.spec.suits} suits, "
            f"ace rule {self.spec.ace_rule.value}",
            f"hands enumerated: {self.total}",
        ]
        for row in self.rows:
            status = "PASS" if row.ok else "FAIL"
            lines.append(f"{status}  {row.category.label:<16} "
                         f"closed form {row.closed_form:>10}  "
                         f"oracle {row.oracle:>10}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["category,closed_form,oracle,status"]
        for row in self.rows:
            lines.append(f"{row.category.slug},{row.closed_form},{row.oracle},"
                         + ("pass" if row.ok else "fail"))
        return "\n".join(lines)


def verify_closed_forms(spec: DeckSpec, workers: int = 1) -> VerificationReport:
    """Compare closed-form counts against the enumeration, per category.

    The closed forms come first, so a wild deck, which has none, is refused
    before any enumeration.
    """
    closed = [count_category(cat, spec) for cat in HandCategory]
    tallies = tally_all(spec, workers=workers)
    rows = tuple(
        VerificationRow(cat, count, tallies[cat])
        for cat, count in zip(HandCategory, closed)
    )
    return VerificationReport(spec, rows, sum(tallies.values()))
