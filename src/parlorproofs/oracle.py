"""Brute-force ground truth: tally the categories of all 5-card hands by
enumeration, one hand per suit-isomorphism class.

A suit relabeling changes no category, so one hand per orbit of the suit
permutations is classified and weighted by its orbit size.  The walk takes
a hand's natural values in ascending order, starting from its lowest, and
carries the cells of suits that the held cards do not tell apart, as
(first suit, size); before any card is held that is the single cell (1, S).
Holding the next value in the first a suits of a cell of n stands for
C(n, a) choices, and the cell splits into its taken and untaken suits.  The
lowest value is split like every other: held in suits 1..t, for C(S, t)
choices.  Once every cell is a single suit no symmetry is left, and the
rest of the hand is drawn from the cards above.  The standard deck
classifies 134,459 hands instead of 2,598,960.
A hand holding k of the W wilds is a natural (5-k)-subset met on that walk
together with any of C(W, k) wild k-subsets, so it is weighted by C(W, k) as
well; the C(W, 5) all-wild hands are added once.  Natural hands are
classified by `hands.classify_pairs`, the classifier behind `classify`, and
wild hands by `hands.best_completion`.  Every weight counts suit choices and
wild subsets, never a closed form.
In one process a single task walks every lowest value; in a process pool
each lowest value is a task, taken by whichever worker is free.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import NamedTuple

from .deck import DeckSpec, binomial
from .errors import InputError, render_int
from .hands import HandCategory, best_completion, classify_pairs, count_category

ENUMERATION_CAP = 10 ** 8


class EnumerationCapError(InputError):
    """The deck's hand count exceeds ENUMERATION_CAP."""


def _tally_task(spec: DeckSpec, lowest: range) -> dict:
    """Tally the hands whose lowest natural value is in `lowest`, one hand
    per orbit of the suit permutations that fix the held cards."""
    V, S, W = spec.values, spec.suits, spec.wilds
    tallies = dict.fromkeys(HandCategory, 0)
    splits = {}

    def split(cells: tuple, room: int) -> list:
        # Every way to hold the next value in 1..room suits: the first a of
        # the suits of each cell of n, for C(n, a) suit choices; the cell
        # splits into its a taken and n - a untaken suits.
        if (cells, room) not in splits:
            parts = [(0, 1, (), ())]
            for first, n in cells:
                parts = [(taken + a, choices * binomial(n, a),
                          suits + tuple(range(first, first + a)),
                          refined + ((first, a), (first + a, n - a)))
                         for taken, choices, suits, refined in parts
                         for a in range(min(n, room - taken) + 1)]
            splits[cells, room] = [
                (choices, suits, tuple(cell for cell in refined if cell[1]))
                for taken, choices, suits, refined in parts if taken]
        return splits[cells, room]

    # Each node holds some cards, the highest of value u, and the cells of
    # the suits that those cards do not tell apart; its weight counts the
    # suit choices that it stands for.
    nodes = [(tuple([(v, s) for s in suits]), v, refined, choices)
             for v in lowest
             for choices, suits, refined in split(((1, S),), 5)]
    while nodes:
        held, u, cells, weight = nodes.pop()
        room = 5 - len(held)
        if room == 0:
            tallies[classify_pairs(held, spec)] += weight
            continue
        if room <= W:
            tallies[best_completion(held, room, spec)] += \
                weight * binomial(W, room)
        if len(cells) == S:  # every suit is told apart: no symmetry is left
            above = [(x, s) for x in range(u + 1, V + 1)
                     for s in range(1, S + 1)]
            for combo in combinations(above, room):
                tallies[classify_pairs(held + combo, spec)] += weight
            for k in range(1, min(W, room - 1) + 1):
                wild_weight = weight * binomial(W, k)
                for combo in combinations(above, room - k):
                    tallies[best_completion(held + combo, k, spec)] += \
                        wild_weight
            continue
        for x in range(u + 1, V + 1):
            for choices, suits, refined in split(cells, room):
                nodes.append((held + tuple([(x, s) for s in suits]), x,
                              refined, weight * choices))
    return tallies


def tally_all(spec: DeckSpec, workers: int = 1) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    The hands are walked value by value from their lowest natural value,
    splitting the suits that the held cards do not tell apart, so one hand
    per suit-isomorphism class is classified, weighted by the suit choices
    that the class stands for.
    With workers > 1 each lowest natural value is one task, and whichever
    pool process is free takes the next; the tasks differ in cost, so no
    split is planned ahead.  At most min(workers, V, CPU count) processes
    start; when that is 1 one task walks every value in this process.
    Results are bit-identical for any worker count.
    """
    total = binomial(spec.size, 5)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"enumerating {render_int(total)} hands exceeds the cap of "
            f"{ENUMERATION_CAP}"
        )

    values = range(1, spec.values + 1)
    processes = min(workers, len(values), os.cpu_count() or 1)
    tallies = dict.fromkeys(HandCategory, 0)
    if processes <= 1:
        parts = [_tally_task(spec, values)]
    else:
        # Imported here, so that a run without a pool never pays for it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_tally_task, [spec] * len(values),
                                  [range(v, v + 1) for v in values]))
    for part in parts:
        for cat, count in part.items():
            tallies[cat] += count
    if spec.wilds >= 5:  # the hands without a natural card
        tallies[best_completion((), 5, spec)] += binomial(spec.wilds, 5)
    return tallies


class VerificationRow(NamedTuple):
    category: HandCategory
    closed_form: int
    oracle: int

    @property
    def ok(self) -> bool:
        return self.closed_form == self.oracle


class VerificationReport(NamedTuple):
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
