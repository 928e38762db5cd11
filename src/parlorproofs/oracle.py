"""Brute-force ground truth: tally the categories of all 5-card hands by
enumeration, one classifier call per class of hands that no category tells
apart.

The one assumption: a category depends on the suits only through whether
all the natural cards share one suit.  So a hand's class is its multiset of
natural values together with that one bit.  The walk takes the values in
ascending order, starting from the lowest: a node holds value x in its
first a suits, for C(S, a) suit choices, and its `ways` is the product of
those choices over its values.  A complete hand, or one short of at most W
cards, is classified once per class.  When its values are all distinct,
the all-suit-1 cards stand for the S one-suit choices, and the same cards
with the lowest in suit 2 for the other ways - S; otherwise its own cards
stand for all its ways.  The standard deck makes 7,462 classifier calls
instead of 2,598,960.
A hand holding k of the W wilds is a natural (5-k)-subset met on that walk
together with any of C(W, k) wild k-subsets, so it is weighted by C(W, k) as
well; the C(W, 5) all-wild hands are added once.  Natural hands are
classified by `hands.classify_pairs`, the classifier behind `classify`, and
wild hands by `hands.best_completion`.  Every weight counts suit choices and
wild subsets, never a closed form.
`tally_all` measures the work by the deck's class bound B alone: B above
ENUMERATION_CAP refuses the deck, and from B = POOL_CLASSES on each lowest
value is a task of a process pool, taken by whichever worker is free.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library, and the assumption above by the tests, which
tally small decks hand by hand with the former.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

from .deck import DeckSpec, binomial
from .errors import InputError, render_int
from .hands import (HandCategory, best_completion, classify_pairs,
                    count_category, require_printable)

# Class bounds: the largest walked (under 4 s in one process), and the
# least from which a process pool pays for its start-up.
ENUMERATION_CAP = 2_200_000
POOL_CLASSES = 30_000


class EnumerationCapError(InputError):
    """The deck's class bound B exceeds ENUMERATION_CAP."""


def _tally_task(spec: DeckSpec, lowest: range) -> dict:
    """Tally the hands whose lowest natural value is in `lowest`, one
    classifier call per class of hands."""
    V, S, W = spec.values, spec.suits, spec.wilds
    tallies = dict.fromkeys(HandCategory, 0)
    wild_ways = [binomial(W, k) for k in range(6)]
    # holds[x]: value x held in suits 1..a, with its C(S, a) suit choices,
    # for a = 1..min(S, 5).
    holds = [[(tuple([(x, s) for s in range(1, a + 1)]), binomial(S, a))
              for a in range(1, min(S, 5) + 1)] for x in range(V + 1)]
    # Each node holds the cards of its values, the highest u; `single` says
    # that every value is held once.
    nodes = [(cards, v, ways, len(cards) == 1)
             for v in lowest for cards, ways in holds[v]]
    while nodes:
        held, u, ways, single = nodes.pop()
        room = 5 - len(held)
        if room <= W:
            classes = ((held, ways),)
            if single and ways > S:  # in one suit, or the lowest apart
                apart = ((held[0][0], 2),) + held[1:]
                classes = ((held, S), (apart, ways - S))
            for cards, weight in classes:
                category = (best_completion(cards, room, spec) if room
                            else classify_pairs(cards, spec))
                tallies[category] += weight * wild_ways[room]
            if not room:
                continue
        for x in range(u + 1, V + 1):
            for cards, choices in holds[x][:room]:
                nodes.append((held + cards, x, ways * choices,
                              single and len(cards) == 1))
    return tallies


def tally_all(spec: DeckSpec, workers: Optional[int] = None) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    The hands are walked over multisets of natural values, lowest value
    first, and one hand is classified per multiset and per "all in one
    suit or not", weighted by the suit choices that the class stands for.
    A deck of V values and W wilds has at most B = Σ 2·C(V + 4 - k, 5 - k)
    classes, k = 0..min(W, 4); it is refused when B exceeds ENUMERATION_CAP,
    and then when its counts could not be printed (`require_printable`).
    From B = POOL_CLASSES on, whichever of min(V, CPU count, workers) pool
    processes is free takes the next lowest natural value as a task, since
    the tasks differ in cost; otherwise one task walks every value in this
    process.  Results are bit-identical.
    """
    V, W = spec.values, spec.wilds
    bound = sum(2 * binomial(V + 4 - k, 5 - k) for k in range(min(W, 4) + 1))
    if bound > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"the deck's class bound B = {render_int(bound)} exceeds the cap "
            f"of {ENUMERATION_CAP}")
    require_printable(spec)  # the classes' weights grow with S and W
    cpus = (os.cpu_count() or 1) if bound >= POOL_CLASSES else 1
    processes = min(V, cpus, cpus if workers is None else workers)
    tallies = dict.fromkeys(HandCategory, 0)
    if processes <= 1:
        parts = [_tally_task(spec, range(1, V + 1))]
    else:
        # Imported here, so that a run without a pool never pays for it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_tally_task, [spec] * V,
                                  [range(v, v + 1) for v in range(1, V + 1)]))
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


def verify_closed_forms(spec: DeckSpec) -> VerificationReport:
    """Compare closed-form counts against the enumeration, per category.

    A deck too large to print is refused first, then a wild deck, which
    has no closed forms, both before any enumeration.
    """
    require_printable(spec)
    closed = [count_category(cat, spec) for cat in HandCategory]
    tallies = tally_all(spec)
    rows = tuple(
        VerificationRow(cat, count, tallies[cat])
        for cat, count in zip(HandCategory, closed)
    )
    return VerificationReport(spec, rows, sum(tallies.values()))
