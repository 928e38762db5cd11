"""Brute-force ground truth: tally the categories of all 5-card hands by
enumeration, one classifier call per class of hands that no category tells
apart.

The one assumption: a category depends on the suits only through whether
all the natural cards share one suit.  So a hand's class is its multiset of
natural values together with that one bit.  A class splits into R, its
repeated values, each value x held a times in suits 1..a for C(S, a) suit
choices, and T, its values held once, in suit 1.  Python loops walk R:
the count a of its lowest value p and maybe the count b of a higher q, then
p and q; `itertools.combinations` draws T from the values outside R, and
`map` hands each class to a classifier.  Each Python step, one p or one
(p, q), holds at least one class: with no value repeated, p runs only up to
V - n + 1, and a shape with T empty, (2, 3), (3, 2) or (2, 2) with a
wild, takes one step per p, `map` joining p's block to each higher q's.
The classes of one shape, (a, b, |T|), are one stream, each standing for
the same Π C(S, a)·S^|T| suit choices.  With no value repeated, the
all-suit-1 cards stand for the S one-suit choices, and the same cards with
the lowest in suit 2 for the other S^n - S.  The standard deck makes 7,462
classifier calls instead of 2,598,960 in 159 Python steps.
A hand holding k of the W wilds is a natural (5-k)-subset so drawn together
with any of C(W, k) wild k-subsets, so it is weighted by C(W, k) as well;
the C(W, 5) all-wild hands are added once.  Natural hands are classified by
`hands.classify_pairs`, the classifier behind `classify`, and wild hands by
`hands.best_completion`.  Every weight counts suit choices and wild
subsets, never a closed form.
`tally_all` measures the work by `class_count`, the calls counted from the
shapes: above ENUMERATION_CAP it refuses the deck, and from POOL_CLASSES
on each value p is a task of a process pool, taken by whichever is free.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library, and the assumption above by the tests, which
tally small decks hand by hand with the former.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain, combinations, repeat
from typing import NamedTuple, Optional

from .deck import DeckSpec, binomial
from .errors import InputError, render_int
from .hands import (CATEGORIES, HandCategory, best_completion,
                    classify_pairs, count_category, require_printable)

# Class counts: DeckSpec(39, 5, wilds=5)'s, the largest walked (2.1-2.8 s
# in one process on 2 CPUs), and the least from which a pool pays for itself.
ENUMERATION_CAP = 1_753_896
POOL_CLASSES = 30_000


class EnumerationCapError(InputError):
    """The deck's class count exceeds ENUMERATION_CAP."""


def class_count(spec: DeckSpec) -> int:
    """The classifier calls `tally_all` makes: per n natural cards, C(V, n)
    classes without a repeated value (twice when S > 1 and n > 1), and per
    shape of repeated values (a) or (a, b) its choices of p (and q) and T."""
    V, S, W = spec.values, spec.suits, spec.wilds
    count = int(W >= 5)  # the all-wild hand
    for n in range(max(1, 5 - W), 6):
        count += binomial(V, n) * (2 if S > 1 and n > 1 else 1)
        for a in range(2, min(S, n) + 1):
            count += V * binomial(V - 1, n - a)
            for b in range(2, min(S, n - a) + 1):
                count += binomial(V, 2) * binomial(V - 2, n - a - b)
    return count


def _tally_task(spec: DeckSpec, lowest: range) -> dict:
    """Tally the hands whose lowest repeated natural value, or with none
    repeated their lowest, is in `lowest`, one classifier call per class."""
    V, S, W = spec.values, spec.suits, spec.wilds
    tallies = dict.fromkeys(CATEGORIES, 0)
    singles = [(x, 1) for x in range(V + 1)]  # singles[x]: x in suit 1
    # blocks[a][x]: x in suits 1..a, for the 2 <= a <= min(S, 5) a hand can
    # hold, each block one card longer than the last (a third of the time of
    # zipping each anew); others[p]: every value but p, in suit 1, read only
    # by a repeated value's streams, so built only when S > 1.
    blocks, held = {}, [((x, 1),) for x in range(V + 1)]
    for a in range(2, min(S, 5) + 1):
        held = blocks[a] = [block + ((x, a),) for x, block in enumerate(held)]
    others = {p: singles[1:p] + singles[p + 1:]
              for p in (lowest if S > 1 else ())}

    def upto(last):  # the values of `lowest` up to `last`
        return range(lowest.start, min(lowest.stop, last + 1))

    def drawn(n, parts):  # each held with each subset of its rest, n cards
        return chain.from_iterable(
            map(held.__add__, combinations(rest, n - len(held)))
            for held, rest in parts)

    def tally(n, ways, hands):
        # Hands of n natural cards, each of `ways` suit choices and
        # C(W, 5 - n) wild subsets.
        weight = ways * binomial(W, 5 - n)
        if weight:
            categories = (
                map(best_completion, hands, repeat(5 - n), repeat(spec))
                if n < 5 else map(classify_pairs, hands, repeat(spec)))
            for category, count in Counter(categories).items():
                tallies[category] += count * weight

    # One stream per shape of class, each over the p in `lowest` that hold
    # one of its classes: a Python step stands for one or more classes.
    for n in range(max(1, 5 - W), 6):  # natural cards per hand
        # No value repeated, p the lowest: in one suit, or p apart.
        for ways, suit in ((S, 1), (S ** n - S, 2)):
            tally(n, ways, drawn(n, ((((p, suit),), singles[p + 1:])
                                     for p in upto(V - n + 1))))
        # p the lowest repeated value, in suits 1..a, maybe with a higher q
        # in suits 1..b; the other values are held once, in suit 1.
        for a in range(2, min(S, n) + 1):
            ways = binomial(S, a)
            if n - a < V:  # p has n - a other values to hold once
                tally(n, ways * S ** (n - a),
                      drawn(n, ((blocks[a][p], others[p]) for p in lowest)))
            for b in range(2, min(S, n - a) + 1):
                pair_ways = ways * binomial(S, b) * S ** (n - a - b)
                if a + b == n:  # none held once: p's block with each q's
                    tally(n, pair_ways, chain.from_iterable(
                        map(blocks[a][p].__add__, blocks[b][p + 1:])
                        for p in upto(V - 1)))
                elif V > 2:  # (2, 2) and a third value held once
                    tally(n, pair_ways, drawn(n, (
                        (blocks[a][p] + blocks[b][q],
                         singles[1:p] + singles[p + 1:q] + singles[q + 1:])
                        for p in upto(V - 1) for q in range(p + 1, V + 1))))
    return tallies


def tally_all(spec: DeckSpec, workers: Optional[int] = None) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    One hand is classified per multiset of natural values and per "all in
    one suit or not", weighted by the suit choices it stands for: a loop
    walks the repeated values, and `itertools.combinations` draws the ones
    held once.
    A deck is refused when its `class_count` exceeds ENUMERATION_CAP, and
    then when its counts could not be printed (`require_printable`).
    From POOL_CLASSES classes on, whichever of min(V, CPU count, workers) pool
    processes is free takes the next value v as a task: the classes whose
    lowest repeated value, or with none repeated lowest value, is v.
    Otherwise one task walks every value here.  Results are bit-identical.
    """
    V = spec.values
    classes = class_count(spec)
    if classes > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"the deck's {render_int(classes)} classes exceed the cap of "
            f"{ENUMERATION_CAP}")
    require_printable(spec)  # the classes' weights grow with S and W
    cpus = (os.cpu_count() or 1) if classes >= POOL_CLASSES else 1
    processes = min(V, cpus, cpus if workers is None else workers)
    tallies = dict.fromkeys(CATEGORIES, 0)
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

    The closed forms are computed first, so count_category refuses a deck
    too large to print, then a wild deck, which has no closed forms, both
    before any enumeration.
    """
    closed = [count_category(cat, spec) for cat in CATEGORIES]
    tallies = tally_all(spec)
    rows = tuple(
        VerificationRow(cat, count, tallies[cat])
        for cat, count in zip(CATEGORIES, closed)
    )
    return VerificationReport(spec, rows, sum(tallies.values()))
