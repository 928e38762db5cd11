"""Brute-force ground truth: enumerate every 5-card hand and tally categories.

Enumeration walks the natural (value, suit) cards in value-major index
order.  A hand holding k of the W wilds is a (5-k)-subset of the naturals
together with any of C(W, k) wild k-subsets, so each natural subset is
classified once and weighted by C(W, k); the C(W, 5) all-wild hands are
added once.  Natural hands are classified by `hands.classify_pairs`, the
classifier behind `classify`, and wild hands by `hands.best_completion`.
In a process pool each lowest natural index is one task, taken by
whichever worker is free.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

from .deck import DeckSpec, binomial
from .errors import InputError
from .hands import HandCategory, best_completion, classify_pairs, count_category

ENUMERATION_CAP = 10 ** 8


class EnumerationCapError(InputError):
    """The deck's hand count exceeds ENUMERATION_CAP."""


def _tally_chunk(spec: DeckSpec, first_lo: int, first_hi: int) -> dict:
    """Tally hands whose lowest natural card index is in [first_lo, first_hi)."""
    pairs = [(v, s) for v in range(1, spec.values + 1)
             for s in range(1, spec.suits + 1)]
    ways = [binomial(spec.wilds, k) for k in range(min(spec.wilds, 4) + 1)]
    tallies = dict.fromkeys(HandCategory, 0)

    for i in range(first_lo, first_hi):
        first = (pairs[i],)
        rest = pairs[i + 1:]
        for combo in combinations(rest, 4):
            tallies[classify_pairs(first + combo, spec)] += 1
        for k in range(1, len(ways)):
            for combo in combinations(rest, 4 - k):
                tallies[best_completion(first + combo, k, spec)] += ways[k]
    return tallies


def tally_all(spec: DeckSpec, workers: int = 1) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    With workers > 1 the pool gets one task per lowest natural index, and
    whichever process is free takes the next; the tasks differ in cost, so
    no split is planned ahead.  At most min(workers, V*S, CPU count)
    processes start; when that is 1 the enumeration runs in this process.
    Results are bit-identical for any worker count.
    """
    total = binomial(spec.size, 5)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"enumerating {total} hands exceeds the cap of {ENUMERATION_CAP}"
        )

    n = spec.values * spec.suits
    processes = min(workers, n, os.cpu_count() or 1)
    if processes <= 1:
        tallies = _tally_chunk(spec, 0, n)
    else:
        tallies = dict.fromkeys(HandCategory, 0)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            for part in pool.map(_tally_chunk, [spec] * n, range(n),
                                 range(1, n + 1)):
                for cat, count in part.items():
                    tallies[cat] += count
    # The hands without a natural card; none unless W >= 5.
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
