"""Brute-force ground truth: enumerate every 5-card hand and tally categories.

Enumeration walks combinations in lexicographic index order.  Each hand is
classified by `hands.classify_pairs`, the classifier behind `classify`, and
each wild hand by `hands.best_completion`.  The tallies check the closed
forms in `hands`; the classifier itself is checked by `tests/independent.py`
and `bench/reference.py`, which share no code with the library.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

from .deck import DeckSpec, binomial, make_deck
from .hands import (HandCategory, WildCardsUnsupportedError, best_completion,
                    classify_pairs, count_category)

DEFAULT_ENUMERATION_CAP = 10 ** 8


class EnumerationCapError(ValueError):
    """The deck's hand count exceeds the configured enumeration cap."""


def _tally_chunk(spec: DeckSpec, first_lo: int, first_hi: int) -> dict:
    """Tally hands whose lowest deck index lies in [first_lo, first_hi)."""
    deck = make_deck(spec)
    pairs = [None if c.is_wild else (c.value, c.suit) for c in deck]
    pool = pairs[:spec.values * spec.suits]
    tallies = {cat: 0 for cat in HandCategory}

    for i in range(first_lo, first_hi):
        first = pairs[i]
        rest = pairs[i + 1:]
        for combo in combinations(rest, 4):
            hand = (first,) + combo
            if None in hand:
                naturals = [p for p in hand if p is not None]
                best = best_completion(naturals, 5 - len(naturals), spec, pool)
                tallies[best.category] += 1
            else:
                tallies[classify_pairs(hand, spec)] += 1
    return tallies


def tally_all(spec: DeckSpec, cap: int = DEFAULT_ENUMERATION_CAP,
              workers: int = 1) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    Results are bit-identical for any worker count; workers only partition
    the first-card index range.
    """
    total = binomial(spec.size, 5)
    if total > cap:
        raise EnumerationCapError(
            f"enumerating {total} hands exceeds the cap of {cap}"
        )

    n = spec.size
    if workers <= 1:
        return _tally_chunk(spec, 0, n)

    # First-card chunks have very uneven sizes; hand out small strides.
    bounds = list(range(0, n, 2)) + [n]
    chunks = list(zip(bounds, bounds[1:]))
    tallies = {cat: 0 for cat in HandCategory}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_tally_chunk, [spec] * len(chunks),
                             [lo for lo, _ in chunks],
                             [hi for _, hi in chunks]):
            for cat, count in part.items():
                tallies[cat] += count
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


def verify_closed_forms(spec: DeckSpec, cap: int = DEFAULT_ENUMERATION_CAP,
                        workers: int = 1) -> VerificationReport:
    """Compare closed-form counts against the enumeration, per category."""
    if spec.wilds > 0:
        raise WildCardsUnsupportedError(
            "closed forms cover wild-free decks only; nothing to verify"
        )
    tallies = tally_all(spec, cap=cap, workers=workers)
    rows = tuple(
        VerificationRow(cat, count_category(cat, spec), tallies[cat])
        for cat in HandCategory
    )
    return VerificationReport(spec, rows, sum(tallies.values()))
