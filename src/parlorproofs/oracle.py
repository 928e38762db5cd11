"""Brute-force ground truth: enumerate every 5-card hand and tally categories.

Enumeration walks the natural (value, suit) cards in value-major index
order.  A hand holding k of the W wilds is a (5-k)-subset of the naturals
together with any of C(W, k) wild k-subsets, so each natural subset is
classified once and weighted by C(W, k); the C(W, 5) all-wild hands are
added once.  Natural hands are classified by `hands.classify_pairs`, the
classifier behind `classify`, and wild hands by `hands.best_completion`.
The tallies check the closed forms in `hands`; the classifiers themselves
are checked by `tests/independent.py` and `bench/reference.py`, which share
no code with the library.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, combinations

from .deck import DeckSpec, binomial
from .hands import (HandCategory, WildCardsUnsupportedError, best_completion,
                    classify_pairs, count_category)

DEFAULT_ENUMERATION_CAP = 10 ** 8


class EnumerationCapError(ValueError):
    """The deck's hand count exceeds the configured enumeration cap."""


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
                best = best_completion(first + combo, k, spec)
                tallies[best.category] += ways[k]
    return tallies


def _chunk_bounds(spec: DeckSpec, workers: int) -> list:
    """Cut the natural indices into at most `workers` contiguous chunks
    holding near-equal numbers of hands.

    Index i is the lowest natural card of sum_k C(W,k)*C(N-1-i, 4-k) hands,
    with N = V*S; each cut falls at the index boundary nearest its share.
    """
    n, W = spec.values * spec.suits, spec.wilds
    weights = [sum(binomial(W, k) * binomial(n - 1 - i, 4 - k)
                   for k in range(min(W, 4) + 1)) for i in range(n)]
    ends = list(accumulate(weights, initial=0))  # ends[b]: hands below index b
    bounds = [0]
    for j in range(1, workers):
        share = ends[-1] * j / workers
        b = bisect_left(ends, share)
        if share - ends[b - 1] < ends[b] - share:
            b -= 1
        if bounds[-1] < b < n:
            bounds.append(b)
    bounds.append(n)
    return bounds


def tally_all(spec: DeckSpec, cap: int = DEFAULT_ENUMERATION_CAP,
              workers: int = 1) -> dict:
    """Exact per-category tally over all C(deck size, 5) hands.

    Results are bit-identical for any worker count; workers only partition
    the lowest-natural-card index range.
    """
    total = binomial(spec.size, 5)
    if total > cap:
        raise EnumerationCapError(
            f"enumerating {total} hands exceeds the cap of {cap}"
        )

    bounds = _chunk_bounds(spec, max(workers, 1))
    if len(bounds) == 2:
        tallies = _tally_chunk(spec, 0, bounds[1])
    else:
        tallies = dict.fromkeys(HandCategory, 0)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_tally_chunk, [spec] * (len(bounds) - 1),
                                 bounds[:-1], bounds[1:]):
                for cat, count in part.items():
                    tallies[cat] += count
    # The hands without a natural card; none unless W >= 5.
    tallies[best_completion((), 5, spec).category] += binomial(spec.wilds, 5)
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
