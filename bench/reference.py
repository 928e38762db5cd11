"""Reference answers the benchmark checks the library against.

Nothing here calls parlorproofs: hands are classified straight from the
category definitions, wild hands by trying every substitution, and trails
and rubric totals are checked against what the input generators built.
Categories are named by the CLI slugs, strongest first.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

CATEGORIES = ("royal-flush", "straight-flush", "four-of-a-kind", "full-house",
              "flush", "straight", "three-of-a-kind", "two-pair", "pair",
              "high-card")
RANK = {slug: i for i, slug in enumerate(CATEGORIES)}


def run_count(values: int, ace_both: bool) -> int:
    """Distinct 5-value runs: V-4 ordinary ones, plus the wheel when the
    ace may also play low and the wheel is not already the only run."""
    if values < 5:
        return 0
    return values - 4 + (1 if ace_both and values > 5 else 0)


def closed_forms(values: int, suits: int, ace_both: bool) -> dict:
    """Hand counts per category, summed over value-multiplicity shapes."""
    V, S, C = values, suits, math.comb
    R = run_count(V, ace_both)
    distinct = C(V, 5)
    return {
        "royal-flush": S if V >= 5 else 0,
        "straight-flush": (R - 1) * S if V >= 5 else 0,
        "four-of-a-kind": V * (V - 1) * C(S, 4) * S + V * C(S, 5),
        "full-house": V * (V - 1) * C(S, 3) * C(S, 2),
        "flush": S * (distinct - R),
        "straight": R * (S ** 5 - S),
        "three-of-a-kind": V * C(V - 1, 2) * C(S, 3) * S ** 2,
        "two-pair": C(V, 2) * (V - 2) * C(S, 2) ** 2 * S,
        "pair": V * C(V - 1, 3) * C(S, 2) * S ** 3,
        "high-card": (distinct - R) * (S ** 5 - S),
    }


def _is_run(value_set: frozenset, values: int, ace_both: bool) -> bool:
    if len(value_set) != 5:
        return False
    low, high = min(value_set), max(value_set)
    if high - low == 4:
        return True
    return ace_both and value_set == frozenset({values, 1, 2, 3, 4})


def classify(cards, values: int, ace_both: bool) -> str:
    """Category slug of five (value, suit) pairs; duplicates are allowed, as
    wild substitution produces them, and five of a kind counts as four."""
    counts = Counter(v for v, _ in cards)
    shape = sorted(counts.values(), reverse=True)
    value_set = frozenset(counts)
    flush = len({s for _, s in cards}) == 1
    run = _is_run(value_set, values, ace_both)
    if flush and run:
        return "royal-flush" if min(value_set) == values - 4 else "straight-flush"
    if shape[0] >= 4:
        return "four-of-a-kind"
    if shape[:2] == [3, 2]:
        return "full-house"
    if flush and shape[0] == 1:
        return "flush"
    if run:
        return "straight"
    if shape[0] == 3:
        return "three-of-a-kind"
    if shape[:2] == [2, 2]:
        return "two-pair"
    if shape[0] == 2:
        return "pair"
    return "high-card"


def best_with_wilds(naturals, n_wilds: int, values: int, suits: int,
                    ace_both: bool) -> str:
    """Strongest category over every substitution of each wild by any
    natural card, duplicates of held cards included."""
    deck = [(v, s) for v in range(1, values + 1) for s in range(1, suits + 1)]
    best = len(CATEGORIES) - 1
    for subs in product(deck, repeat=n_wilds):
        best = min(best, RANK[classify(list(naturals) + list(subs), values,
                                       ace_both)])
    return CATEGORIES[best]


class WildTallies:
    """Exact per-category tallies of wild decks, from brute-force
    substitution.

    The best completion of a hand depends only on its sorted natural values,
    on whether its naturals share a suit, and on its number of wilds, so
    each such key is brute-forced once per deck shape.
    """

    def __init__(self) -> None:
        self._best: dict = {}
        self._tallies: dict = {}

    def best(self, naturals, n_wilds: int, values: int, suits: int,
             ace_both: bool) -> str:
        flush = len({s for _, s in naturals}) <= 1
        key = (values, suits, ace_both, n_wilds, flush,
               tuple(sorted(v for v, _ in naturals)))
        if key not in self._best:
            self._best[key] = best_with_wilds(naturals, n_wilds, values, suits,
                                              ace_both)
        return self._best[key]

    def tally(self, values: int, suits: int, wilds: int, ace_both: bool) -> dict:
        key = (values, suits, wilds, ace_both)
        if key not in self._tallies:
            deck = [(v, s) for v in range(1, values + 1)
                    for s in range(1, suits + 1)]
            out = dict.fromkeys(CATEGORIES, 0)
            for k in range(min(wilds, 5) + 1):
                ways = math.comb(wilds, k)
                for naturals in combinations(deck, 5 - k):
                    out[self.best(naturals, k, values, suits, ace_both)] += ways
            self._tallies[key] = out
        return self._tallies[key]


def winner(entries, values: int, suits: int, ace_both: bool):
    """(winner or None, tied names) under lowest-probability-wins."""
    counts = closed_forms(values, suits, ace_both)
    scored = [(Fraction(counts[slug], 1), name) for name, slug in entries
              if counts[slug] > 0]
    if not scored:
        return None, ()
    low = min(p for p, _ in scored)
    names = tuple(sorted(name for p, name in scored if p == low))
    return (names[0], ()) if len(names) == 1 else (None, names)


def winner_output(entries, values: int, suits: int, ace_both: bool):
    """(exit code, stdout) of `parlorproofs poker winner` for these entries."""
    counts = closed_forms(values, suits, ace_both)
    total = math.comb(values * suits, 5)
    lines = [f"excluded: {name} ({slug} is impossible in this deck)"
             for name, slug in entries if counts[slug] == 0]
    ranking = sorted((Fraction(counts[slug], total), name, counts[slug])
                     for name, slug in entries if counts[slug] > 0)
    name, tied = winner(entries, values, suits, ace_both)
    code = 0
    if name is not None:
        chain = " < ".join(f"{count}/{total}" for _, _, count in ranking)
        lines.append(f"{name} wins ({chain})")
    elif tied:
        lines.append("Tie: " + ", ".join(tied))
    else:
        lines.append("no winner: every entry is impossible in this deck")
        code = 1
    return code, "\n".join(lines) + "\n"


def trail_error(edges: dict, trail) -> str | None:
    """Why `trail` is not an Eulerian trail of `edges` (id -> (u, v)), or
    None when it uses every edge exactly once along a chained walk."""
    steps = trail.steps
    ids = [step.edge_id for step in steps]
    if sorted(ids) != sorted(edges):
        return f"trail uses {len(ids)} edge ids, graph has {len(edges)} edges"
    at = trail.start
    for step in steps:
        if step.frm != at:
            return f"edge {step.edge_id} leaves {step.frm}, walk is at {at}"
        if sorted((step.frm, step.to)) != sorted(edges[step.edge_id]):
            return f"edge {step.edge_id} does not join {step.frm}-{step.to}"
        at = step.to
    if at != trail.end:
        return f"trail ends at {at}, reports {trail.end}"
    return None


def odd_vertices(edges) -> list:
    degree: Counter = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(v for v, d in degree.items() if d % 2)
