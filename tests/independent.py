"""Independent brute-force checkers used by the tests.

These deliberately avoid the library's classification and trail code paths:
the classifier works from the category definitions via value-count shapes
and predicate checks, and the trail search is plain backtracking.
"""

import re
from itertools import combinations, combinations_with_replacement

from parlorproofs.deck import AceRule, DeckSpec
from parlorproofs.hands import HandCategory


# The card token grammar: wild "W<n>", generic "V<n>S<n>" and standard
# "<rank><suit>", matched as a whole and ASCII case-insensitively, after the
# token is stripped of surrounding whitespace.
TOKEN_RE = re.compile(r"W(?P<wild>[0-9]+)"
                      r"|V(?P<value>[0-9]+)S(?P<suit>[0-9]+)"
                      r"|(?P<rank>10|[2-9TJQKA])(?P<mark>[CDHS])",
                      re.IGNORECASE | re.ASCII)
# Standard ranks in the 1..13 order, ace highest; "10" and "T" are one rank.
STANDARD_RANKS = dict(zip("2 3 4 5 6 7 8 9 T J Q K A".split(), range(1, 14)),
                      **{"10": 9})


def token_card(text: str):
    """What a card token spells: ("wild", index), ("card", value, suit), or
    None when the text is no card token."""
    m = TOKEN_RE.fullmatch(text.strip())
    if m is None:
        return None
    if m["wild"] is not None:
        return ("wild", int(m["wild"]))
    if m["value"] is not None:
        return ("card", int(m["value"]), int(m["suit"]))
    return ("card", STANDARD_RANKS[m["rank"].upper()],
            "CDHS".index(m["mark"].upper()) + 1)


def natural_pairs(spec: DeckSpec) -> list:
    """Every natural card of the deck as a (value, suit) pair, value-major."""
    return [(v, s) for v in range(1, spec.values + 1)
            for s in range(1, spec.suits + 1)]


def run_value_sets(spec: DeckSpec) -> set:
    """All sets of 5 consecutive values, ace-low run included per the rule."""
    V = spec.values
    if V < 5:
        return set()
    runs = {frozenset(range(lo, lo + 5)) for lo in range(1, V - 3)}
    if spec.ace_rule is AceRule.BOTH:
        runs.add(frozenset({V, 1, 2, 3, 4}))
    return runs


def naive_classify(cards, spec: DeckSpec) -> HandCategory:
    """Predicate-based classification of 5 (value, suit) pairs.

    Accepts multisets (wild substitutions may duplicate held cards); five
    copies of one value falls into FOUR_OF_A_KIND.
    """
    return naive_classifier(spec)(cards)


def naive_classifier(spec: DeckSpec):
    """naive_classify for one deck, with the deck's runs worked out once."""
    runs = run_value_sets(spec)
    top = frozenset(range(spec.values - 4, spec.values + 1)) if spec.values >= 5 else None

    def classify(cards) -> HandCategory:
        values = [v for v, _ in cards]
        suits = {s for _, s in cards}
        distinct = frozenset(values)
        shape = sorted(map(values.count, distinct), reverse=True)

        # A flush needs five values: one suit with a repeated value (a wild
        # copying a held card) is no flush.
        is_flush = len(suits) == 1 and len(distinct) == 5
        is_straight = len(distinct) == 5 and distinct in runs

        if is_flush and distinct == top:
            return HandCategory.ROYAL_FLUSH
        if is_flush and is_straight:
            return HandCategory.STRAIGHT_FLUSH
        if shape[0] >= 4:
            return HandCategory.FOUR_OF_A_KIND
        if shape[:2] == [3, 2]:
            return HandCategory.FULL_HOUSE
        if is_flush:
            return HandCategory.FLUSH
        if is_straight:
            return HandCategory.STRAIGHT
        if shape[0] == 3:
            return HandCategory.THREE_OF_A_KIND
        if shape[:2] == [2, 2]:
            return HandCategory.TWO_PAIR
        if shape[0] == 2:
            return HandCategory.PAIR
        return HandCategory.HIGH_CARD

    return classify


def best_over_substitutions(naturals, n_wilds, spec: DeckSpec) -> HandCategory:
    """Max (strongest) category over every explicit wild substitution.

    Wilds are interchangeable, so each multiset of substitute cards is tried
    once rather than in every order.
    """
    deck = natural_pairs(spec)
    classify = naive_classifier(spec)
    held = tuple(naturals)
    best = HandCategory.HIGH_CARD
    for subs in combinations_with_replacement(deck, n_wilds):
        cat = classify(held + subs)
        if cat < best:
            best = cat
            if best is HandCategory.ROYAL_FLUSH:
                break
    return best


def trail_exists_backtracking(edge_pairs) -> bool:
    """Exhaustive search for a walk using every edge exactly once."""
    edges = list(edge_pairs)
    if not edges:
        return False
    total = len(edges)

    def extend(vertex, used):
        if len(used) == total:
            return True
        for i, (u, v) in enumerate(edges):
            if i in used or vertex not in (u, v):
                continue
            nxt = v if vertex == u else u
            if extend(nxt, used | {i}):
                return True
        return False

    starts = {w for pair in edges for w in pair}
    return any(extend(s, frozenset()) for s in starts)


def lowest_id_trail(vertices, edges):
    """The Eulerian trail under the lowest-id rule, as (edge id, from, to)
    steps, or None when the edges admit no trail.  `edges` holds (id, u, v)
    triples with distinct ids.

    The rule: a trail starts at the smallest vertex of odd degree, or at the
    smallest vertex with an edge when none is odd, and always leaves by the
    unused edge of lowest id.  A vertex whose edges are used up closes a
    detour, so each step is recorded as the recursion returns (Hierholzer,
    1873) and the list is read backwards.
    """
    degree = {w: 0 for w in vertices}
    for _, u, v in edges:
        degree[u] += 1
        degree[v] += 1
    odd = sorted(w for w in degree if degree[w] % 2 == 1)
    touched = sorted(w for w in degree if degree[w] > 0)
    if not touched or len(odd) not in (0, 2):
        return None
    used = set()
    backwards = []

    def leave(vertex):
        while True:
            exits = [e for e in edges
                     if e[0] not in used and vertex in (e[1], e[2])]
            if not exits:
                return
            eid, u, v = min(exits)
            used.add(eid)
            nxt = v if vertex == u else u
            leave(nxt)
            backwards.append((eid, vertex, nxt))

    leave(odd[0] if odd else touched[0])
    if len(backwards) < len(edges):  # some edge lies in another component
        return None
    return backwards[::-1]


def edge_components(vertices, edges):
    """The vertex sets of the components of a multigraph that hold edges,
    found by breadth-first search from each vertex in turn; `edges` holds
    (u, v) pairs and isolated vertices are left out."""
    neighbours = {w: [] for w in vertices}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = set()
    components = []
    for w in vertices:
        if w in seen or not neighbours[w]:
            continue
        seen.add(w)
        queue = [w]
        for x in queue:  # grows while it is read
            for y in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        components.append(set(queue))
    return components


def hand_class_count(values: int, suits: int, size: int) -> int:
    """Number of classes of `size`-card sets of a values x suits deck that
    no category tells apart: the distinct pairs of (sorted values, whether
    every card has one suit) over every set."""
    cards = [(v, s) for v in range(1, values + 1) for s in range(1, suits + 1)]
    return len({(tuple(sorted(v for v, _ in hand)),
                 len({s for _, s in hand}) == 1)
                for hand in combinations(cards, size)})
