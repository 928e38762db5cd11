"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact.
"""

import random
from itertools import combinations, permutations

import pytest

from parlorproofs.deck import (AceRule, Card, DeckSpec, Hand, STANDARD_DECK,
                               Wild)
from parlorproofs.graphs import (EulerianStatus, Trail, eulerian_status,
                                 find_trail, impossibility_proof, odd_vertices)
from parlorproofs.hands import (HandCategory, classify_with_wilds,
                                determine_winner)
from parlorproofs.oracle import verify_closed_forms
from parlorproofs.proofdoc import StepKind
from parlorproofs.rubric import MarkSheet, score

from fixtures import cat_and_mouse_graph, konigsberg_graph, poker_rubric
from independent import (best_over_substitutions, natural_pairs,
                         trail_exists_backtracking)
from test_graphs import assert_valid_trail, random_multigraph
from test_rubric import full_marks, zero_marks

# The paper's game lets players pick only the hands that are not ruled out
# for the assignment; the three strongest are off the table.
ALLOWED_PLAYER_CATEGORIES = tuple(
    c for c in HandCategory
    if c not in (HandCategory.ROYAL_FLUSH, HandCategory.STRAIGHT_FLUSH,
                 HandCategory.FOUR_OF_A_KIND)
)


@pytest.fixture(scope="module")
def standard_report():
    return verify_closed_forms(STANDARD_DECK)


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_standard_deck_partition(standard_report):
    mismatches = [row.category for row in standard_report.rows if not row.ok]
    total = standard_report.total
    report(1, standard_report.passed and total == 2_598_960,
           f"total {total}, mismatches {mismatches}")


def test_criterion_2_variant_deck_sweep():
    failures = []
    for values in range(5, 10):
        for suits in range(2, 5):
            for ace_rule in (AceRule.BOTH, AceRule.HIGH_ONLY):
                spec = DeckSpec(values=values, suits=suits, ace_rule=ace_rule)
                if not verify_closed_forms(spec).passed:
                    failures.append(spec)
    report(2, not failures, f"30 specs swept, failures: {failures}")


def test_criterion_3_winner_matches_oracle_order(standard_report):
    standard_tallies = {row.category: row.oracle for row in standard_report.rows}
    players = ("Bond", "Rogers", "Ryan")
    checked = 0
    for trio in combinations(ALLOWED_PLAYER_CATEGORIES, 3):
        for cats in permutations(trio):
            entries = list(zip(players, cats))
            expected_cat = min(cats, key=lambda c: standard_tallies[c])
            expected = next(n for n, c in entries if c is expected_cat)
            result = determine_winner(entries, STANDARD_DECK)
            assert result.winner == expected, (entries, result)
            checked += 1
    report(3, checked == 210, f"{checked} assignments checked")


def _independent_trail_criterion(g):
    """Edge-connected with 0 or 2 odd-degree vertices, computed from raw
    edge pairs without the library's graph helpers."""
    degrees = {}
    adjacency = {}
    for e in g.edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            degrees[a] = degrees.get(a, 0) + 1
            adjacency.setdefault(a, set()).add(b)
    if not degrees:
        return False
    seen, frontier = set(), [next(iter(degrees))]
    while frontier:
        v = frontier.pop()
        if v not in seen:
            seen.add(v)
            frontier.extend(adjacency[v])
    odd = sum(1 for d in degrees.values() if d % 2)
    return seen == set(degrees) and odd in (0, 2)


def test_criterion_4_euler_equivalence():
    rng = random.Random(1736)
    n_graphs = 1000
    cross_checked = 0
    for _ in range(n_graphs):
        g = random_multigraph(rng, max_vertices=8, max_edges=16)
        result = find_trail(g)
        has_trail = isinstance(result, Trail)
        assert has_trail == _independent_trail_criterion(g), g
        if has_trail:
            assert_valid_trail(result, g)
        if g.edge_count <= 10:
            brute = trail_exists_backtracking([(e.u, e.v) for e in g.edges])
            assert has_trail == brute, g
            cross_checked += 1
    report(4, True, f"{n_graphs} graphs, {cross_checked} cross-checked "
                    f"against backtracking")


def test_criterion_5_konigsberg_proof():
    g = konigsberg_graph()
    ok = eulerian_status(g) is EulerianStatus.NO_TRAIL
    ok = ok and len(odd_vertices(g)) == 4
    doc = impossibility_proof(g, vertex_noun="land mass", edge_noun="bridge",
                              place_name="the city")
    ok = ok and tuple(step.kind for step in doc.steps) == (
        StepKind.CLAIM, StepKind.MODEL, StepKind.COUNT, StepKind.OBSERVATION,
        StepKind.LEMMA, StepKind.OBSERVATION, StepKind.CONTRADICTION,
        StepKind.QED)
    ok = ok and "4 vertices and 7 edges" in doc.steps[2].text
    report(5, ok)


def test_criterion_6_cat_and_mouse_fixture():
    g = cat_and_mouse_graph()
    odd_rooms = odd_vertices(g)
    ok = eulerian_status(g) is EulerianStatus.NO_TRAIL and len(odd_rooms) > 2
    doc = impossibility_proof(g, vertex_noun="room",
                              edge_noun="doorway or window",
                              place_name="the house")
    ok = ok and f"{len(odd_rooms)} vertices of odd degree" in doc.steps[5].text
    report(6, ok, f"{len(odd_rooms)} odd rooms")


def test_criterion_7_poker_rubric():
    rubric = poker_rubric()
    ok = rubric.maximum == 100
    ok = ok and score(rubric, full_marks(rubric)).total == 100
    ok = ok and score(rubric, zero_marks(rubric)).total == 0
    marks = dict(full_marks(rubric).awards_hp)
    marks["Accurately find probability"] = 2 * 2  # drop 1 of 3 points
    ok = ok and score(rubric, MarkSheet(tuple(marks.items()), ())).total == 95
    report(7, ok)


def test_criterion_8_wild_card_best_substitution():
    spec = DeckSpec(values=13, suits=4, wilds=1)
    naturals_pool = [Card(v, s) for v, s in natural_pairs(spec)]
    rng = random.Random(52)
    mismatches = 0
    for _ in range(500):
        naturals = rng.sample(naturals_pool, 4)
        hand = Hand(frozenset(naturals + [Wild(1)]))
        got = classify_with_wilds(hand, spec)
        want = best_over_substitutions([(c.value, c.suit) for c in naturals],
                                       1, spec)
        if got is not want:
            mismatches += 1
    report(8, mismatches == 0, f"500 hands, {mismatches} mismatches")
