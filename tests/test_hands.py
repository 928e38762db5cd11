import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest
from hypothesis import given, settings, strategies as st

from parlorproofs import hands
from parlorproofs.deck import (AceRule, Card, CardParseError, DeckSpec, Hand,
                               STANDARD_DECK, Wild, binomial, parse_hand)
from parlorproofs.errors import InputError
from parlorproofs.hands import (DeckTooLargeError, HandCategory, Probability,
                                WildCardsUnsupportedError, WildInHandError,
                                _run_count, best_completion, classify,
                                classify_pairs, classify_with_wilds,
                                combinatorial_proof, count_category,
                                determine_winner, probability)
from parlorproofs.oracle import verify_closed_forms
from parlorproofs.proofdoc import StepKind

from independent import (best_over_substitutions, naive_classifier,
                         naive_classify, natural_pairs, run_value_sets)

SMALL_SPECS = [
    STANDARD_DECK,
    DeckSpec(values=13, suits=4, ace_rule=AceRule.HIGH_ONLY),
    DeckSpec(values=5, suits=1),
    DeckSpec(values=5, suits=2),
    DeckSpec(values=7, suits=3),
    DeckSpec(values=9, suits=2, ace_rule=AceRule.HIGH_ONLY),
    DeckSpec(values=4, suits=2),   # no straights possible
    DeckSpec(values=1, suits=5),
    DeckSpec(values=2, suits=6),   # natural five-of-a-kind territory
]


def hand_of(text, spec=STANDARD_DECK):
    return parse_hand(text, spec)


@pytest.mark.parametrize("name", list(HandCategory.__members__))
def test_module_category_names_are_the_members(name):
    # The classifiers return these names: a reordered enum must not silently
    # relabel one.
    assert getattr(hands, name) is HandCategory[name]


def test_module_constants_follow_the_enums():
    assert hands.CATEGORIES == tuple(sorted(HandCategory))
    assert hands._ACE_LOW is AceRule.BOTH


@pytest.mark.parametrize("category", list(HandCategory), ids=lambda c: c.name)
class TestCategoryNames:
    def test_names_follow_the_member_name(self, category):
        assert category.slug == category.name.replace("_", "-").lower()
        assert category.label == category.name.replace("_", " ").title()

    def test_names_are_read_only(self, category):
        # Every CLI line names a category: no caller may rename one.
        slug, label = category.slug, category.label
        for name in ("slug", "label"):
            with pytest.raises(AttributeError):
                setattr(category, name, "renamed")
        assert (category.slug, category.label) == (slug, label)

    def test_pickles_to_the_same_member(self, category):
        # The oracle's worker processes send categories back by pickle.
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(category, protocol)) is category

    def test_every_spelling_resolves(self, category):
        words = category.name.split("_")
        for seps in product("-_", repeat=len(words) - 1):
            name = words[0] + "".join(map("".join, zip(seps, words[1:])))
            mixed = "".join(c.lower() if i % 2 else c for i, c in enumerate(name))
            for spelled in (name, name.lower(), name.title(), mixed):
                assert HandCategory.from_slug(f"\t{spelled} ") is category


class TestStraightRuns:
    """`_run_count` is the run count R behind every closed form."""

    def test_standard_has_ten_runs_with_wheel(self):
        assert _run_count(STANDARD_DECK) == 10

    def test_high_only_drops_the_wheel(self):
        assert _run_count(DeckSpec(ace_rule=AceRule.HIGH_ONLY)) == 9

    @pytest.mark.parametrize("v", range(6, 14))
    def test_run_counts(self, v):
        assert _run_count(DeckSpec(values=v, suits=4)) == v - 3
        assert _run_count(
            DeckSpec(values=v, suits=4, ace_rule=AceRule.HIGH_ONLY)) == v - 4

    def test_five_values_wheel_coincides_with_top_run(self):
        # {5,1,2,3,4} is {1..5}, so the wheel adds no second run
        assert _run_count(DeckSpec(values=5, suits=4)) == 1

    def test_no_runs_below_five_values(self):
        assert _run_count(DeckSpec(values=4, suits=2)) == 0

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    def test_suited_run_counts_match_straight_runs(self, ace_rule):
        for v in range(1, 41):
            for s in range(1, 7):
                if v * s < 5:
                    continue
                spec = DeckSpec(values=v, suits=s, ace_rule=ace_rule)
                suited = (count_category(HandCategory.STRAIGHT_FLUSH, spec)
                          + count_category(HandCategory.ROYAL_FLUSH, spec))
                assert suited == s * len(run_value_sets(spec)), spec


class TestClassify:
    def test_royal_flush(self):
        assert classify(hand_of("10S JS QS KS AS"), STANDARD_DECK) \
            is HandCategory.ROYAL_FLUSH

    def test_four_of_a_kind(self):
        assert classify(hand_of("2C 2D 2H 2S 7D"), STANDARD_DECK) \
            is HandCategory.FOUR_OF_A_KIND

    def test_high_card(self):
        # distinct values, mixed suits, not consecutive
        assert classify(hand_of("3H 5D 9C JS KD"), STANDARD_DECK) \
            is HandCategory.HIGH_CARD

    def test_wheel_straight(self):
        assert classify(hand_of("AC 2D 3H 4S 5C"), STANDARD_DECK) \
            is HandCategory.STRAIGHT

    def test_wheel_not_a_straight_with_high_only_aces(self):
        spec = DeckSpec(ace_rule=AceRule.HIGH_ONLY)
        assert classify(hand_of("AC 2D 3H 4S 5C", spec), spec) \
            is HandCategory.HIGH_CARD

    def test_no_wraparound_above_the_wheel(self):
        assert classify(hand_of("QC KD AH 2S 3C"), STANDARD_DECK) \
            is HandCategory.HIGH_CARD

    def test_wild_rejected(self):
        spec = DeckSpec(wilds=1)
        hand = Hand(frozenset({Card(1, 1), Card(2, 1), Card(3, 1),
                               Card(4, 1), Wild(1)}))
        with pytest.raises(WildInHandError):
            classify(hand, spec)

    @pytest.mark.parametrize("spec", SMALL_SPECS[:6])
    def test_matches_independent_classifier(self, spec):
        rng = random.Random(20260824)
        deck = natural_pairs(spec)
        for _ in range(300):
            pairs = rng.sample(deck, 5)
            hand = Hand(frozenset(Card(v, s) for v, s in pairs))
            assert classify(hand, spec) == naive_classify(pairs, spec)

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    def test_every_class_matches_independent_classifier(self, ace_rule):
        # Every value multiset of V 5-14, all in suit 1 and in five suits,
        # handed over in ascending and in descending order.
        for V in range(5, 15):
            spec = DeckSpec(V, 5, ace_rule=ace_rule)
            naive = naive_classifier(spec)
            for values in combinations_with_replacement(range(1, V + 1), 5):
                for suits in ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)):
                    pairs = tuple(zip(values, suits))
                    want = naive(pairs)
                    assert classify_pairs(pairs, spec) is want, (spec, pairs)
                    assert classify_pairs(pairs[::-1], spec) is want

    def test_exclusion_clauses(self):
        # no FLUSH hand is a suited run; no STRAIGHT hand is single-suited
        spec = DeckSpec(values=6, suits=2)
        deck = [Card(v, s) for v, s in natural_pairs(spec)]
        runs = run_value_sets(spec)
        for combo in combinations(deck, 5):
            hand = Hand(frozenset(combo))
            cat = classify(hand, spec)
            values = frozenset(c.value for c in combo)
            suited = len({c.suit for c in combo}) == 1
            run = values in runs
            if cat is HandCategory.FLUSH:
                assert suited and not run
            if cat is HandCategory.STRAIGHT:
                assert run and not suited


class TestClassifyWithWilds:
    SPEC = DeckSpec(wilds=1)

    def test_quads_plus_wild_reports_four_of_a_kind(self):
        hand = parse_hand("2C 2D 2H 2S W1", self.SPEC)
        assert classify_with_wilds(hand, self.SPEC) is HandCategory.FOUR_OF_A_KIND

    def test_wild_completes_royal_flush(self):
        hand = parse_hand("10S JS QS KS W1", self.SPEC)
        assert classify_with_wilds(hand, self.SPEC) is HandCategory.ROYAL_FLUSH

    def test_no_wilds_equals_classify(self):
        hand = parse_hand("3H 5D 9C JS KD", self.SPEC)
        assert classify_with_wilds(hand, self.SPEC) == classify(hand, self.SPEC)

    def test_wild_straight_completion(self):
        hand = parse_hand("5C 6D 7H 8S W1", self.SPEC)
        assert classify_with_wilds(hand, self.SPEC) is HandCategory.STRAIGHT

    def test_two_wilds(self):
        spec = DeckSpec(wilds=2)
        hand = parse_hand("QS KS AS W1 W2", spec)
        assert classify_with_wilds(hand, spec) is HandCategory.ROYAL_FLUSH

    def test_one_suit_with_a_repeated_value_is_no_flush(self):
        # The wild can copy a held card, but a flush needs five values.
        spec = DeckSpec(values=4, suits=2, wilds=1)
        hand = parse_hand("v1s1 v2s1 v3s1 v4s1 W1", spec)
        assert classify_with_wilds(hand, spec) is HandCategory.PAIR
        naturals = [(1, 1), (2, 1), (3, 1), (4, 1)]
        assert best_over_substitutions(naturals, 1, spec) is HandCategory.PAIR

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    def test_matches_brute_force_substitution(self, ace_rule):
        # Every natural subset of every deck with V 1-7, S 1-4 and 1-4
        # wilds, one per (sorted values, one suit, wild count) key, and
        # best_completion on every order of its held cards: the answer must
        # not depend on the order in which a hand's cards come.
        checked = 0
        for values in range(1, 8):
            for suits in range(1, 5):
                for k in (1, 2, 3, 4):
                    if values * suits < 5 - k:
                        continue
                    spec = DeckSpec(values, suits, k, ace_rule)
                    pool = natural_pairs(spec)
                    wilds = [Wild(i) for i in range(1, k + 1)]
                    seen = set()
                    for naturals in combinations(pool, 5 - k):
                        key = (tuple(sorted(v for v, _ in naturals)),
                               len({s for _, s in naturals}) == 1)
                        if key in seen:
                            continue
                        seen.add(key)
                        hand = Hand(frozenset(
                            [Card(v, s) for v, s in naturals] + wilds))
                        got = classify_with_wilds(hand, spec)
                        want = best_over_substitutions(naturals, k, spec)
                        assert got is want, (spec, naturals)
                        for order in permutations(naturals):
                            assert best_completion(order, k, spec) is want, \
                                (spec, order)
                        checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    @pytest.mark.parametrize("suits_of_p, suits_of_q, category", [
        ((1, 2), (1, 2), HandCategory.FULL_HOUSE),
        ((1, 2, 3), (1,), HandCategory.FOUR_OF_A_KIND),
    ], ids=["two-pair", "trips"])
    def test_four_cards_in_two_values_in_any_order(
            self, suits_of_p, suits_of_q, category, ace_rule):
        # Two pair and a wild make a full house, trips and a single with a
        # wild four of a kind; best_completion tells them apart by the
        # first card's value count, so every order of the four is tried.
        for values in range(2, 8):
            for suits in (3, 4):
                spec = DeckSpec(values, suits, 1, ace_rule)
                for p, q in permutations(range(1, values + 1), 2):
                    naturals = ([(p, s) for s in suits_of_p]
                                + [(q, s) for s in suits_of_q])
                    assert best_over_substitutions(naturals, 1, spec) \
                        is category
                    for order in permutations(naturals):
                        assert best_completion(order, 1, spec) is category, \
                            (spec, order)

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    def test_one_wild_matches_brute_force_at_larger_values(self, ace_rule):
        # Every class of four distinct held values of V 8-13 with S = 2, in
        # one suit or not: the straights, the wheel and the royal depend on
        # V and the ace rule.  With a value repeated the answer depends on
        # neither, and test_matches_brute_force_substitution checks those.
        for V in range(8, 14):
            spec = DeckSpec(V, 2, 1, ace_rule)
            for values in combinations(range(1, V + 1), 4):
                suited = tuple(zip(values, (1, 1, 1, 1)))
                for naturals in (suited, ((values[0], 2),) + suited[1:]):
                    want = best_over_substitutions(naturals, 1, spec)
                    assert best_completion(naturals, 1, spec) is want, \
                        (spec, naturals)

    def test_natural_five_of_a_value_sets_no_flag(self):
        spec = DeckSpec(values=2, suits=6)
        hand = Hand(frozenset(Card(1, s) for s in range(1, 6)))
        assert classify_with_wilds(hand, spec) is HandCategory.FOUR_OF_A_KIND

    @pytest.mark.parametrize("wilds,held,category", [
        (5, "", HandCategory.ROYAL_FLUSH),
        (4, "QS", HandCategory.ROYAL_FLUSH),
        (4, "7H", HandCategory.STRAIGHT_FLUSH),
    ])
    def test_many_wilds_return_at_once(self, wilds, held, category):
        spec = DeckSpec(wilds=wilds)
        tokens = " ".join(f"W{i}" for i in range(1, wilds + 1))
        hand = parse_hand(f"{held} {tokens}", spec)
        start = time.perf_counter()
        got = classify_with_wilds(hand, spec)
        assert time.perf_counter() - start < 0.01
        assert got is category

    @pytest.mark.parametrize("cards", [
        {Card(20, 9), Card(1, 1), Card(2, 1), Card(3, 1), Wild(1)},
        {Card(1, 1), Card(2, 1), Card(3, 1), Card(4, 1), Wild(7)},
    ])
    def test_cards_outside_the_deck_rejected(self, cards):
        with pytest.raises(ValueError, match="not legal"):
            classify_with_wilds(Hand(frozenset(cards)), self.SPEC)

    @pytest.mark.parametrize("classifier, card", [
        (classify, Card(14, 1)),
        (classify_with_wilds, Card(1, 5)),
        (classify_with_wilds, Wild(2)),
    ], ids=["classify", "with-wilds", "wild"])
    def test_card_outside_the_deck_is_a_card_parse_error(self, classifier,
                                                         card):
        # The deck check is parse_card's, so is the error class.
        hand = Hand(frozenset({card, Card(1, 1), Card(2, 1), Card(3, 1),
                               Card(4, 1)}))
        with pytest.raises(CardParseError, match="not legal"):
            classifier(hand, self.SPEC)

    @pytest.mark.parametrize("cards", [
        {Card(0, 1), Card(1, 1), Card(2, 1), Card(3, 1), Card(4, 1)},
        {Card(10 ** 5000 + 1, 1), Card(1, 1), Card(2, 1), Card(3, 1), Wild(1)},
        {Card(1, 1), Card(2, 1), Card(3, 1), Card(4, 1), Wild(10 ** 5000 + 1)},
    ], ids=["low", "high", "wild"])
    def test_out_of_range_card_on_a_deck_too_long_to_print(self, cards):
        # 5,001-digit numbers are past CPython's int-to-str limit.
        big = 10 ** 5000
        spec = DeckSpec(values=big, suits=big, wilds=big)
        with pytest.raises(InputError, match="not legal .*about 5001 digits"):
            classify_with_wilds(Hand(frozenset(cards)), spec)

    def test_monotone_over_any_fixed_substitution(self):
        rng = random.Random(99)
        naturals_pool = [Card(v, s) for v, s in natural_pairs(self.SPEC)]
        for _ in range(60):
            naturals = rng.sample(naturals_pool, 4)
            hand = Hand(frozenset(naturals + [Wild(1)]))
            best = classify_with_wilds(hand, self.SPEC)
            for _ in range(10):
                sub = rng.choice([c for c in naturals_pool if c not in naturals])
                fixed = Hand(frozenset(naturals + [sub]))
                assert best <= classify(fixed, self.SPEC)


class TestClassifyBuiltHands:
    """classify and classify_with_wilds on hands built directly, not parsed,
    some of them holding cards that the deck lacks."""

    SPEC = DeckSpec(values=6, suits=3, wilds=2)
    OUTSIDE = [Card(0, 1), Card(7, 2), Card(3, 0), Card(2, 4), Wild(0), Wild(3)]

    def _outside(self, card) -> bool:
        if card.is_wild:
            return not 1 <= card.index <= self.SPEC.wilds
        return not (1 <= card.value <= self.SPEC.values
                    and 1 <= card.suit <= self.SPEC.suits)

    def _deck_error(self, card) -> str:
        # check_cards names the first card outside the deck, in the order
        # in which the hand's set yields its cards.
        if card.is_wild:
            return f"wild index {card.index} not legal for a deck with 2 wilds"
        return (f"card of value {card.value} and suit {card.suit} not legal "
                f"for a deck of 6 values x 3 suits")

    def test_match_the_independent_classifiers_and_errors(self):
        pool = ([Card(v, s) for v, s in natural_pairs(self.SPEC)]
                + [Wild(1), Wild(2)] + self.OUTSIDE)
        naive = naive_classifier(self.SPEC)
        rng = random.Random(25)
        seen = set()
        for _ in range(1500):
            hand = Hand(rng.sample(pool, 5))
            naturals = [(c.value, c.suit) for c in hand.cards if not c.is_wild]
            n_wilds = 5 - len(naturals)
            outside = [c for c in hand.cards if self._outside(c)]
            # classify refuses a wild before it checks the deck.
            got = _outcome(classify, hand, self.SPEC)
            if n_wilds:
                assert type(got) is WildInHandError
            elif outside:
                assert type(got) is CardParseError
                assert str(got) == self._deck_error(outside[0])
            else:
                assert got is naive(naturals)
            got = _outcome(classify_with_wilds, hand, self.SPEC)
            if outside:
                assert type(got) is CardParseError
                assert str(got) == self._deck_error(outside[0])
            else:
                assert got is best_over_substitutions(naturals, n_wilds,
                                                      self.SPEC)
            seen.add((n_wilds > 0, bool(outside)))
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}


def _outcome(call, *args):
    """What call(*args) returns, or the InputError it raises."""
    try:
        return call(*args)
    except InputError as error:
        return error


class TestCounts:
    def test_full_house_standard(self):
        assert count_category(HandCategory.FULL_HOUSE, STANDARD_DECK) == 3744

    def test_flush_standard(self):
        assert count_category(HandCategory.FLUSH, STANDARD_DECK) == 5108

    def test_full_house_needs_three_suits(self):
        assert count_category(HandCategory.FULL_HOUSE,
                              DeckSpec(values=13, suits=2)) == 0

    def test_wild_decks_refused(self):
        with pytest.raises(WildCardsUnsupportedError):
            count_category(HandCategory.PAIR, DeckSpec(wilds=1))
        with pytest.raises(WildCardsUnsupportedError):
            probability(HandCategory.PAIR, DeckSpec(wilds=1))

    @pytest.mark.parametrize("category, quoted", [
        ("pair", "'pair'"), (None, "None"), (3, "3"), (True, "True"),
        (10 ** 5000, "a number of about 5001 digits")],
        ids=["slug", "none", "int", "bool", "int-too-long-to-print"])
    def test_unknown_category_refused(self, category, quoted):
        for answer in (count_category, probability, combinatorial_proof):
            with pytest.raises(InputError) as caught:
                answer(category, STANDARD_DECK)
            assert str(caught.value) == f"unknown category {quoted}"

    @pytest.mark.parametrize("slug", ["pa\u0131r", "\u017ftraight", "\ufb02ush",
                                      "four-of-a-\u212aind"],
                             ids=["dotless-i", "long-s", "fl-ligature",
                                  "kelvin-sign"])
    def test_non_ascii_slug_refused(self, slug):
        # str.upper or str.lower would map each of these onto an ASCII
        # member name.
        with pytest.raises(InputError, match="unknown hand category"):
            HandCategory.from_slug(slug)

    def test_slugs_resolve(self):
        for cat in HandCategory:
            assert HandCategory.from_slug(f" {cat.slug.upper()} ") is cat

    def test_straight_count_at_a_billion_values(self):
        V = 10 ** 9
        assert count_category(HandCategory.STRAIGHT, DeckSpec(values=V)) \
            == (V - 3) * (4 ** 5 - 4)

    def test_count_memory_does_not_grow_with_values(self):
        tracemalloc.start()
        try:
            count_category(HandCategory.STRAIGHT, DeckSpec(values=2_000_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_partition_of_sample_space(self, spec):
        total = sum(count_category(cat, spec) for cat in HandCategory)
        assert total == binomial(spec.size, 5)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_probabilities_sum_to_one(self, spec):
        total = sum(probability(cat, spec).fraction for cat in HandCategory)
        assert total == Fraction(1)


class TestProbability:
    def test_full_house_reduced(self):
        p = probability(HandCategory.FULL_HOUSE, STANDARD_DECK)
        assert (p.count, p.total) == (3744, 2598960)
        assert p.fraction == Fraction(6, 4165)

    def test_one_hand_deck_is_a_royal_flush(self):
        spec = DeckSpec(values=5, suits=1)
        assert probability(HandCategory.ROYAL_FLUSH, spec).fraction == 1
        assert probability(HandCategory.STRAIGHT_FLUSH, spec).fraction == 0
        assert probability(HandCategory.HIGH_CARD, spec).fraction == 0

    def test_format_shows_unreduced_reduced_and_decimal(self):
        text = probability(HandCategory.FULL_HOUSE, STANDARD_DECK).format()
        assert "3744/2598960" in text
        assert "6/4165" in text
        assert "0.00144058" in text

    @pytest.mark.parametrize("answer", [probability, combinatorial_proof],
                             ids=lambda answer: answer.__name__)
    def test_deck_too_large_to_print_is_refused(self, answer):
        # Counts of a deck of 10**5000 values have over 20,000 digits, more
        # than CPython converts to str.
        with pytest.raises(InputError, match="too large to print"):
            str(answer(HandCategory.PAIR, DeckSpec(values=10 ** 5000)))

    def test_largest_printable_deck_is_answered(self):
        # 5 * S cards, just under 2**2800, so every count is below 2**14000.
        suits = (2 ** 2800 - 1) // 5
        spec = DeckSpec(values=5, suits=suits)
        assert str(probability(HandCategory.STRAIGHT, spec))
        assert combinatorial_proof(HandCategory.STRAIGHT, spec).render_text()
        with pytest.raises(InputError, match="2801 bits, at most 2800"):
            probability(HandCategory.STRAIGHT, DeckSpec(values=5,
                                                        suits=suits + 1))


# The five closed-form answers, each asked for one pair.
CLOSED_FORM_ANSWERS = {
    "count_category": lambda spec: count_category(HandCategory.PAIR, spec),
    "probability": lambda spec: probability(HandCategory.PAIR, spec),
    "combinatorial_proof":
        lambda spec: combinatorial_proof(HandCategory.PAIR, spec),
    "determine_winner":
        lambda spec: determine_winner([("A", HandCategory.PAIR)], spec),
    "verify_closed_forms": verify_closed_forms,
}


class TestClosedFormGate:
    """_count_terms is the one gate that every closed-form answer shares: a
    deck too large to print is refused first, then a wild deck."""

    @pytest.mark.parametrize("spec, error", [
        (DeckSpec(values=10 ** 5000, wilds=1), DeckTooLargeError),
        (DeckSpec(wilds=1), WildCardsUnsupportedError),
        (DeckSpec(values=10 ** 5000), DeckTooLargeError),
    ], ids=["too-large-and-wild", "wild", "too-large"])
    @pytest.mark.parametrize("answer", CLOSED_FORM_ANSWERS.values(),
                             ids=CLOSED_FORM_ANSWERS.keys())
    def test_every_answer_refuses_alike(self, answer, spec, error):
        with pytest.raises(error):
            answer(spec)


class TestDetermineWinner:
    def test_bond_wins(self):
        report = determine_winner(
            [("Bond", HandCategory.FULL_HOUSE),
             ("Rogers", HandCategory.FLUSH),
             ("Ryan", HandCategory.STRAIGHT)], STANDARD_DECK)
        assert report.winner == "Bond"
        assert [n for n, _, _ in report.ranking] == ["Bond", "Rogers", "Ryan"]

    def test_takes_the_sample_space_once(self, monkeypatch):
        # Every entry's probability shares C(52, 5), so one call builds it.
        calls = []

        def counted(n, r):
            calls.append((n, r))
            return binomial(n, r)

        monkeypatch.setattr(hands, "binomial", counted)
        report = determine_winner(
            [("Bond", HandCategory.FULL_HOUSE),
             ("Rogers", HandCategory.FLUSH),
             ("Ryan", HandCategory.STRAIGHT)], STANDARD_DECK)
        assert calls.count((52, 5)) == 1
        assert [p for _, _, p in report.ranking] == [
            probability(c, STANDARD_DECK) for c in (
                HandCategory.FULL_HOUSE, HandCategory.FLUSH,
                HandCategory.STRAIGHT)]

    def test_identical_categories_tie(self):
        report = determine_winner(
            [("A", HandCategory.PAIR), ("B", HandCategory.PAIR)], STANDARD_DECK)
        assert report.winner is None
        assert report.tied == ("A", "B")

    def test_impossible_category_cannot_win(self):
        spec = DeckSpec(values=13, suits=2)
        report = determine_winner([("A", HandCategory.FULL_HOUSE)], spec)
        assert report.winner is None
        assert report.excluded == (("A", HandCategory.FULL_HOUSE),)

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            determine_winner([], STANDARD_DECK)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate player 'al'"):
            determine_winner([("al", HandCategory.FLUSH),
                              ("al", HandCategory.PAIR)], STANDARD_DECK)

    @settings(max_examples=50)
    @given(st.permutations([("Bond", HandCategory.FULL_HOUSE),
                            ("Rogers", HandCategory.FLUSH),
                            ("Ryan", HandCategory.STRAIGHT),
                            ("Moss", HandCategory.HIGH_CARD)]))
    def test_permutation_invariant(self, entries):
        report = determine_winner(entries, STANDARD_DECK)
        assert report.winner == "Bond"


class TestIntegerProbabilities:
    """Every probability of one deck has the denominator C(size, 5), so the
    library renders and ranks them on integers; a rendering and a ranking
    built with Fraction must agree with it."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_format_and_decimal_match_fraction(self, data):
        bits = data.draw(st.integers(1, 13_800))
        total = data.draw(st.integers(1, 2 ** bits))
        count = data.draw(st.integers(0, total))
        common = data.draw(st.sampled_from([1, 2, 6, 2 ** 64, 3 ** 120]))
        count, total = count * common, total * common  # below 2**14000
        frac = Fraction(count, total)
        decimal = "0" if count == 0 else f"{float(frac):.6g}"
        p = Probability(count, total)
        assert p.decimal() == decimal
        assert p.format() == (f"{count}/{total} = {frac.numerator}/"
                              f"{frac.denominator} ≈ {decimal}")

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from(SMALL_SPECS),
           entries=st.dictionaries(st.text(max_size=3),
                                   st.sampled_from(list(HandCategory)),
                                   min_size=1, max_size=6))
    def test_winner_matches_fraction_ranking(self, spec, entries):
        report = determine_winner(entries.items(), spec)
        scored = [(n, c, probability(c, spec)) for n, c in entries.items()]
        viable = sorted((e for e in scored if e[2].count > 0),
                        key=lambda e: (e[2].fraction, e[0]))
        lowest = [n for n, _, p in viable
                  if p.fraction == viable[0][2].fraction]
        assert report.ranking == tuple(viable)
        assert report.winner == (lowest[0] if len(lowest) == 1 else None)
        assert report.tied == (tuple(lowest) if len(lowest) > 1 else ())
        assert report.excluded == tuple((n, c) for n, c, p in scored
                                        if p.count == 0)


class TestCombinatorialProof:
    def test_full_house_product_line(self):
        doc = combinatorial_proof(HandCategory.FULL_HOUSE, STANDARD_DECK)
        assert "C(13,1)·C(4,3)·C(12,1)·C(4,2) = 3744" in doc.step_texts()

    def test_royal_flush_single_choice(self):
        doc = combinatorial_proof(HandCategory.ROYAL_FLUSH, STANDARD_DECK)
        assert "C(4,1) = 4" in doc.step_texts()

    def test_claim_opens_the_document(self):
        doc = combinatorial_proof(HandCategory.FLUSH, STANDARD_DECK)
        assert doc.steps[0].kind is StepKind.CLAIM
        assert doc.steps[-1].kind is StepKind.QED
        assert "5108" in doc.steps[0].text

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_claimed_count_matches_count_category(self, spec):
        for cat in HandCategory:
            doc = combinatorial_proof(cat, spec)
            assert f"exactly {count_category(cat, spec)} " in doc.steps[0].text

    @pytest.mark.parametrize("category, spec", [
        (HandCategory.FULL_HOUSE, STANDARD_DECK),
        (HandCategory.FOUR_OF_A_KIND, DeckSpec(values=6, suits=5)),
    ], ids=["one-term", "two-terms"])
    def test_builds_its_terms_once(self, category, spec, monkeypatch):
        calls = []

        def counted(build):
            def wrapper(*args):
                calls.append(build)
                return build(*args)
            return wrapper

        for cat, build in list(hands._TERMS.items()):
            monkeypatch.setitem(hands._TERMS, cat, counted(build))
        doc = combinatorial_proof(category, spec)
        assert len(calls) == 1
        two_terms = any(t.startswith("adding the disjoint cases")
                        for t in doc.step_texts())
        assert two_terms == (category is HandCategory.FOUR_OF_A_KIND)

    def test_division_step_names_the_sample_space(self):
        doc = combinatorial_proof(HandCategory.PAIR, STANDARD_DECK)
        assert any("C(52,5) = 2598960" in text for text in doc.step_texts())
