import pytest
from hypothesis import given, strategies as st

from parlorproofs.deck import (AceRule, Card, CardParseError, DeckSpec, Hand,
                               InvalidDeckError, STANDARD_DECK, Wild, binomial,
                               make_deck, parse_card, parse_hand, render_card)


class TestDeckSpec:
    def test_standard(self):
        assert STANDARD_DECK.size == 52
        assert STANDARD_DECK.ace_rule is AceRule.BOTH

    def test_minimal_legal_deck(self):
        assert DeckSpec(values=1, suits=5).size == 5

    @pytest.mark.parametrize("kwargs", [
        dict(values=2, suits=2),          # 4 cards, no 5-card hand
        dict(values=0, suits=4),
        dict(values=13, suits=0),
        dict(values=13, suits=4, wilds=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidDeckError):
            DeckSpec(**kwargs)

    def test_wilds_can_complete_a_deck(self):
        assert DeckSpec(values=2, suits=2, wilds=1).size == 5

    @pytest.mark.parametrize("kwargs", [
        dict(values=13.5),
        dict(values="13"),
        dict(values=True, suits=5),
        dict(suits=4.0),
        dict(suits=False),
        dict(wilds=1.0),
        dict(wilds=True),
    ])
    def test_non_integer_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidDeckError, match="must be an int"):
            DeckSpec(**kwargs)


class TestMakeDeck:
    def test_standard_has_52_cards(self):
        assert len(make_deck(STANDARD_DECK)) == 52

    def test_one_value_five_suits(self):
        deck = make_deck(DeckSpec(values=1, suits=5))
        assert len(deck) == 5
        assert all(c.value == 1 for c in deck)

    def test_wilds_come_last(self):
        deck = make_deck(DeckSpec(values=2, suits=2, wilds=2))
        assert deck[-2:] == [Wild(1), Wild(2)]
        assert len(deck) == 6

    def test_all_cards_distinct(self):
        deck = make_deck(DeckSpec(values=6, suits=3, wilds=2))
        assert len(set(deck)) == len(deck) == 20


class TestParseCard:
    def test_ace_of_spades(self):
        assert parse_card("AS") == Card(13, 4)

    def test_ten_both_spellings(self):
        assert parse_card("10C") == parse_card("TC") == Card(9, 1)

    def test_generic_form(self):
        assert parse_card("v1s1", DeckSpec(values=1, suits=5)) == Card(1, 1)

    def test_wild(self):
        assert parse_card("W1", DeckSpec(wilds=1)) == Wild(1)

    def test_case_insensitive(self):
        assert parse_card("as") == Card(13, 4)
        assert parse_card("V3S2", DeckSpec(values=6, suits=3)) == Card(3, 2)

    @pytest.mark.parametrize("text", ["", "ZZ", "1S", "A5", "AS extra"])
    def test_bad_tokens(self, text):
        with pytest.raises(CardParseError):
            parse_card(text)

    def test_out_of_range_for_spec(self):
        small = DeckSpec(values=6, suits=3)
        with pytest.raises(CardParseError):
            parse_card("v7s1", small)
        with pytest.raises(CardParseError):
            parse_card("v1s4", small)
        with pytest.raises(CardParseError):
            parse_card("W1", STANDARD_DECK)  # no wilds in the deck

    @pytest.mark.parametrize("spec", [
        STANDARD_DECK,
        DeckSpec(values=6, suits=3, wilds=2),
        DeckSpec(values=1, suits=5),
        DeckSpec(values=13, suits=4, wilds=3),
    ])
    def test_round_trip_every_card(self, spec):
        for card in make_deck(spec):
            assert parse_card(render_card(card, spec), spec) == card


class TestParseHand:
    def test_royal_flush_tokens(self):
        hand = parse_hand("10S JS QS KS AS")
        assert isinstance(hand, Hand)
        assert len(hand.naturals) == 5

    def test_duplicate_card_rejected(self):
        with pytest.raises(CardParseError):
            parse_hand("AS AS KS QS JS")

    def test_wrong_count_rejected(self):
        with pytest.raises(CardParseError):
            parse_hand("AS KS QS JS")


class TestBinomial:
    def test_known_value(self):
        # n! / ((n-r)! r!) computed independently
        import math
        n, r = 52, 5
        expected = math.factorial(n) // (math.factorial(n - r) * math.factorial(r))
        assert binomial(52, 5) == expected == 2_598_960

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    @given(st.integers(min_value=0, max_value=100))
    def test_identities(self, n):
        assert binomial(n, 0) == 1
        assert binomial(n, n) == 1

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=100))
    def test_symmetry(self, n, r):
        if r <= n:
            assert binomial(n, r) == binomial(n, n - r)

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
    def test_pascal_recurrence(self, n, r):
        if r <= n:
            assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)

    def test_exact_big_integers(self):
        assert binomial(100, 50) == 100891344545564193334812497256
