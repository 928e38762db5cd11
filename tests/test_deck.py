from itertools import product

import pytest
from hypothesis import given, strategies as st

from parlorproofs.deck import (AceRule, Card, CardParseError, DeckSpec, Hand,
                               InvalidDeckError, STANDARD_DECK, Wild, binomial,
                               parse_card, parse_hand)
from parlorproofs.errors import MAX_DIGITS, InputError
from parlorproofs.hands import classify

from independent import STANDARD_RANKS, token_card


def grammar_tokens():
    """Every ASCII token of up to 3 characters over the card alphabet in both
    cases, every 4-character token of V, S, W and digits, and tokens holding
    a character that str.upper or case folding reads as an ASCII one, a
    full-width digit or a newline."""
    alphabet = "0123456789ACDHJKQSTVW"
    alphabet += alphabet[10:].lower()
    for n in (1, 2, 3):
        yield from map("".join, product(alphabet, repeat=n))
    yield from map("".join, product("0123456789SVWsvw", repeat=4))
    # Long s reads as S, dotless i as I and the Kelvin sign as K.
    for odd in ("\u017f", "\u0131", "\u212a", "\uff11", "\uff10"):
        yield from (odd, "A" + odd, odd + "S", odd + "s", "1" + odd + "C",
                    "v1s" + odd, "v" + odd + "s1", "W" + odd, odd + "1")
    yield from ("AS\n", "10h\n", "v2s3\n", "w2\n", "A\nS", "v1\ns1")


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

    @pytest.mark.parametrize("ace_rule", ["both", "high_only", "x", None, 1])
    def test_ace_rule_must_be_an_ace_rule(self, ace_rule):
        # A string once passed and counted straights under the high-only
        # rule, whatever it said.
        with pytest.raises(InvalidDeckError,
                           match=f"^ace_rule must be an AceRule, got {ace_rule!r}$"):
            DeckSpec(ace_rule=ace_rule)

    @pytest.mark.parametrize("name", ["values", "suits", "wilds"])
    def test_negative_parameter_too_long_to_print_rejected(self, name):
        with pytest.raises(InvalidDeckError, match="about 5001 digits"):
            DeckSpec(**{name: -10 ** 5000})


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

    # Unicode case folding would read U+212A KELVIN SIGN as K and U+017F
    # LONG S as S.
    @pytest.mark.parametrize("text", ["", "ZZ", "1S", "A5", "AS extra",
                                      "\u212aS", "A\u017f"])
    def test_bad_tokens(self, text):
        with pytest.raises(CardParseError):
            parse_card(text)

    def test_grammar_matches_the_independent_regex(self):
        # A deck large enough for every number a 4-character token spells.
        spec = DeckSpec(values=999, suits=999, wilds=999)
        for token in grammar_tokens():
            want = token_card(token)
            try:
                got = parse_card(token, spec)
            except CardParseError as error:
                got = str(error)
            if want is None:
                assert got in ("empty card token",
                               f"unrecognized card token {token.strip()!r}"), \
                    repr(token)
            elif 0 in want[1:]:
                assert "not legal" in got, repr(token)
            elif want[0] == "wild":
                assert got == Wild(want[1]), repr(token)
            else:
                assert got == Card(want[1], want[2]), repr(token)

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
    def test_every_card_parses(self, spec):
        for value in range(1, spec.values + 1):
            for suit in range(1, spec.suits + 1):
                assert parse_card(f"v{value}s{suit}", spec) == Card(value, suit)
        for index in range(1, spec.wilds + 1):
            assert parse_card(f"W{index}", spec) == Wild(index)
        if (spec.values, spec.suits) != (13, 4):
            return
        for name, value in STANDARD_RANKS.items():
            for suit, s in zip("CDHS", range(1, 5)):
                assert parse_card(name + suit, spec) == Card(value, s)

    @pytest.mark.parametrize("text", [
        "v" + "1" * 5000 + "s1",
        "v1s" + "1" * 5000,
        "W" + "1" * 5000,
        "v" + "0" * MAX_DIGITS + "1s1",
    ], ids=["value", "suit", "wild", "padded"])
    def test_overlong_numbers_rejected(self, text):
        spec = DeckSpec(values=10 ** 5, suits=10 ** 5, wilds=10 ** 5)
        with pytest.raises(CardParseError, match="digits exceeds the limit"):
            parse_card(text, spec)

    @pytest.mark.parametrize("token", ["v0s1", "v1s0", "W0"])
    def test_range_error_names_a_deck_too_long_to_print(self, token):
        # 5,001-digit deck numbers are past CPython's int-to-str limit.
        big = 10 ** 5000
        with pytest.raises(CardParseError, match="about 5001 digits"):
            parse_card(token, DeckSpec(values=big, suits=big, wilds=big))

    def test_numbers_up_to_the_digit_limit_parse(self):
        digits = "0" * (MAX_DIGITS - 1) + "7"
        assert parse_card(f"v{digits}s{digits}", DeckSpec(values=7, suits=7)) \
            == Card(7, 7)


class TestParseHand:
    def test_royal_flush_tokens(self):
        hand = parse_hand("10S JS QS KS AS")
        assert isinstance(hand, Hand)
        assert len(hand.cards) == 5

    def test_duplicate_card_rejected(self):
        with pytest.raises(CardParseError):
            parse_hand("AS AS KS QS JS")

    @pytest.mark.parametrize("text, message", [
        ("v7s1 ZZ v1s1 v2s1 v3s1",
         "card of value 7 and suit 1 not legal for a deck of 6 values x 3 suits"),
        ("v1s1 AS ZZ v2s1 v3s1",
         "card of value 13 and suit 4 not legal for a deck of 6 values x 3 suits"),
        ("v1s1 ZZ v7s1 v2s1 v3s1", "unrecognized card token 'ZZ'"),
        ("v1s1 v2s1 W1 v9s9 v3s1",
         "wild index 1 not legal for a deck with 0 wilds"),
        ("v1s1 v1s1 v1s4 v2s1 v3s1",
         "card of value 1 and suit 4 not legal for a deck of 6 values x 3 suits"),
        ("v1s1 v1s1 v2s1 Q v3s1", "unrecognized card token 'Q'"),
        ("v1s1 2c v2s1 v3s1 v4s1", "duplicate card in hand"),
    ], ids=["deck-then-token", "standard-then-token", "token-then-deck",
            "wild-then-deck", "duplicate-then-deck", "duplicate-then-token",
            "duplicate"])
    def test_first_bad_token_decides(self, text, message):
        # Tokens are read in text order; the duplicate check comes last.
        with pytest.raises(CardParseError) as caught:
            parse_hand(text, DeckSpec(values=6, suits=3))
        assert str(caught.value) == message

    def test_ten_spelled_both_ways_is_a_duplicate(self):
        with pytest.raises(CardParseError, match="^duplicate card in hand$"):
            parse_hand("10s ts 2c 3c 4c")

    def test_wrong_count_rejected(self):
        with pytest.raises(CardParseError):
            parse_hand("AS KS QS JS")

    @pytest.mark.parametrize("values, got", [
        ((), 0), ((1, 2, 3, 4), 4), ((1, 2, 3, 4, 5, 6), 6),
        ((1, 1, 2, 3, 4), 4),
    ], ids=["empty", "four", "six", "repeated-card"])
    def test_built_directly_from_other_than_five_cards(self, values, got):
        with pytest.raises(InputError) as caught:
            Hand(Card(v, 1) for v in values)
        assert str(caught.value) == \
            f"a hand holds exactly 5 distinct cards, got {got}"

    # An object that is not a card once reached classify, which raised
    # AttributeError for a lack of is_wild.  The count is checked first.
    @pytest.mark.parametrize("other, quoted", [
        (5, "5"), ((5, 1), "(5, 1)"), ("AS", "'AS'"), (None, "None"),
        (10 ** 5000, "a number of about 5001 digits"),
    ], ids=["int", "tuple", "token", "none", "int-too-long-to-print"])
    def test_built_directly_from_other_than_cards(self, other, quoted):
        with pytest.raises(InputError) as caught:
            Hand([Card(v, 1) for v in range(1, 5)] + [other])
        assert str(caught.value) == \
            f"a hand holds only Card and Wild cards, got {quoted}"
        with pytest.raises(InputError, match="5 distinct cards, got 1$"):
            Hand([other] * 5)

    # frozenset(cards) once raised TypeError for these.
    @pytest.mark.parametrize("cards, reason", [
        ([[1], [2], [3], [4], [5]], "unhashable type: 'list'"),
        (5, "'int' object is not iterable"),
    ], ids=["unhashable", "not-iterable"])
    def test_built_directly_from_no_set_of_cards(self, cards, reason):
        with pytest.raises(InputError) as caught:
            Hand(cards)
        assert str(caught.value) == \
            f"a hand holds only Card and Wild cards: {reason}"


class TestCardFields:
    # A float value once classified a hand as HIGH_CARD, a float wild index
    # completed a PAIR, and a bool read as 0 or 1.
    @pytest.mark.parametrize("make, message", [
        (lambda: Card(1.5, 1), "card value must be an int, got 1.5"),
        (lambda: Card("a", 1), "card value must be an int, got 'a'"),
        (lambda: Card(True, 1), "card value must be an int, got True"),
        (lambda: Card(1, None), "card suit must be an int, got None"),
        (lambda: Card(2, 1.0), "card suit must be an int, got 1.0"),
        (lambda: Wild(1.0), "wild index must be an int, got 1.0"),
        (lambda: Wild(False), "wild index must be an int, got False"),
    ], ids=["float-value", "str-value", "bool-value", "none-suit",
            "float-suit", "float-index", "bool-index"])
    def test_fields_that_are_not_ints_rejected(self, make, message):
        with pytest.raises(CardParseError) as caught:
            make()
        assert str(caught.value) == message

    def test_any_int_is_a_field(self):
        # The deck decides the range, when a card meets it.
        big = 10 ** 5000
        assert Card(-1, big).suit == big and Wild(0).index == 0
        with pytest.raises(CardParseError, match="about 5001 digits"):
            classify(Hand([Card(-1, big)] + [Card(v, 1) for v in range(1, 5)]),
                     STANDARD_DECK)


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
