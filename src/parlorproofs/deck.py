"""Cards, generalized decks, and exact binomial arithmetic.

A deck is parameterized by a number of values V (ordered 1..V, with V the
highest, the "ace"), a number of suits S, and a number of extra wild cards W.
All counting here is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Union

from .errors import InputError, parse_digits, quote, render_int


class InvalidDeckError(InputError):
    """Deck parameters violate a structural bound (named in the message)."""


class CardParseError(InputError):
    """A card token could not be parsed, or the deck does not hold the
    card."""


class AceRule(Enum):
    """Whether the top value may also sit below value 1 in a straight."""

    BOTH = "both"
    HIGH_ONLY = "high_only"


_set = object.__setattr__  # fills a slot past the refusing __setattr__ below


class _Value:
    """Immutable fields named in __slots__: equal and hashed by their
    values, against the same class only, and shown as Name(field=...)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _require_int(value, name: str, error: type) -> None:
    """Raise `error`, an InputError subclass, unless value is an int; a bool
    is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, got {quote(value)}")


class DeckSpec(_Value):
    """Parameters of a generalized deck: V values x S suits plus W wilds."""

    __slots__ = ("values", "suits", "wilds", "ace_rule")

    def __init__(self, values: int = 13, suits: int = 4, wilds: int = 0,
                 ace_rule: AceRule = AceRule.BOTH) -> None:
        for name, value, least in zip(self.__slots__, (values, suits, wilds),
                                      (1, 1, 0)):
            _require_int(value, name, InvalidDeckError)
            if value < least:
                raise InvalidDeckError(
                    f"{name} must be >= {least}, got {render_int(value)}")
            _set(self, name, value)
        if not isinstance(ace_rule, AceRule):
            raise InvalidDeckError(
                f"ace_rule must be an AceRule, got {quote(ace_rule)}")
        _set(self, "ace_rule", ace_rule)
        if self.size < 5:
            raise InvalidDeckError(
                f"deck must hold at least 5 cards for a hand; "
                f"{values}*{suits}+{wilds} = {self.size} < 5"
            )

    @property
    def size(self) -> int:
        return self.values * self.suits + self.wilds


STANDARD_DECK = DeckSpec(values=13, suits=4, wilds=0, ace_rule=AceRule.BOTH)


class Card(_Value):
    """A natural (value, suit) card; values and suits are 1-based ints."""

    __slots__ = ("value", "suit")
    is_wild = False

    def __init__(self, value: int, suit: int) -> None:
        # Exact ints, as every parsed card holds, need no call.
        if type(value) is not int or type(suit) is not int:
            _require_int(value, "card value", CardParseError)
            _require_int(suit, "card suit", CardParseError)
        _set(self, "value", value)
        _set(self, "suit", suit)

    def _key(self) -> tuple:
        return self.value, self.suit

    def __hash__(self) -> int:  # hashed for each card of each parsed hand
        return hash((self.value, self.suit))


class Wild(_Value):
    """A wild card, distinguishable from its siblings only by index."""

    __slots__ = ("index",)
    is_wild = True

    def __init__(self, index: int) -> None:
        if type(index) is not int:
            _require_int(index, "wild index", CardParseError)
        _set(self, "index", index)


_CARD_TYPES = frozenset({Card, Wild})


class Hand(_Value):
    """An unordered hand of exactly 5 distinct cards, Card or Wild."""

    __slots__ = ("cards",)

    def __init__(self, cards: Iterable) -> None:
        cards = frozenset(cards)
        if len(cards) != 5:
            raise InputError(f"a hand holds exactly 5 distinct cards, got {len(cards)}")
        if not _CARD_TYPES.issuperset(map(type, cards)):
            other = next(c for c in cards if type(c) not in _CARD_TYPES)
            raise InputError(
                f"a hand holds only Card and Wild cards, got {quote(other)}")
        _set(self, "cards", cards)

    @property
    def wilds(self) -> tuple:
        # Kept only for the benchmark's tracing, which labels each
        # classify_with_wilds span by the number of wilds in its hand.
        return tuple(c for c in self.cards if c.is_wild)


# Standard 52-card token grammar.  Value tokens map onto the 1..13 order with
# the ace highest: 2 -> 1, 3 -> 2, ..., 10/T -> 9, J -> 10, Q -> 11, K -> 12,
# A -> 13.  Suits: C, D, H, S -> 1..4.
_STANDARD_VALUES = {
    "2": 1, "3": 2, "4": 3, "5": 4, "6": 5, "7": 6, "8": 7, "9": 8,
    "10": 9, "T": 9, "J": 10, "Q": 11, "K": 12, "A": 13,
}
_STANDARD_SUITS = {"C": 1, "D": 2, "H": 3, "S": 4}
# Every standard token, upper-cased, and its card: one lookup reads it.
_STANDARD_CARDS = {value + suit: Card(v, s)
                   for value, v in _STANDARD_VALUES.items()
                   for suit, s in _STANDARD_SUITS.items()}

# ASCII only: Unicode case folding reads "\u212aS" (Kelvin sign) as "KS", and
# str.upper reads "A\u017f" (long s) as "AS", so only an ASCII token is
# upper-cased for the table above.
_NUMBERED_RE = re.compile(r"V([0-9]+)S([0-9]+)|W([0-9]+)",
                          re.IGNORECASE | re.ASCII)


def parse_card(text: str, spec: DeckSpec = STANDARD_DECK) -> Union[Card, Wild]:
    """Parse a card token (standard "AS", generic "v13s4", or wild "W1")."""
    card = _read_card(text)
    check_cards((card,), spec)
    return card


def _read_card(text: str) -> Union[Card, Wild]:
    """The card a token spells, in or out of any deck."""
    token = text.strip()
    card = _STANDARD_CARDS.get(token.upper()) if token.isascii() else None
    if card is None:
        if not token:
            raise CardParseError("empty card token")
        m = _NUMBERED_RE.fullmatch(token)
        if m is None:
            raise CardParseError(f"unrecognized card token {quote(token)}")
        value, suit, index = m.groups()
        if index is None:
            card = Card(parse_digits(value, CardParseError, "card value"),
                        parse_digits(suit, CardParseError, "card suit"))
        else:
            card = Wild(parse_digits(index, CardParseError, "wild index"))
    return card


def check_cards(cards: Iterable, spec: DeckSpec) -> None:
    """Raise CardParseError unless the deck holds every card."""
    for card in cards:
        if card.is_wild:
            if not 1 <= card.index <= spec.wilds:
                raise CardParseError(
                    f"wild index {render_int(card.index)} not legal for a "
                    f"deck with {render_int(spec.wilds)} wilds")
        elif not (1 <= card.value <= spec.values and 1 <= card.suit <= spec.suits):
            raise CardParseError(
                f"card of value {render_int(card.value)} and suit "
                f"{render_int(card.suit)} not legal for a deck of "
                f"{render_int(spec.values)} values x "
                f"{render_int(spec.suits)} suits")


def parse_hand(text: str, spec: DeckSpec = STANDARD_DECK) -> Hand:
    """Parse five whitespace-separated card tokens into a Hand."""
    tokens = text.split()
    if len(tokens) != 5:
        raise CardParseError(f"a hand needs 5 card tokens, got {len(tokens)}")
    cards = []
    for token in tokens:
        try:
            cards.append(_read_card(token))
        except CardParseError:
            # The first bad token decides: a card before it that the deck
            # lacks is named, else the token itself.
            check_cards(cards, spec)
            raise
    check_cards(cards, spec)
    distinct = frozenset(cards)
    if len(distinct) != 5:
        raise CardParseError("duplicate card in hand")
    return Hand(distinct)


def binomial(n: int, r: int) -> int:
    """C(n, r), exact; 0 when r < 0 or r > n."""
    return math.comb(n, r) if 0 <= r <= n else 0
