"""Cards, generalized decks, and exact binomial arithmetic.

A deck is parameterized by a number of values V (ordered 1..V, with V the
highest, the "ace"), a number of suits S, and a number of extra wild cards W.
All counting here is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from .errors import InputError, parse_digits, render_int


class InvalidDeckError(InputError):
    """Deck parameters violate a structural bound (named in the message)."""


class CardParseError(InputError):
    """A card token could not be parsed, or the deck does not hold the
    card."""


class AceRule(Enum):
    """Whether the top value may also sit below value 1 in a straight."""

    BOTH = "both"
    HIGH_ONLY = "high_only"


@dataclass(frozen=True)
class DeckSpec:
    """Parameters of a generalized deck: V values x S suits plus W wilds."""

    values: int = 13
    suits: int = 4
    wilds: int = 0
    ace_rule: AceRule = AceRule.BOTH

    def __post_init__(self) -> None:
        for name in ("values", "suits", "wilds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidDeckError(f"{name} must be an int, got {value!r}")
        if self.values < 1:
            raise InvalidDeckError(
                f"values must be >= 1, got {render_int(self.values)}")
        if self.suits < 1:
            raise InvalidDeckError(
                f"suits must be >= 1, got {render_int(self.suits)}")
        if self.wilds < 0:
            raise InvalidDeckError(
                f"wilds must be >= 0, got {render_int(self.wilds)}")
        if self.size < 5:
            raise InvalidDeckError(
                f"deck must hold at least 5 cards for a hand; "
                f"{self.values}*{self.suits}+{self.wilds} = {self.size} < 5"
            )

    @property
    def size(self) -> int:
        return self.values * self.suits + self.wilds


STANDARD_DECK = DeckSpec(values=13, suits=4, wilds=0, ace_rule=AceRule.BOTH)


@dataclass(frozen=True, order=True)
class Card:
    """A natural (value, suit) card; values and suits are 1-based."""

    value: int
    suit: int
    is_wild = False


@dataclass(frozen=True, order=True)
class Wild:
    """A wild card, distinguishable from its siblings only by index."""

    index: int
    is_wild = True


AnyCard = Union[Card, Wild]


@dataclass(frozen=True)
class Hand:
    """An unordered hand of exactly 5 distinct cards."""

    cards: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        cards = frozenset(self.cards)
        object.__setattr__(self, "cards", cards)
        if len(cards) != 5:
            raise InputError(f"a hand holds exactly 5 distinct cards, got {len(cards)}")

    @property
    def naturals(self) -> tuple:
        return tuple(sorted(c for c in self.cards if not c.is_wild))

    @property
    def wilds(self) -> tuple:
        return tuple(sorted(c for c in self.cards if c.is_wild))


# Standard 52-card token grammar.  Value tokens map onto the 1..13 order with
# the ace highest: 2 -> 1, 3 -> 2, ..., 10/T -> 9, J -> 10, Q -> 11, K -> 12,
# A -> 13.  Suits: C, D, H, S -> 1..4.
_STANDARD_VALUES = {
    "2": 1, "3": 2, "4": 3, "5": 4, "6": 5, "7": 6, "8": 7, "9": 8,
    "10": 9, "T": 9, "J": 10, "Q": 11, "K": 12, "A": 13,
}
_STANDARD_SUITS = {"C": 1, "D": 2, "H": 3, "S": 4}

_STANDARD_RE = re.compile(r"^(10|[2-9TJQKA])([CDHS])$", re.IGNORECASE)
_GENERIC_RE = re.compile(r"^V([0-9]+)S([0-9]+)$", re.IGNORECASE)
_WILD_RE = re.compile(r"^W([0-9]+)$", re.IGNORECASE)


def parse_card(text: str, spec: DeckSpec = STANDARD_DECK) -> AnyCard:
    """Parse a card token (standard "AS", generic "v13s4", or wild "W1")."""
    token = text.strip()
    if not token:
        raise CardParseError("empty card token")

    if m := _WILD_RE.match(token):
        card = Wild(parse_digits(m.group(1), CardParseError, "wild index"))
    elif m := _GENERIC_RE.match(token):
        card = Card(parse_digits(m.group(1), CardParseError, "card value"),
                    parse_digits(m.group(2), CardParseError, "card suit"))
    elif m := _STANDARD_RE.match(token):
        card = Card(_STANDARD_VALUES[m.group(1).upper()],
                    _STANDARD_SUITS[m.group(2).upper()])
    else:
        raise CardParseError(f"unrecognized card token {token!r}")
    check_cards((card,), spec)
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
    cards = [parse_card(t, spec) for t in tokens]
    if len(set(cards)) != 5:
        raise CardParseError("duplicate card in hand")
    return Hand(frozenset(cards))


def binomial(n: int, r: int) -> int:
    """C(n, r), exact; 0 when r < 0 or r > n."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)
