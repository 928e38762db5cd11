"""Hand categories: classification, exact counts, probabilities, winners,
and combinatorial counting proofs for any wild-free deck.

Counts are closed-form products of binomials; the enumeration oracle in
`parlorproofs.oracle` provides the independent cross-check.
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import partial
from operator import countOf, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .deck import AceRule, DeckSpec, Hand, binomial, check_cards
from .errors import InputError, quote
from .proofdoc import ProofDocument, ProofStep, StepKind


class WildCardsUnsupportedError(InputError):
    """Closed-form counts do not cover wild decks; use oracle.tally_all."""


class WildInHandError(InputError):
    """classify() got a wild card; classify_with_wilds handles those."""


class DeckTooLargeError(InputError):
    """The deck's counts are too long to print; see require_printable."""


# Every count and total of a deck is below size**5.  CPython prints no int of
# more than 4,300 digits (about 14,284 bits), so a deck whose size has more
# bits than this is refused before any answer is built.
MAX_DECK_BITS = 14_000 // 5


def require_printable(spec: DeckSpec) -> None:
    """Raise DeckTooLargeError when the deck's size has more than
    MAX_DECK_BITS bits, so that its counts could not be printed."""
    bits = spec.size.bit_length()
    if bits > MAX_DECK_BITS:
        raise DeckTooLargeError(
            f"deck too large to print its counts: its size has {bits} bits, "
            f"at most {MAX_DECK_BITS} are allowed")


class HandCategory(IntEnum):
    """The ten categories, ordered by precedence (1 is strongest)."""

    ROYAL_FLUSH = 1
    STRAIGHT_FLUSH = 2
    FOUR_OF_A_KIND = 3
    FULL_HOUSE = 4
    FLUSH = 5
    STRAIGHT = 6
    THREE_OF_A_KIND = 7
    TWO_PAIR = 8
    PAIR = 9
    HIGH_CARD = 10

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def slug(self) -> str:
        return _SLUGS[self]

    @classmethod
    def from_slug(cls, slug: str) -> "HandCategory":
        key = slug.strip().replace("_", "-")
        # str.lower maps the Kelvin sign (U+212A) onto k.
        member = _BY_SLUG.get(key.lower()) if key.isascii() else None
        if member is None:
            raise InputError(f"unknown hand category {quote(slug)}")
        return member


# Each member's slug and label, indexed by its value, read by the properties
# above: Enum.name is a Python-level descriptor, and a CLI line or a count
# request reads a name per category.
_SLUGS = (None, *(c.name.replace("_", "-").lower() for c in HandCategory))
_LABELS = (None, *(c.name.replace("_", " ").title() for c in HandCategory))
_BY_SLUG = dict(zip(_SLUGS[1:], HandCategory))


# The members as module names, for the classifiers that the oracle calls once
# per class: on CPython 3.11 a lookup on an Enum class, such as
# HandCategory.PAIR, goes through EnumType.__getattr__ and costs ~8x a global.
CATEGORIES = tuple(HandCategory)  # in precedence order
(ROYAL_FLUSH, STRAIGHT_FLUSH, FOUR_OF_A_KIND, FULL_HOUSE, FLUSH, STRAIGHT,
 THREE_OF_A_KIND, TWO_PAIR, PAIR, HIGH_CARD) = CATEGORIES
_ACE_LOW = AceRule.BOTH
_value, _suit = itemgetter(0), itemgetter(1)


def _run_count(spec: DeckSpec) -> int:
    """Number of 5-value consecutive runs: V-4, plus the wheel {V,1,2,3,4}
    when aces play low and V > 5 (for V = 5 the wheel is the only run)."""
    V = spec.values
    if V < 5:
        return 0
    return V - 4 + (V > 5 and spec.ace_rule is _ACE_LOW)


def classify_pairs(pairs: Sequence, spec: DeckSpec) -> HandCategory:
    """Classify five (value, suit) pairs from their value multiplicities.

    Accepts multisets in any order; a hand with 5 copies of one value maps
    to FOUR_OF_A_KIND, the strongest applicable category in the ten-way
    taxonomy.  Pairs are not range-checked.  The number of distinct values
    decides: five are sorted once for the run and wheel tests, four make a
    pair, and with three or two the count of the first value (and of the
    second, when the first is held once) tells the shapes apart.  The
    oracle calls this once per class, so it returns the module's names for
    the HandCategory members and looks up no Enum attribute.
    """
    (v1, s1), (v2, s2), (v3, s3), (v4, s4), (v5, s5) = pairs
    distinct = {v1, v2, v3, v4, v5}
    m = len(distinct)
    if m == 5:
        flush = s1 == s2 == s3 == s4 == s5
        lo, _, _, fourth, hi = sorted(distinct)
        if hi - lo == 4:
            if flush:
                return ROYAL_FLUSH if hi == spec.values else STRAIGHT_FLUSH
            return STRAIGHT
        # Five distinct values with the fourth at 4 are {1,2,3,4,hi}.
        if fourth == 4 and hi == spec.values and spec.ace_rule is _ACE_LOW:
            return STRAIGHT_FLUSH if flush else STRAIGHT
        return FLUSH if flush else HIGH_CARD
    if m == 4:
        return PAIR
    values = (v1, v2, v3, v4, v5)
    count = values.count(v1)
    if m == 3:
        # Counts 2+2+1 or 3+1+1: v1 held twice, or once with v2 twice,
        # make two pair.
        if count == 1:
            count = values.count(v2)
        return TWO_PAIR if count == 2 else THREE_OF_A_KIND
    if m == 2:
        # Counts 3+2 or 4+1.
        return FULL_HOUSE if count == 2 or count == 3 else FOUR_OF_A_KIND
    return FOUR_OF_A_KIND  # five copies of one value


def _naturals(cards: Iterable) -> list:
    """The (value, suit) pairs of the natural cards, in no order."""
    return [(c.value, c.suit) for c in cards if not c.is_wild]


def classify(hand: Hand, spec: DeckSpec) -> HandCategory:
    """The unique highest-precedence category a wild-free hand satisfies."""
    naturals = _naturals(hand.cards)
    if len(naturals) < 5:
        raise WildInHandError("hand contains wilds; use classify_with_wilds")
    check_cards(hand.cards, spec)
    return classify_pairs(naturals, spec)


def best_completion(naturals: Sequence, n_wilds: int,
                    spec: DeckSpec) -> HandCategory:
    """Best category of the held (value, suit) pairs `naturals` completed by
    n_wilds >= 1 wilds, each standing for any natural card, held ones
    included.

    Decided from the held cards alone, in O(1) for a 5-card hand.  With
    `top` the largest held value count, the first line that holds wins:
    royal or straight flush when V >= 5 and the held values are distinct,
    suited and fit a run (royal when all of them are >= V-4); four of a kind
    when top + k >= 4; full house with at most two held values; flush when
    V >= 5 and the held values are distinct and suited; straight when V >= 5
    and they are distinct and fit a run; three of a kind when top + k >= 3;
    otherwise a pair.  `top` comes from the held value set: for at most four
    held cards, every input with k >= 1, a repeated value makes it
    held - distinct + 1, less one for two pairs (four cards in two values,
    the first card's value held twice); only distinct values are sorted.
    """
    distinct = set(map(_value, naturals))
    held, m = len(naturals), len(distinct)
    if m < held:
        # A repeated value rules out flushes and straights; top + k >= 3.
        same = held - m + 1 + n_wilds
        if m == 2 and held == 4 and \
                countOf(map(_value, naturals), naturals[0][0]) == 2:
            same -= 1  # two pairs
        if same >= 4:
            return FOUR_OF_A_KIND
        return FULL_HOUSE if m <= 2 else THREE_OF_A_KIND

    V = spec.values
    suited = run = False
    if V >= 5:
        values = sorted(distinct)
        suited = len(set(map(_suit, naturals))) <= 1
        # Distinct values fit a run when they span at most five, or, with the
        # ace playing low, when all but the top one are <= 4 and it is V.
        run = (not values or values[-1] - values[0] <= 4
               or (spec.ace_rule is _ACE_LOW and values[-2] <= 4
                   and values[-1] == V))
    if suited and run:
        royal = not values or values[0] >= V - 4
        return ROYAL_FLUSH if royal else STRAIGHT_FLUSH
    same = bool(held) + n_wilds  # the top count is 1, or 0 with no naturals
    if same >= 4:
        return FOUR_OF_A_KIND
    # Three or more distinct values are held here (fewer leave k >= 3 wilds
    # and four of a kind), so no full house is in reach.
    if suited:
        return FLUSH
    if run:
        return STRAIGHT
    return THREE_OF_A_KIND if same >= 3 else PAIR


def classify_with_wilds(hand: Hand, spec: DeckSpec) -> HandCategory:
    """Best category over all substitutions of each wild by any natural card,
    as decided by best_completion.

    Substitutions may duplicate cards already held: a wild standing in for
    a card's value and suit is legal.  Five cards of one value count as
    FOUR_OF_A_KIND, the strongest category of the ten that they satisfy.
    """
    check_cards(hand.cards, spec)
    naturals = _naturals(hand.cards)
    n_wilds = 5 - len(naturals)
    if n_wilds == 0:
        return classify_pairs(naturals, spec)
    return best_completion(naturals, n_wilds, spec)


def count_category(category: HandCategory, spec: DeckSpec) -> int:
    """Closed-form count of 5-card hands in `category`; 0 when impossible.
    It refuses what _count_terms, the closed forms' one gate, refuses."""
    count = 0
    for term in _count_terms(category, spec):
        count += _term_product(term)
    return count


class Probability(NamedTuple):
    """Exact probability: unreduced count/total plus the reduced fraction."""

    count: int
    total: int

    @property
    def fraction(self):
        from fractions import Fraction
        return Fraction(self.count, self.total)

    def decimal(self) -> str:
        """Decimal rendering to 6 significant digits (approximate); int/int
        division rounds correctly, as float(self.fraction) does."""
        if self.count == 0:
            return "0"
        return f"{self.count / self.total:.6g}"

    def format(self) -> str:
        g = math.gcd(self.count, self.total)
        return (f"{self.count}/{self.total} = "
                f"{self.count // g}/{self.total // g} ≈ {self.decimal()}")


# Builds a Probability from a pair without NamedTuple's Python-level __new__.
_new_probability = partial(tuple.__new__, Probability)


def probability(category: HandCategory, spec: DeckSpec) -> Probability:
    """count_category over the C(V*S, 5) sample space, exact."""
    return _new_probability((count_category(category, spec),
                             binomial(spec.size, 5)))


class WinnerReport(NamedTuple):
    """Outcome of the lowest-probability-wins rule.

    `winner` is set for a unique winner; `tied` lists all minimal players
    when probabilities are equal; `excluded` holds entries whose category
    cannot occur in the deck (probability 0).
    """

    winner: Optional[str]
    tied: tuple
    excluded: tuple
    ranking: tuple  # (name, category, Probability), best first


def determine_winner(entries: Iterable, spec: DeckSpec) -> WinnerReport:
    """Apply the rule that the hand with the lowest probability wins."""
    entries = list(entries)
    if not entries:
        raise InputError("no players given")
    seen: set = set()
    for name, _ in entries:
        if name in seen:
            raise InputError(f"duplicate player {quote(name)}")
        seen.add(name)

    counts = [count_category(cat, spec) for _, cat in entries]
    # One deck's probabilities share C(size, 5), taken once the gate has
    # passed the first count, so the counts rank them.
    total = binomial(spec.size, 5)
    scored = [(name, cat, _new_probability((count, total)))
              for (name, cat), count in zip(entries, counts)]
    excluded = tuple((name, cat) for name, cat, p in scored if p.count == 0)
    ranking = tuple(sorted((e for e in scored if e[2].count > 0),
                           key=lambda e: (e[2].count, e[0])))
    minimal = tuple(name for name, _, p in ranking
                    if p.count == ranking[0][2].count)
    winner = minimal[0] if len(minimal) == 1 else None
    return WinnerReport(winner, minimal if len(minimal) > 1 else (), excluded, ranking)


# --- combinatorial proof documents -----------------------------------------


# A factor is (value, desc, template, args); the formula text is
# template.format(*args), built only when a proof document is rendered.

def _choose(n: int, r: int, desc: str) -> tuple:
    # binomial's rule, without a second Python call per factor.
    return (math.comb(n, r) if 0 <= r <= n else 0, desc, "C({},{})", (n, r))


def _power(base: int, exp: int, desc: str) -> tuple:
    return (base ** exp, desc, "{}^{}", (base, exp))


def _non_run_values(V: int, R: int) -> tuple:
    return (binomial(V, 5) - R,
            "choose 5 values that do not form a consecutive run",
            "(C({},5) - {})", (V, R))


def _mixed_suits(S: int) -> tuple:
    return (S ** 5 - S,
            "choose a suit for each value, excluding the all-one-suit picks",
            "({}^5 - {})", (S, S))


def _royal_flush(V: int, S: int, R: int) -> list:
    if V < 5:
        return []
    return [[_choose(S, 1, "choose the suit of the top run")]]


def _straight_flush(V: int, S: int, R: int) -> list:
    return [[
        _choose(R - 1, 1, "choose a run of 5 consecutive values below the top run"),
        _choose(S, 1, "choose the shared suit"),
    ]]


def _four_of_a_kind(V: int, S: int, R: int) -> list:
    terms = [[
        _choose(V, 1, "choose the value appearing four times"),
        _choose(S, 4, "choose 4 of the suits for that value"),
        _choose(V - 1, 1, "choose the value of the additional card"),
        _choose(S, 1, "choose its suit"),
    ]]
    if S >= 5:
        terms.append([
            _choose(V, 1, "choose a value appearing five times"),
            _choose(S, 5, "choose 5 of its suits"),
        ])
    return terms


def _full_house(V: int, S: int, R: int) -> list:
    return [[
        _choose(V, 1, "choose the value for the triple"),
        _choose(S, 3, "choose 3 of the suits for the triple"),
        _choose(V - 1, 1, "choose a different value for the pair"),
        _choose(S, 2, "choose 2 of the suits for the pair"),
    ]]


def _flush(V: int, S: int, R: int) -> list:
    return [[_choose(S, 1, "choose the shared suit"), _non_run_values(V, R)]]


def _straight(V: int, S: int, R: int) -> list:
    return [[_choose(R, 1, "choose the run of 5 consecutive values"),
             _mixed_suits(S)]]


def _three_of_a_kind(V: int, S: int, R: int) -> list:
    return [[
        _choose(V, 1, "choose the value for the triple"),
        _choose(S, 3, "choose 3 of the suits for the triple"),
        _choose(V - 1, 2, "choose 2 different values for the remaining cards"),
        _power(S, 2, "choose a suit for each of those values"),
    ]]


def _two_pair(V: int, S: int, R: int) -> list:
    return [[
        _choose(V, 2, "choose the two paired values"),
        (binomial(S, 2) ** 2, "choose 2 suits for each pair", "C({},2)^2", (S,)),
        _choose(V - 2, 1, "choose the value of the additional card"),
        _choose(S, 1, "choose its suit"),
    ]]


def _pair(V: int, S: int, R: int) -> list:
    return [[
        _choose(V, 1, "choose the paired value"),
        _choose(S, 2, "choose 2 of its suits"),
        _choose(V - 1, 3, "choose 3 different values for the remaining cards"),
        _power(S, 3, "choose a suit for each of those values"),
    ]]


def _high_card(V: int, S: int, R: int) -> list:
    return [[_non_run_values(V, R), _mixed_suits(S)]]


# A table rather than an if-chain on the category: count requests are short,
# and each HandCategory member lookup in a chain costs as much as a factor.
_TERMS = dict(zip(HandCategory, (  # in HandCategory order
    _royal_flush, _straight_flush, _four_of_a_kind, _full_house, _flush,
    _straight, _three_of_a_kind, _two_pair, _pair, _high_card)))


def _count_terms(category: HandCategory, spec: DeckSpec) -> list:
    """Choice-step factorizations per category; count = sum of term products.
    The closed forms' one gate, which every closed-form answer goes through:
    it refuses a deck too large to print, then a wild deck, then an unknown
    category."""
    require_printable(spec)
    if spec.wilds > 0:
        raise WildCardsUnsupportedError(
            "closed-form counts are defined for wild-free decks only; "
            "use oracle.tally_all for decks with wilds")
    # HandCategory is an IntEnum, so a plain int or bool would find a term.
    if not isinstance(category, HandCategory):
        raise InputError(f"unknown category {quote(category)}")
    return _TERMS[category](spec.values, spec.suits, _run_count(spec))


def combinatorial_proof(category: HandCategory, spec: DeckSpec) -> ProofDocument:
    """Claim-Proof counting document: its count is the sum of the term
    products it prints, so it refuses what _count_terms refuses."""
    terms = _count_terms(category, spec)
    products = [_term_product(term) for term in terms]
    count, total_hands = sum(products), binomial(spec.size, 5)
    prob_text = _new_probability((count, total_hands)).format()
    deck_desc = f"a deck with {spec.values} values and {spec.suits} suits"

    steps = [ProofStep(
        StepKind.CLAIM,
        f"There are exactly {count} {category.label} hands in {deck_desc}; "
        f"the probability of drawing one is {prob_text}.",
    )]
    if count == 0:
        steps.append(ProofStep(
            StepKind.OBSERVATION,
            f"No 5-card hand of {deck_desc} can satisfy the {category.label} "
            f"definition, so the count is 0.",
        ))
    else:
        for term, product in zip(terms, products):
            formulas = [template.format(*args) for _, _, template, args in term]
            for (value, desc, _, _), formula in zip(term, formulas):
                steps.append(ProofStep(
                    StepKind.COMPUTATION, f"{desc}: {formula} = {value}",
                ))
            steps.append(ProofStep(
                StepKind.COMPUTATION, "·".join(formulas) + f" = {product}",
            ))
        if len(terms) > 1:
            steps.append(ProofStep(
                StepKind.COMPUTATION,
                "adding the disjoint cases: "
                + " + ".join(map(str, products)) + f" = {count}",
            ))
    steps.append(ProofStep(
        StepKind.COMPUTATION,
        f"divide by the number of 5-card hands, C({spec.size},5) = {total_hands}",
    ))
    steps.append(ProofStep(
        StepKind.CONCLUSION,
        f"the probability of a {category.label} is {prob_text}",
    ))
    steps.append(ProofStep(StepKind.QED, "∎"))
    return ProofDocument(f"Counting {category.label} hands", tuple(steps))


def _term_product(term: list) -> int:
    out = 1
    for factor in term:
        out *= factor[0]
    return out
