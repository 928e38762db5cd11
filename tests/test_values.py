"""The contract of the value types: equal and hashed by value, closed to
assignment, shown as Name(field=...); cards do not sort, and neither a card
nor a hand behaves as a tuple."""

import pickle

import pytest

from parlorproofs import (AceRule, Card, DeckSpec, Edge, Hand, ProofStep,
                          StepKind, Wild)
from parlorproofs.graphs import TrailStep

FIVE = [Card(v, 1) for v in range(1, 5)] + [Wild(1)]

# (build a value, a different value, one of its fields, its repr)
VALUES = {
    "Card": (lambda: Card(1, 1), Card(1, 2), "value",
             "Card(value=1, suit=1)"),
    "Wild": (lambda: Wild(2), Wild(1), "index", "Wild(index=2)"),
    "Hand": (lambda: Hand(frozenset(FIVE)), Hand(FIVE[1:] + [Card(9, 9)]),
             "cards", f"Hand(cards={frozenset(FIVE)!r})"),
    "DeckSpec": (lambda: DeckSpec(5, 2), DeckSpec(5, 2, wilds=1), "suits",
                 "DeckSpec(values=5, suits=2, wilds=0, "
                 "ace_rule=<AceRule.BOTH: 'both'>)"),
    "Edge": (lambda: Edge(1, "A", "B"), Edge(2, "A", "B"), "u",
             "Edge(id=1, u='A', v='B', label=None)"),
    "TrailStep": (lambda: TrailStep(1, "A", "B"), TrailStep(1, "B", "A"),
                  "to", "TrailStep(edge_id=1, frm='A', to='B')"),
    "ProofStep": (lambda: ProofStep(StepKind.QED, "∎"),
                  ProofStep(StepKind.CLAIM, "∎"), "text",
                  "ProofStep(kind=<StepKind.QED: 'qed'>, text='∎')"),
}
CASES = pytest.mark.parametrize("make, other, field, text", VALUES.values(),
                                ids=VALUES.keys())


@CASES
def test_equal_and_hashed_by_value(make, other, field, text):
    assert make() == make() and hash(make()) == hash(make())
    assert make() != other
    assert len({make(), make(), other}) == 2


@CASES
def test_assignment_raises_attribute_error(make, other, field, text):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@CASES
def test_repr(make, other, field, text):
    assert repr(make()) == text


@CASES
def test_survives_pickling(make, other, field, text):
    # A deck goes to the oracle's pool processes by pickle.
    assert pickle.loads(pickle.dumps(make())) == make()


def test_cards_do_not_sort():
    with pytest.raises(TypeError):
        Card(1, 1) < Card(1, 2)
    with pytest.raises(TypeError):
        Card(1, 4) >= Card(1, 4)
    with pytest.raises(TypeError):
        sorted([Wild(2), Wild(1)])


def test_cards_and_hands_are_not_tuples():
    assert Card(1, 1) != (1, 1)
    assert Wild(1) != (1,)
    assert DeckSpec(5, 2) != (5, 2, 0, AceRule.BOTH)
    with pytest.raises(TypeError):
        iter(Card(1, 1))
    with pytest.raises(TypeError):
        iter(Hand(frozenset(FIVE)))
    with pytest.raises(TypeError):
        Card(1, 1) < Wild(1)
