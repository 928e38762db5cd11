"""Fuzzing of the parsers and the CLI: rejected input raises an InputError
(exit 2 on the CLI) and nothing else escapes."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parlorproofs import (Card, DeckSpec, Hand, InputError, STANDARD_DECK,
                          Wild, classify, classify_with_wilds, load_rubric,
                          parse_card, parse_graph, parse_hand, parse_marks)
from parlorproofs.cli import run
from parlorproofs.deck import check_cards
from parlorproofs.hands import HandCategory

_WORDS = st.sampled_from([
    "vertex", "edge", "A", "outside", "rubric", "point", "criterion",
    "level", "award", "max=10", "points=5", "x2", '"c"', "1", "2.5", "0.25",
    "AS", "v0s9", "W0", "#", "=",
])
_JUNK = st.lists(st.one_of(_WORDS, st.text(max_size=6)), max_size=6).map(" ".join)
# Digit runs on both sides of the parsers' 1,000-digit bound and of CPython's
# 4,300-digit limit on int/str conversion.
_DIGITS = st.sampled_from([1, 800, 1000, 1001, 4301, 5000]).map(lambda n: "9" * n)


def _text(header, *lines):
    """Arbitrary text, lines of a format with junk among them, or a header
    and lines of the format alone, which often parse.  A `{}` in a line
    takes a run of digits."""
    line = st.tuples(st.sampled_from(lines), _DIGITS).map(
        lambda pair: pair[0].format(pair[1]))
    return st.one_of(
        st.text(),
        st.lists(st.one_of(line, _JUNK), max_size=8).map("\n".join),
        st.tuples(header, st.lists(line, max_size=8).map("\n".join))
        .map("".join))


CARDS = _text(st.just(""), "AS", "10h", "kd", "\u212ad", "v1s1", "v5s2",
              "W1", "W3", "v{}s1", "v1s{}", "W{}")
GRAPH = _text(st.just("vertex A\nvertex B\n"), "vertex C", "edge A B",
              "edge A B label", "edge B outside", "edge A A", "# note", "")
RUBRIC = _text(st.sampled_from(["rubric point R max=10\nsection S\n",
                                "rubric trait T\n"]),
               'criterion "c" points=10', 'criterion "d" points=5 x2',
               "section U", 'trait "t"', 'level 1 "a"', 'level 2 "b"',
               'level 3 "c"', 'level 4 "d"', 'level 5 "e"', "# note", "",
               "rubric point R max={}", 'criterion "c" points={}',
               'criterion "d" points=5 x{}')
MARKS = _text(st.just(""), 'award "c" 9.5', 'award "c" 10', 'award "d" 1',
              'award "c" 1.25', 'level "t" 3', 'level "u" 5', "# note", "",
              'award "c" {}')

SPECS = st.sampled_from([STANDARD_DECK, DeckSpec(5, 2, wilds=2),
                         DeckSpec(1, 5)])


@pytest.mark.parametrize("parse, text", [
    (parse_card, CARDS),
    (parse_hand, CARDS),
    (lambda text, _: parse_graph(text), GRAPH),
    (lambda text, _: load_rubric(text), RUBRIC),
    (lambda text, _: parse_marks(text), MARKS),
], ids=["parse_card", "parse_hand", "parse_graph", "load_rubric",
        "parse_marks"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), spec=SPECS)
def test_parsers_raise_only_input_errors(parse, text, data, spec):
    try:
        parse(data.draw(text), spec)
    except InputError:
        pass


# Card fields and other objects a hand may be built from: ints in and out
# of a deck's range, ints too long to print, floats, bools, None, strings.
_HUGE = st.sampled_from([10 ** 5000, -10 ** 5000])
_OBJECT = st.one_of(st.integers(), _HUGE, st.floats(), st.booleans(),
                    st.none(), st.text(max_size=3),
                    st.tuples(st.integers(), st.integers()))
_FIELD = st.one_of(st.integers(-1, 14), _OBJECT)
# What builds each item of a hand: a Card, a Wild, or the object itself.
_ITEM = st.one_of(st.tuples(st.just(Card), _FIELD, _FIELD),
                  st.tuples(st.just(Wild), _FIELD),
                  st.tuples(st.just(lambda item: item), _OBJECT))


@st.composite
def _hand_items(draw):
    """Five distinct cards that a small deck may hold, or four or six, up
    to two of them wilds, and up to two of them replaced by any item."""
    size = draw(st.sampled_from([5, 5, 5, 4, 6]))
    wilds = draw(st.integers(0, 2))
    pairs = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                          min_size=size - wilds, max_size=size - wilds,
                          unique=True))
    items = ([(Card, *pair) for pair in pairs]
             + [(Wild, index) for index in range(1, wilds + 1)])
    for _ in range(draw(st.integers(0, 2))):
        items[draw(st.integers(0, len(items) - 1))] = draw(_ITEM)
    return items


@settings(max_examples=200, deadline=None)
@given(items=_hand_items(),
       spec=st.sampled_from([STANDARD_DECK, DeckSpec(5, 2, wilds=2),
                             DeckSpec(13, 4, wilds=1), DeckSpec(1, 5)]))
def test_built_hands_raise_only_input_errors(items, spec):
    for call in (classify, classify_with_wilds,
                 lambda hand, spec: check_cards(hand.cards, spec)):
        try:
            call(Hand(make(*args) for make, *args in items), spec)
        except InputError:
            pass


_INT = st.one_of(st.integers(1, 13), st.integers(-2, 14),
                 st.integers()).map(str) | _DIGITS
_SLUG = st.one_of(st.sampled_from([c.slug for c in HandCategory]),
                  st.text(max_size=6))
_ENTRY = st.one_of(st.tuples(st.text(max_size=4), st.just("="), _SLUG)
                   .map("".join), st.text(max_size=8))


@st.composite
def _poker_argv(draw):
    command = draw(st.sampled_from(["count", "prob", "winner", "proof",
                                    "verify"]))
    # The oracle's work grows with V and not with S, so verify draws V from
    # -2 to 14 and S like the other commands.
    values = st.integers(-2, 14).map(str) if command == "verify" else _INT
    flags = ["--values", draw(values), "--suits", draw(_INT),
             "--ace", draw(st.sampled_from(["both", "high"]))]
    if command in ("count", "prob"):
        rest = draw(st.lists(st.one_of(st.just("--all"), _SLUG), max_size=2))
    elif command == "winner":
        rest = draw(st.lists(_ENTRY, min_size=1, max_size=3))
    elif command == "verify":
        rest = draw(st.lists(st.just("--csv"), max_size=1))
    else:
        rest = [draw(_SLUG)]
    return ["poker", command] + flags + rest


def _run_quietly(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv, out=io.StringIO())


@settings(max_examples=100, deadline=None)
@given(argv=_poker_argv())
def test_poker_commands_exit_0_1_or_2(argv):
    assert _run_quietly(argv) in (0, 1, 2)


@pytest.mark.parametrize("command, texts", [
    ("graph analyze", [GRAPH]), ("graph trail", [GRAPH]),
    ("graph proof", [GRAPH]), ("rubric score", [RUBRIC, MARKS]),
], ids=["graph-analyze", "graph-trail", "graph-proof", "rubric-score"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_file_commands_exit_0_1_or_2(command, texts, data):
    # A per-example directory: hypothesis does not reset function fixtures.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"input{i}"
            path.write_bytes(data.draw(st.one_of(st.binary(max_size=64),
                                                 text.map(str.encode))))
            paths.append(str(path))
        assert _run_quietly(command.split() + paths) in (0, 1, 2)
