import argparse
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from parlorproofs import cli, graphs, oracle
from parlorproofs.cli import run
from parlorproofs.errors import MAX_DIGITS, QUOTE_LIMIT, quote

from fixtures import fixture_text


def invoke(*args):
    out = io.StringIO()
    code = run(list(args), out=out)
    return code, out.getvalue()


@pytest.fixture
def konigsberg_file(tmp_path):
    path = tmp_path / "konigsberg.graph"
    path.write_text(fixture_text("konigsberg.graph"))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.graph"
    path.write_text("vertex A\nvertex B\nvertex C\n"
                    "edge A B\nedge B C\nedge C A\n")
    return str(path)


class TestPokerCommands:
    def test_count_single_category(self):
        code, out = invoke("poker", "count", "full-house")
        assert code == 0
        assert out.strip() == "full-house: 3744"

    def test_count_all(self):
        code, out = invoke("poker", "count", "--all")
        assert code == 0
        assert len(out.strip().splitlines()) == 10
        assert "royal-flush: 4" in out

    @pytest.mark.parametrize("command", ["count", "prob"])
    def test_category_with_all_is_a_usage_error(self, command, capsys):
        code, out = invoke("poker", command, "--all", "pair")
        assert code == 2
        assert out == ""
        assert "not allowed with argument --all" in capsys.readouterr().err

    def test_count_needs_a_category_or_all(self, capsys):
        assert invoke("poker", "count") == (2, "")
        assert "give a CATEGORY or --all" in capsys.readouterr().err

    def test_prob_shows_exact_rationals(self):
        code, out = invoke("poker", "prob", "full-house")
        assert code == 0
        assert "3744/2598960" in out and "6/4165" in out

    def test_variant_deck_flags(self):
        code, out = invoke("poker", "count", "--values", "7", "--suits", "3",
                           "four-of-a-kind")
        assert code == 0
        assert out.strip() == "four-of-a-kind: 0"

    def test_wild_deck_count_is_a_usage_error(self):
        code, _ = invoke("poker", "count", "--wilds", "1", "pair")
        assert code == 2

    # Each poker command takes the one deck-flag set; --wilds has no
    # command until wild decks have closed forms.
    @pytest.mark.parametrize("command, own", [
        ("count", {"--all"}), ("prob", {"--all"}), ("winner", set()),
        ("verify", {"--csv"}), ("proof", set()),
    ])
    def test_help_lists_the_deck_flags(self, command, own, capsys):
        assert invoke("poker", command, "--help") == (0, "")
        text = capsys.readouterr().out
        listed = set(re.findall(r"^  (?:-h, )?(--[a-z]+)", text, re.M))
        assert listed == {"--help", "--values", "--suits", "--ace"} | own
        assert "--wilds" not in text

    def test_winner_scenario(self):
        code, out = invoke("poker", "winner", "Bond=full-house",
                           "Rogers=flush", "Ryan=straight")
        assert code == 0
        assert out.strip() == \
            "Bond wins (3744/2598960 < 5108/2598960 < 10200/2598960)"

    def test_winner_tie(self):
        code, out = invoke("poker", "winner", "A=pair", "B=pair")
        assert code == 0
        assert "Tie: A, B" in out

    def test_winner_duplicate_player_is_a_usage_error(self):
        code, out = invoke("poker", "winner", "al=flush", "al=pair")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("entry", ["=pair", "pair"])
    def test_winner_entry_without_name_is_a_usage_error(self, entry, capsys):
        code, out = invoke("poker", "winner", entry, "B=flush")
        assert code == 2
        assert out == ""
        assert "expected NAME=CATEGORY" in capsys.readouterr().err

    def test_winner_impossible_entry(self):
        code, out = invoke("poker", "winner", "--suits", "2", "A=full-house")
        assert code == 1
        assert "excluded" in out and "no winner" in out

    def test_verify_small_deck(self):
        code, out = invoke("poker", "verify", "--values", "5", "--suits", "2")
        assert code == 0
        assert out.count("PASS") == 11  # ten categories plus overall
        assert "overall: PASS" in out

    def test_verify_csv(self):
        code, out = invoke("poker", "verify", "--values", "5", "--suits", "2",
                           "--csv")
        assert code == 0
        assert out.splitlines()[0] == "category,closed_form,oracle,status"

    def test_verify_a_million_suits(self):
        # Suits add weight to the walk, not classes.
        code, out = invoke("poker", "verify", "--values", "13", "--suits",
                           "1000000")
        assert code == 0
        assert "overall: PASS" in out

    def test_verify_refuses_past_the_class_bound(self, capsys):
        code, out = invoke("poker", "verify", "--values", "100", "--suits",
                           "1")
        assert code == 2
        assert out == ""
        assert ("the deck's 75287520 classifier calls exceed"
                in capsys.readouterr().err)

    # The least two-suit deck past the cap is refused before any hand is
    # classified.
    def test_verify_refuses_two_suits_of_45_values(self, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("classifier called")

        monkeypatch.setattr(oracle, "classify_pairs", unreachable)
        monkeypatch.setattr(oracle, "best_completion", unreachable)
        code, out = invoke("poker", "verify", "--values", "45", "--suits",
                           "2")
        assert code == 2
        assert out == ""
        assert ("the deck's 1860309 classifier calls exceed"
                in capsys.readouterr().err)

    # The oracle decides from the deck whether a process pool pays, so no
    # flag sets a process count.
    def test_verify_has_no_workers_flag(self, capsys):
        code, out = invoke("poker", "verify", "--values", "5", "--suits", "2",
                           "--workers", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_proof_document(self):
        code, out = invoke("poker", "proof", "full-house")
        assert code == 0
        assert "C(13,1)·C(4,3)·C(12,1)·C(4,2) = 3744" in out

    def test_unknown_category(self):
        code, _ = invoke("poker", "count", "royal-straight")
        assert code == 2

    def test_non_ascii_category_is_unknown(self, capsys):
        code, out = invoke("poker", "count", "pa\u0131r")
        assert (code, out) == (2, "")
        assert "unknown hand category" in capsys.readouterr().err

    # The deck is checked where its counts are, so a bad category or entry
    # on a deck too large to print is named first.
    @pytest.mark.parametrize("command, named", [
        (["count", "bogus"], "unknown hand category 'bogus'"),
        (["winner", "A"], "expected NAME=CATEGORY, got 'A'"),
    ], ids=["count", "winner"])
    def test_bad_input_named_before_a_deck_too_large(self, command, named,
                                                     capsys):
        code, out = invoke("poker", command[0], "--values",
                           str(2 ** 2801), *command[1:])
        assert (code, out) == (2, "")
        assert named in capsys.readouterr().err

    def test_invalid_deck(self):
        code, _ = invoke("poker", "count", "--values", "2", "--suits", "2",
                         "pair")
        assert code == 2

    # The deck flags take ASCII digits only, as card tokens and rubric
    # numbers do.  Other scripts' digits, full-width digits, underscores,
    # signs and spaces, which int() would take, are refused in the words
    # argparse uses for `int`, as a letter or an empty value always was.
    @pytest.mark.parametrize("flag", ["--values", "--suits"])
    @pytest.mark.parametrize("value", [
        "\u0661\u0663", "\uff14", "1_3", " +13", "+13", "13 ", "-2", "13x", "",
    ], ids=["arabic-indic", "full-width", "underscore", "space-sign", "sign",
            "trailing-space", "negative", "letter", "empty"])
    def test_deck_flag_takes_ascii_digits_only(self, flag, value, capsys):
        assert invoke("poker", "count", flag, value, "pair") == (2, "")
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("flag", ["--values", "--suits"])
    def test_deck_flag_digits_are_bounded(self, flag, capsys):
        # At most MAX_DIGITS digits, as parse_digits allows; leading zeros
        # are digits like any other.
        assert invoke("poker", "count", flag, "0" * (MAX_DIGITS - 1) + "7",
                      "pair")[0] == 0
        value = "0" * MAX_DIGITS + "7"
        assert invoke("poker", "count", flag, value, "pair") == (2, "")
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid int value: {quote(value)}\n")

    # A refused deck flag is quoted as any rejected input is: whole up to
    # QUOTE_LIMIT characters, cut there beyond, however long the value.
    @pytest.mark.parametrize("flag", ["--values", "--suits"])
    @pytest.mark.parametrize("value, quoted", [
        ("9" * (QUOTE_LIMIT - 1) + "x", repr("9" * (QUOTE_LIMIT - 1) + "x")),
        ("9" * 5000, repr("9" * QUOTE_LIMIT)
         + f"... ({5000 - QUOTE_LIMIT} more characters)"),
    ], ids=["at-the-limit", "5000-digits"])
    def test_deck_flag_is_quoted_to_the_limit(self, flag, value, quoted,
                                              capsys):
        assert invoke("poker", "count", flag, value, "pair") == (2, "")
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument {flag}: invalid int value: {quoted}\n")
        assert len(err) < 400

    @pytest.mark.parametrize("command", [
        ["count", "--all"], ["prob", "pair"], ["proof", "pair"],
        ["winner", "A=pair"], ["verify"],
    ], ids=lambda command: command[0])
    def test_deck_too_large_to_print_is_a_usage_error(self, command, capsys):
        code, out = invoke("poker", command[0], "--values", "9" * 1000,
                           *command[1:])
        assert code == 2
        assert out == ""
        assert "too large to print" in capsys.readouterr().err

    def test_largest_printable_deck_is_answered(self):
        # 5 * S cards, just under 2**2800, so every count is below 2**14000.
        suits = (2 ** 2800 - 1) // 5
        code, out = invoke("poker", "proof", "--values", "5", "--suits",
                           str(suits), "straight")
        assert code == 0
        assert f"({suits}^5 - {suits})" in out
        code, _ = invoke("poker", "proof", "--values", "5", "--suits",
                         str(suits + 1), "straight")
        assert code == 2


class TestGraphCommands:
    def test_analyze_konigsberg(self, konigsberg_file):
        code, out = invoke("graph", "analyze", konigsberg_file)
        assert code == 0
        assert out.strip() == "NoTrail: 4 vertices of odd degree"

    def test_analyze_cycle(self, cycle_file):
        code, out = invoke("graph", "analyze", cycle_file)
        assert code == 0
        assert out.startswith("Circuit")

    # `graph analyze` takes the status and the odd vertices from one
    # analysis, which builds no incidence map.  `graph trail` takes the
    # components from its own incidence map, and a negative answer counts
    # the degrees only when its line names the odd vertices, as NoTrail and
    # OpenTrail do and Circuit does not.
    @pytest.mark.parametrize("command, file, builds", [
        ("analyze", "konigsberg_file", (1, 1, 0)),
        ("analyze", "cycle_file", (1, 1, 0)),
        ("proof", "cycle_file", (1, 1, 0)),
        ("trail", "konigsberg_file", (1, 1, 1)),
    ], ids=["analyze-no-trail", "analyze-circuit", "proof-circuit",
            "trail-no-trail"])
    def test_incidence_builds(self, command, file, builds, request,
                              monkeypatch):
        calls = {"_degrees": 0, "_edge_components": 0, "_incidence": 0}
        for name in calls:
            def counted(g, *rest, _real=getattr(graphs, name), _name=name):
                calls[_name] += 1
                return _real(g, *rest)
            monkeypatch.setattr(graphs, name, counted)
        invoke("graph", command, request.getfixturevalue(file))
        assert tuple(calls.values()) == builds

    def test_trail_on_cycle(self, cycle_file):
        code, out = invoke("graph", "trail", cycle_file)
        assert code == 0
        assert "->" in out

    def test_trail_on_konigsberg_is_negative(self, konigsberg_file):
        code, out = invoke("graph", "trail", konigsberg_file)
        assert code == 1
        assert "NoTrail" in out

    def test_proof_on_konigsberg(self, konigsberg_file):
        code, out = invoke("graph", "proof", konigsberg_file)
        assert code == 0
        assert "4 vertices and 7 edges" in out

    def test_proof_on_trail_graph_is_negative(self, cycle_file):
        code, _ = invoke("graph", "proof", cycle_file)
        assert code == 1

    def test_proof_on_disconnected_graph(self, tmp_path):
        path = tmp_path / "triangles.graph"
        path.write_text("vertex A\nvertex B\nvertex C\n"
                        "vertex D\nvertex E\nvertex F\n"
                        "edge A B\nedge B C\nedge C A\n"
                        "edge D E\nedge E F\nedge F D\n")
        code, out = invoke("graph", "proof", str(path))
        assert code == 0
        assert "2 connected components" in out
        assert out.rstrip().endswith("∎")

    def test_trail_on_disconnected_graph(self, tmp_path):
        path = tmp_path / "triangles.graph"
        path.write_text("vertex A\nvertex B\nvertex C\n"
                        "vertex D\nvertex E\nvertex F\n"
                        "edge A B\nedge B C\nedge C A\n"
                        "edge D E\nedge E F\nedge F D\n")
        code, out = invoke("graph", "trail", str(path))
        assert code == 1
        assert out == "Disconnected: edges span more than one component\n"

    @pytest.mark.parametrize("command", ["analyze", "trail", "proof"])
    def test_edgeless_file_is_named(self, command, tmp_path, capsys):
        path = tmp_path / "lonely.graph"
        path.write_text("vertex A\nvertex B\n")
        code, out = invoke("graph", command, str(path))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == f"error: {path}: graph has no edges\n"

    def test_missing_file(self):
        code, _ = invoke("graph", "analyze", "/nonexistent.graph")
        assert code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("nonsense\n")
        code, _ = invoke("graph", "analyze", str(path))
        assert code == 2


GRAPHS = {
    "circuit": "vertex A\nvertex B\nvertex C\nedge A B\nedge B C\nedge C A\n",
    "open-trail": "vertex A\nvertex B\nvertex C\nedge A B\nedge B C\n",
    "konigsberg": fixture_text("konigsberg.graph"),
    "two-triangles": "vertex A\nvertex B\nvertex C\n"
                     "vertex D\nvertex E\nvertex F\n"
                     "edge A B\nedge B C\nedge C A\n"
                     "edge D E\nedge E F\nedge F D\n",
}


def proof_text(counts, argument):
    return "\n".join([
        "No complete route through the graph",
        "===================================",
        "",
        "Claim. There is no route through the graph that uses every edge "
        "exactly once.",
        "",
        "Proof.",
        "  Represent the graph with a graph G: draw a vertex for each vertex "
        "and an edge for each edge.",
        f"  G consists of {counts}.",
        "  It suffices to prove that no trail in G contains every edge of G.",
    ] + [f"  {line}" for line in argument] + ["∎", "", ""])


KONIGSBERG_PROOF = proof_text("4 vertices and 7 edges", [
    "Except possibly for its beginning and ending vertices, every vertex of "
    "a trail T touches an even number of edges of T, because each middle "
    "vertex is entered by one edge and exited by another.",
    "However, G has 4 vertices of odd degree: A, B, C, D.",
    "A trail containing every edge of G would leave at most two vertices of "
    "odd degree, yet 4 > 2 are odd. Hence no trail contains every edge of G, "
    "and no such route exists.",
])

TRIANGLES_PROOF = proof_text("6 vertices and 6 edges", [
    "Consecutive edges of a trail T share a vertex, so all edges of T lie in "
    "one connected component of G.",
    "However, the edges of G lie in 2 connected components, one containing "
    "each of A, D.",
    "A trail containing every edge of G would put edges of 2 components into "
    "one component. Hence no trail contains every edge of G, and no such "
    "route exists.",
])


# A graph command prints its answer and exits 0, or prints the status line
# of `graph analyze` that rules the answer out and exits 1.
GRAPH_ANSWERS = [
    ("trail", "circuit", 0, "A -> B -> C -> A\n"),
    ("trail", "open-trail", 0, "A -> B -> C\n"),
    ("trail", "konigsberg", 1, "NoTrail: 4 vertices of odd degree\n"),
    ("trail", "two-triangles", 1,
     "Disconnected: edges span more than one component\n"),
    ("proof", "circuit", 1, "Circuit: every vertex has even degree\n"),
    ("proof", "open-trail", 1, "OpenTrail: odd-degree vertices A and C\n"),
    ("proof", "konigsberg", 0, KONIGSBERG_PROOF),
    ("proof", "two-triangles", 0, TRIANGLES_PROOF),
]


@pytest.mark.parametrize("command, graph, code, stdout", GRAPH_ANSWERS,
                         ids=[f"{c}-{g}" for c, g, _, _ in GRAPH_ANSWERS])
def test_graph_answer_or_status(command, graph, code, stdout, tmp_path,
                                capsys):
    path = tmp_path / f"{graph}.graph"
    path.write_text(GRAPHS[graph])
    assert invoke("graph", command, str(path)) == (code, stdout)
    assert capsys.readouterr().err == ""


SMALL = ["--values", "4", "--suits", "2"]

FOUR_OF_A_KIND_PROOF = "\n".join([
    "Counting Four Of A Kind hands",
    "=============================",
    "",
    "Claim. There are exactly 756 Four Of A Kind hands in a deck with 6 "
    "values and 5 suits; the probability of drawing one is 756/142506 = "
    "2/377 ≈ 0.00530504.",
    "",
    "Proof.",
    "  choose the value appearing four times: C(6,1) = 6",
    "  choose 4 of the suits for that value: C(5,4) = 5",
    "  choose the value of the additional card: C(5,1) = 5",
    "  choose its suit: C(5,1) = 5",
    "  C(6,1)·C(5,4)·C(5,1)·C(5,1) = 750",
    "  choose a value appearing five times: C(6,1) = 6",
    "  choose 5 of its suits: C(5,5) = 1",
    "  C(6,1)·C(5,5) = 6",
    "  adding the disjoint cases: 750 + 6 = 756",
    "  divide by the number of 5-card hands, C(30,5) = 142506",
    "  the probability of a Four Of A Kind is 756/142506 = 2/377 ≈ "
    "0.00530504",
    "∎",
    "",
    "",
])

VERIFY_ROWS = [("Royal Flush", 0), ("Straight Flush", 0),
               ("Four Of A Kind", 0), ("Full House", 0), ("Flush", 0),
               ("Straight", 0), ("Three Of A Kind", 0), ("Two Pair", 24),
               ("Pair", 32), ("High Card", 0)]

# Files the goldens below name by a capitalized key.
GOLDEN_FILES = {
    "CIRCUIT": GRAPHS["circuit"],
    "KONIGSBERG": GRAPHS["konigsberg"],
    "POINTS": 'rubric point Quiz max=10\nsection Claim\n'
              'criterion "State it" points=4\nsection Proof\n'
              'criterion "Argue" points=3 x2\n',
    "AWARDS": 'award "State it" 4\naward "Argue" 2\n',
    "TRAITS": fixture_text("writing_rubric.rubric"),
    "LEVELS": 'level "Assignment Requirements" 4\n'
              'level "Reasoning (proof)" 5\nlevel "Quality of Details" 3\n',
}

# Every command's stdout, character for character, with its exit code: a
# lost or doubled final newline fails here, where a stripped compare passes.
STDOUT_GOLDENS = [
    ("count", ["poker", "count", *SMALL, "pair"], 0, "pair: 32\n"),
    ("count-all", ["poker", "count", *SMALL, "--all"], 0,
     "royal-flush: 0\nstraight-flush: 0\nfour-of-a-kind: 0\n"
     "full-house: 0\nflush: 0\nstraight: 0\nthree-of-a-kind: 0\n"
     "two-pair: 24\npair: 32\nhigh-card: 0\n"),
    ("prob", ["poker", "prob", *SMALL, "pair"], 0,
     "pair: 32/56 = 4/7 ≈ 0.571429\n"),
    ("prob-all", ["poker", "prob", *SMALL, "--all"], 0,
     "royal-flush: 0/56 = 0/1 ≈ 0\nstraight-flush: 0/56 = 0/1 ≈ 0\n"
     "four-of-a-kind: 0/56 = 0/1 ≈ 0\nfull-house: 0/56 = 0/1 ≈ 0\n"
     "flush: 0/56 = 0/1 ≈ 0\nstraight: 0/56 = 0/1 ≈ 0\n"
     "three-of-a-kind: 0/56 = 0/1 ≈ 0\ntwo-pair: 24/56 = 3/7 ≈ 0.428571\n"
     "pair: 32/56 = 4/7 ≈ 0.571429\nhigh-card: 0/56 = 0/1 ≈ 0\n"),
    ("winner-excluded", ["poker", "winner", *SMALL, "A=pair",
                         "B=four-of-a-kind"], 0,
     "excluded: B (four-of-a-kind is impossible in this deck)\n"
     "A wins (32/56)\n"),
    ("winner-tie", ["poker", "winner", "A=pair", "B=pair"], 0,
     "Tie: A, B\n"),
    ("winner-none", ["poker", "winner", *SMALL, "A=four-of-a-kind",
                     "B=royal-flush"], 1,
     "excluded: A (four-of-a-kind is impossible in this deck)\n"
     "excluded: B (royal-flush is impossible in this deck)\n"
     "no winner: every entry is impossible in this deck\n"),
    ("verify", ["poker", "verify", *SMALL], 0,
     "deck: 4 values x 2 suits, ace rule both\nhands enumerated: 56\n"
     + "".join(f"PASS  {label:<15}  closed form {n:>10}  oracle {n:>10}\n"
               for label, n in VERIFY_ROWS)
     + "overall: PASS\n"),
    ("verify-csv", ["poker", "verify", *SMALL, "--csv"], 0,
     "category,closed_form,oracle,status\n"
     + "".join(f"{label.lower().replace(' ', '-')},{n},{n},pass\n"
               for label, n in VERIFY_ROWS)),
    ("proof", ["poker", "proof", "--values", "6", "--suits", "5",
               "four-of-a-kind"], 0, FOUR_OF_A_KIND_PROOF),
    ("analyze-circuit", ["graph", "analyze", "CIRCUIT"], 0,
     "Circuit: every vertex has even degree\n"),
    ("analyze-no-trail", ["graph", "analyze", "KONIGSBERG"], 0,
     "NoTrail: 4 vertices of odd degree\n"),
    ("trail", ["graph", "trail", "CIRCUIT"], 0, "A -> B -> C -> A\n"),
    ("trail-none", ["graph", "trail", "KONIGSBERG"], 1,
     "NoTrail: 4 vertices of odd degree\n"),
    ("graph-proof", ["graph", "proof", "KONIGSBERG"], 0, KONIGSBERG_PROOF),
    ("graph-proof-none", ["graph", "proof", "CIRCUIT"], 1,
     "Circuit: every vertex has even degree\n"),
    ("rubric-points", ["rubric", "score", "POINTS", "AWARDS"], 0,
     "Claim: 4/4\nProof: 4/6\ntotal: 8/10\n"),
    ("rubric-traits", ["rubric", "score", "TRAITS", "LEVELS"], 0,
     "Assignment Requirements: 4/5\nReasoning (proof): 5/5\n"
     "Quality of Details: 3/5\ntotal: 12/15\n"),
]


@pytest.mark.parametrize("argv, code, stdout",
                         [golden[1:] for golden in STDOUT_GOLDENS],
                         ids=[golden[0] for golden in STDOUT_GOLDENS])
def test_stdout_golden(argv, code, stdout, tmp_path, capsys):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in GOLDEN_FILES else arg
            for arg in argv]
    assert invoke(*argv) == (code, stdout)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["graph analyze", "graph trail",
                                     "graph proof", "rubric score"])
def test_non_utf8_file_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe vertex A\n")
    files = [str(path)] * (2 if command == "rubric score" else 1)
    code, out = invoke(*command.split(), *files)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, marked", [
    (["graph", "analyze", "KONIGSBERG"], "KONIGSBERG"),
    (["rubric", "score", "POINTS", "AWARDS"], "POINTS"),
    (["rubric", "score", "POINTS", "AWARDS"], "AWARDS"),
], ids=["graph", "rubric", "marks"])
def test_byte_order_mark_is_ignored(argv, marked, tmp_path, capsys):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in GOLDEN_FILES else arg
            for arg in argv]
    plain = invoke(*argv)
    assert plain[0] == 0
    (tmp_path / marked).write_text(GOLDEN_FILES[marked], encoding="utf-8-sig")
    assert invoke(*argv) == plain
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["graph", "analyze", "FILE"],
    ["poker", "winner", "B" * 5000],
], ids=["graph", "winner"])
def test_oversized_input_is_quoted_briefly(argv, tmp_path, capsys):
    path = tmp_path / "big.graph"
    path.write_text("vertex A\nedge A " + "B" * 5000 + "\n")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert invoke(*argv) == (2, "")
    err = capsys.readouterr().err
    assert err.endswith("'... (4920 more characters)\n")
    assert len(err) < 200 + len(str(path))


class TestRubricCommand:
    def test_score_full_marks(self, tmp_path):
        rubric_path = tmp_path / "poker.rubric"
        rubric_path.write_text(fixture_text("poker_rubric.rubric"))
        marks = "\n".join([
            'award "Restate the problem" 5',
            'award "State the paper objective" 4',
            'award "State problem-solving methods used" 1',
            'award "Provide a brief history of poker, at most 5 lines" 10',
            'award "Describe the rules of poker" 10',
            'award "Restate player hands" 10',
            'award "Use Claim-Proof form" 2',
            'award "Accurately find probability" 3',
            'award "Write clearly and correctly" 4',
            'award "Utilize C(52,5)" 1',
            'award "Summarize results" 4',
            'award "State a new question" 4',
            'award "State another new question" 2',
        ])
        marks_path = tmp_path / "marks.txt"
        marks_path.write_text(marks)
        code, out = invoke("rubric", "score", str(rubric_path), str(marks_path))
        assert code == 0
        assert "total: 100/100" in out

    def test_bad_rubric_file(self, tmp_path):
        rubric_path = tmp_path / "bad.rubric"
        rubric_path.write_text("rubric point X max=10\nsection S\n"
                               'criterion "c" points=9\n')
        marks_path = tmp_path / "marks.txt"
        marks_path.write_text('award "c" 9\n')
        code, _ = invoke("rubric", "score", str(rubric_path), str(marks_path))
        assert code == 2


SRC = Path(__file__).resolve().parent.parent / "src"


# A closed stdout is not an answer: the command exits with the status a shell
# reports for SIGPIPE, never 0, 1 or 2, and prints no traceback.  Buffered
# output fails at the last flush, unbuffered output at the first print.
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["poker", "count", "--all"],
    ["graph", "analyze", str(SRC / "parlorproofs" / "data" / "konigsberg.graph")],
    ["rubric", "score", "RUBRIC", "MARKS"],
    ["--help"],
    ["poker", "--help"],
    ["poker", "count", "--help"],
], ids=["poker", "graph", "rubric", "help-top", "help-group", "help-command"])
def test_closed_stdout_exits_quietly(argv, unbuffered, tmp_path):
    (tmp_path / "RUBRIC").write_text(fixture_text("writing_rubric.rubric"))
    (tmp_path / "MARKS").write_text(
        'level "Assignment Requirements" 4\nlevel "Reasoning (proof)" 5\n'
        'level "Quality of Details" 3\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "parlorproofs.cli", *argv], env=env,
            cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode not in (0, 1, 2)


class TestUsage:
    def test_unknown_subcommand(self):
        assert invoke("poker", "shuffle")[0] == 2

    def test_unknown_group(self):
        assert invoke("blackjack")[0] == 2

    def test_no_arguments(self):
        assert invoke()[0] == 2


# The parser is built once, when `cli` is imported, and every call of `run`
# parses with it: a call answers as a fresh process would, whatever ran
# before it in the process.
def _fresh_cli(argv, cwd):
    """(exit code, stdout, stderr) of `python -m parlorproofs.cli argv`."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run([sys.executable, "-m", "parlorproofs.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def files(tmp_path, cycle_file):
    """A graph with a trail, a rubric and a mark sheet for it, by name."""
    (tmp_path / "R").write_text(fixture_text("writing_rubric.rubric"))
    (tmp_path / "M").write_text(
        'level "Assignment Requirements" 4\nlevel "Reasoning (proof)" 5\n'
        'level "Quality of Details" 3\n')
    return {"FILE": cycle_file, "R": str(tmp_path / "R"),
            "M": str(tmp_path / "M")}


class TestSharedParser:
    SEQUENCE = [
        ["poker", "count", "--values"],
        ["poker", "count", "--help"],
        ["poker", "count", "--all"],
        ["poker", "prob", "pair"],
        ["poker", "winner", "A=flush", "B=pair"],
        ["poker", "count", "bogus"],
        ["graph", "trail", "FILE"],
        ["rubric", "score", "R", "M"],
    ]

    def test_each_call_answers_as_a_fresh_process(self, files, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        answers = []
        for argv in self.SEQUENCE:
            argv = [files.get(arg, arg) for arg in argv]
            code = run(argv)
            answers.append((argv, (code, *capsys.readouterr())))
        assert [code for _, (code, _, _) in answers] == [2, 0, 0, 0, 0, 2,
                                                         0, 0]
        for argv, answer in answers:
            assert answer == _fresh_cli(argv, tmp_path), argv

    @pytest.mark.parametrize("argv", [
        ["poker", "count", "full-house"],
        ["graph", "trail", "FILE"],
        ["rubric", "score", "R", "M"],
    ], ids=["poker", "graph", "rubric"])
    def test_run_builds_no_parser(self, argv, files, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert invoke(*[files.get(arg, arg) for arg in argv])[0] == 0
        assert built == []
        cli._build_parser()  # the count sees the parsers a build makes
        assert built

    def test_help_follows_columns_at_call_time(self, monkeypatch, capsys):
        texts = {}
        for columns in (50, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert invoke("poker", "count", "--help") == (0, "")
            texts[columns] = capsys.readouterr().out
        usage = {columns: text.split("\n\n")[0].splitlines()
                 for columns, text in texts.items()}
        # 200 columns hold the usage and each option's help on one line;
        # 50 wrap both.
        assert len(usage[200]) == 1 and usage[200][0].endswith("[CATEGORY]")
        assert len(usage[50]) > 1
        assert max(map(len, usage[50])) < len(usage[200][0])
        assert "show this help message and exit" in texts[200]
        assert "show this help message and exit" not in texts[50]
