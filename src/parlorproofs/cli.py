"""Command-line front end.

All logic lives in the library modules; the CLI only parses arguments,
formats output, and maps results to exit codes: 0 for success, 1 for a
well-formed negative answer, 2 for usage errors and for any `InputError`,
and 141 when the reader of stdout has gone before the output is written.
Each handler computes its answer and returns its exit code and text;
`run` alone writes that text, once, so an error leaves stdout empty.
Each handler imports the modules it uses, so a command loads no others.
The parser is built once, when this module is imported, and `run` may be
called any number of times in one process: argparse keeps no state of a
parse in the parser, and formats each help text afresh.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import Optional, Sequence

from .errors import InputError, parse_digits, quote

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _deck_number(text: str) -> int:
    """The type of --values and --suits: ASCII digits only, at most
    MAX_DIGITS of them, as in card tokens and rubric numbers.  Any other
    value is refused in the words argparse uses for `int`, quoted as every
    rejected input is."""
    if text.isascii() and text.isdigit():
        with contextlib.suppress(InputError):
            return parse_digits(text, InputError, "deck flag")
    raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parlorproofs",
        description="Exact poker-hand combinatorics, Eulerian trail analysis, "
                    "and rubric scoring.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    poker = top.add_parser("poker", help="hand counts, probabilities, winners")
    poker_sub = poker.add_subparsers(dest="command", required=True)

    deck = argparse.ArgumentParser(add_help=False)
    deck.add_argument("--values", type=_deck_number, default=13, metavar="V")
    deck.add_argument("--suits", type=_deck_number, default=4, metavar="S")
    deck.add_argument("--ace", choices=("both", "high"), default="both")

    for name in ("count", "prob"):
        p = poker_sub.add_parser(name, parents=[deck])
        p.set_defaults(handler=_poker_count)
        one = p.add_mutually_exclusive_group()
        one.add_argument("category", nargs="?", metavar="CATEGORY")
        one.add_argument("--all", action="store_true", dest="all_categories")

    p = poker_sub.add_parser("winner", parents=[deck])
    p.set_defaults(handler=_poker_winner)
    p.add_argument("entries", nargs="+", metavar="NAME=CATEGORY")

    p = poker_sub.add_parser("verify", parents=[deck])
    p.set_defaults(handler=_poker_verify)
    p.add_argument("--csv", action="store_true")

    p = poker_sub.add_parser("proof", parents=[deck])
    p.set_defaults(handler=_poker_proof)
    p.add_argument("category", metavar="CATEGORY")

    graph = top.add_parser("graph", help="Eulerian trail analysis of graph files")
    graph_sub = graph.add_subparsers(dest="command", required=True)
    for name, handler in (("analyze", _graph_analyze),
                          ("trail", _graph_answer), ("proof", _graph_answer)):
        p = graph_sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("file", metavar="FILE")

    rub = top.add_parser("rubric", help="score a mark sheet against a rubric")
    rub_sub = rub.add_subparsers(dest="command", required=True)
    p = rub_sub.add_parser("score")
    p.set_defaults(handler=_rubric_score)
    p.add_argument("rubric_file", metavar="RUBRIC_FILE")
    p.add_argument("marks_file", metavar="MARKS_FILE")

    return parser


def _deck_spec(args):
    from .deck import AceRule, DeckSpec
    ace = AceRule.BOTH if args.ace == "both" else AceRule.HIGH_ONLY
    return DeckSpec(values=args.values, suits=args.suits, ace_rule=ace)


def _poker_count(args) -> tuple[int, str]:
    from . import hands
    spec = _deck_spec(args)
    if args.all_categories:
        categories = list(hands.HandCategory)
    elif args.category:
        categories = [hands.HandCategory.from_slug(args.category)]
    else:
        raise InputError("give a CATEGORY or --all")
    if args.command == "prob":
        lines = (f"{cat.slug}: {hands.probability(cat, spec).format()}"
                 for cat in categories)
    else:
        lines = (f"{cat.slug}: {hands.count_category(cat, spec)}"
                 for cat in categories)
    return EXIT_OK, "\n".join(lines)


def _poker_winner(args) -> tuple[int, str]:
    from . import hands
    spec = _deck_spec(args)
    entries = []
    for item in args.entries:
        name, sep, slug = item.partition("=")
        if not (name and sep):
            raise InputError(f"expected NAME=CATEGORY, got {quote(item)}")
        entries.append((name, hands.HandCategory.from_slug(slug)))
    report = hands.determine_winner(entries, spec)
    excluded = "".join(f"excluded: {name} ({cat.slug} is impossible in "
                       f"this deck)\n" for name, cat in report.excluded)
    if report.winner is not None:
        chain = " < ".join(f"{p.count}/{p.total}" for _, _, p in report.ranking)
        return EXIT_OK, f"{excluded}{report.winner} wins ({chain})"
    if report.tied:
        return EXIT_OK, excluded + "Tie: " + ", ".join(report.tied)
    return (EXIT_NEGATIVE,
            excluded + "no winner: every entry is impossible in this deck")


def _poker_verify(args) -> tuple[int, str]:
    from . import oracle
    report = oracle.verify_closed_forms(_deck_spec(args))
    return (EXIT_OK if report.passed else EXIT_NEGATIVE,
            report.render_csv() if args.csv else report.render_text())


def _poker_proof(args) -> tuple[int, str]:
    from . import hands
    spec = _deck_spec(args)
    category = hands.HandCategory.from_slug(args.category)
    return EXIT_OK, hands.combinatorial_proof(category, spec).render_text()


def _parse_file(path: str, parse, answer=None):
    """parse(text of the UTF-8 file at path, less a leading byte-order mark),
    or that and answer(it) as a pair when answer is given; errors name it."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parsed = parse(handle.read())
        return parsed if answer is None else (parsed, answer(parsed))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def _graph_status_line(g, status, odd=None) -> str:
    """The line that states status; `odd`, the odd vertices of g, is found
    here when the line names them and the caller has not."""
    from .graphs import EulerianStatus, odd_vertices
    if status is EulerianStatus.CIRCUIT:
        return "Circuit: every vertex has even degree"
    if status is EulerianStatus.DISCONNECTED:
        return "Disconnected: edges span more than one component"
    odd = odd if odd is not None else odd_vertices(g)
    if status is EulerianStatus.OPEN_TRAIL:
        return f"OpenTrail: odd-degree vertices {odd[0]} and {odd[1]}"
    return f"NoTrail: {len(odd)} vertices of odd degree"


def _graph_analyze(args) -> tuple[int, str]:
    from . import graphs
    g, (status, odd) = _parse_file(args.file, graphs.parse_graph,
                                   graphs.status_and_odd_vertices)
    return EXIT_OK, _graph_status_line(g, status, odd)


def _graph_answer(args) -> tuple[int, str]:
    """`graph trail` answers a trail and `graph proof` a proof that none
    exists; when there is no such answer, the status that rules it out."""
    from . import graphs
    solve = (graphs.find_trail if args.command == "trail"
             else graphs.impossibility_proof)
    g, answer = _parse_file(args.file, graphs.parse_graph, solve)
    if isinstance(answer, graphs.EulerianStatus):
        return EXIT_NEGATIVE, _graph_status_line(g, answer)
    return EXIT_OK, answer.render_text()


def _rubric_score(args) -> tuple[int, str]:
    from . import rubric
    loaded = _parse_file(args.rubric_file, rubric.load_rubric)
    marks = _parse_file(args.marks_file, rubric.parse_marks)
    return EXIT_OK, rubric.score(loaded, marks).render_text()


_PARSER = _build_parser()


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    # argparse swallows an OSError while printing help, so help is written here.
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        sys.stdout.write(help_text.getvalue())
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, text = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text, file=out)
    return code


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull so that the flush at
        # shutdown cannot raise again, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    sys.exit(status)


if __name__ == "__main__":
    main()
