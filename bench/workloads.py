"""Seeded operation streams for the four workloads, each operation paired
with the check of its answer.

A stream depends only on its seed, never on timing, so a traced run can
replay exactly the operations an untraced run completed.  The library only
ever sees the generated inputs.  Heavy inputs (graph sizes, fresh deck
values) follow fixed ladders or a golden-ratio sequence from a seeded
offset, so that every seed puts the same amount of work into a run and the
figures of different seeds can be compared.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from io import StringIO
from typing import Callable, Iterator, Optional

from parlorproofs import cli, deck, graphs, hands, oracle, rubric

import reference as ref

PHI = (math.sqrt(5) - 1) / 2

# oracle-natural: wild-free shapes with V 5..13 and S 2..6 whose hand count
# keeps one verification near 0.1 s; the standard deck comes once per run.
# Decks of equal size take equal time, so deck times fall into groups; the
# bands of both oracle workloads are chosen so that the median (and p90)
# deck of a run lies inside a group, not at its edge, where it would jump
# between two group times from run to run.
NATURAL_SHAPES = tuple((v, s) for v in range(5, 14) for s in range(2, 7)
                       if 8_000 <= math.comb(v * s, 5) <= 150_000)

# oracle-wild: shapes per wild count W whose (V*S)^W substitutions keep one
# tally within 0.25 s, so that no few decks hold most of a round's time.
WILD_SHAPES = {
    1: tuple((v, s) for v in range(5, 14) for s in range(2, 7)
             if 12 <= v * s <= 20),
    2: ((5, 2), (6, 2)),
    3: ((5, 2),),
}
GOLDEN_WILD_DECKS = ("v5_s2_w1_both", "v5_s2_w2_both")

# query-mix: sizes of the fresh (never repeated) deck values; one of them is
# used in each of the first rounds, so every run holds the same set.
FRESH_VALUES = (1_000, 3_162, 10_000, 31_623, 100_000)
GRAPH_EDGES = (10, 40_000)


@dataclass
class Op:
    """One closed-loop request: `call` is timed, `check` is not and returns
    why the answer is wrong, or None."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    units: int = 1
    span: Optional[str] = None  # a span of its own around the call, if any


def spec_label(spec) -> str:
    ace = "both" if spec.ace_rule is deck.AceRule.BOTH else "high"
    return f"v{spec.values}_s{spec.suits}_w{spec.wilds}_{ace}"


def make_spec(values, suits, wilds=0, ace_both=True):
    rule = deck.AceRule.BOTH if ace_both else deck.AceRule.HIGH_ONLY
    return deck.DeckSpec(values=values, suits=suits, wilds=wilds, ace_rule=rule)


def _both(spec) -> bool:
    return spec.ace_rule is deck.AceRule.BOTH


# --- oracle-natural -----------------------------------------------------------


def verify_op(spec) -> Op:
    V, S, both = spec.values, spec.suits, _both(spec)
    total = math.comb(V * S, 5)

    def check(report) -> Optional[str]:
        want = ref.closed_forms(V, S, both)
        got = {row.category.slug: row.oracle for row in report.rows}
        if got != want:
            return f"{spec_label(spec)}: tallies {got} != closed forms {want}"
        closed = {row.category.slug: row.closed_form for row in report.rows}
        if closed != want:
            return f"{spec_label(spec)}: count_category {closed} != {want}"
        if report.total != total or sum(got.values()) != total:
            return f"{spec_label(spec)}: {report.total} hands, not C({V * S},5)"
        if not report.passed:
            return f"{spec_label(spec)}: report does not pass"
        return None

    return Op("verify", lambda: oracle.verify_closed_forms(spec), check, total)


def oracle_natural(rng: random.Random, max_hands: Optional[int] = None
                   ) -> Iterator[list]:
    """The standard deck, then rounds that each verify every shape in
    NATURAL_SHAPES under both ace rules, in a seeded order."""
    shapes = [(v, s) for v, s in NATURAL_SHAPES
              if max_hands is None or math.comb(v * s, 5) <= max_hands]
    if max_hands is None:
        yield [verify_op(deck.STANDARD_DECK)]
    else:
        shapes += [(5, 2), (6, 2)]
    decks = [make_spec(v, s, 0, both) for v, s in shapes for both in (True, False)]
    while True:
        yield [verify_op(spec) for spec in rng.sample(decks, len(decks))]


# --- oracle-wild ----------------------------------------------------------------


def _golden_tallies() -> dict:
    path = os.path.join(os.path.dirname(deck.__file__), "data",
                        "wild_tallies.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def tally_op(spec, checker: ref.WildTallies, golden: Optional[dict] = None) -> Op:
    V, S, W, both = spec.values, spec.suits, spec.wilds, _both(spec)
    total = math.comb(spec.size, 5)

    def check(tallies) -> Optional[str]:
        got = {cat.slug: n for cat, n in tallies.items()}
        if sum(got.values()) != total:
            return f"{spec_label(spec)}: {sum(got.values())} hands, not {total}"
        if golden is not None and got != golden:
            return f"{spec_label(spec)}: tallies {got} != golden {golden}"
        want = checker.tally(V, S, W, both)
        if got != want:
            return f"{spec_label(spec)}: tallies {got} != brute force {want}"
        return None

    return Op("tally", lambda: oracle.tally_all(spec), check, total)


def oracle_wild(rng: random.Random, max_hands: Optional[int] = None
                ) -> Iterator[list]:
    """The golden decks, then rounds that each tally every shape in
    WILD_SHAPES under both ace rules, in a seeded order."""
    checker = ref.WildTallies()
    goldens = _golden_tallies()
    golden_decks = []
    for key in GOLDEN_WILD_DECKS:
        v, s, w = (int(part[1:]) for part in key.split("_")[:3])
        golden_decks.append(tally_op(make_spec(v, s, w), checker, goldens[key]))
    yield golden_decks
    decks = [make_spec(v, s, w, both) for w, shapes in WILD_SHAPES.items()
             for v, s in shapes for both in (True, False)
             if max_hands is None or math.comb(v * s + w, 5) <= max_hands]
    while True:
        yield [tally_op(spec, checker) for spec in rng.sample(decks, len(decks))]


# --- query-mix ------------------------------------------------------------------

_STANDARD_VALUE_TOKENS = ("2", "3", "4", "5", "6", "7", "8", "9", "T", "J",
                          "Q", "K", "A")


def card_token(value: int, suit: int, spec) -> str:
    if spec.values == 13 and spec.suits == 4:
        return _STANDARD_VALUE_TOKENS[value - 1] + "CDHS"[suit - 1]
    return f"v{value}s{suit}"


def _category(slug: str):
    return hands.HandCategory.from_slug(slug)


def hand_op(rng, spec, checker: ref.WildTallies, n_wilds: int = 0) -> Op:
    V, S, both = spec.values, spec.suits, _both(spec)
    cards = rng.sample([(v, s) for v in range(1, V + 1)
                        for s in range(1, S + 1)], 5 - n_wilds)
    tokens = [card_token(v, s, spec) for v, s in cards]
    tokens += [f"W{i}" for i in range(1, n_wilds + 1)]
    rng.shuffle(tokens)
    text = " ".join(tokens)
    if n_wilds:
        def call():
            return hands.classify_with_wilds(deck.parse_hand(text, spec), spec)
    else:
        def call():
            return hands.classify(deck.parse_hand(text, spec), spec)

    def check(category) -> Optional[str]:
        want = checker.best(cards, n_wilds, V, S, both) if n_wilds else \
            ref.classify(cards, V, both)
        if category.slug != want:
            return f"{text!r} in {spec_label(spec)}: {category.slug} != {want}"
        return None

    return Op("wild" if n_wilds else "hand", call, check)


def count_op(rng, spec) -> Op:
    V, S = spec.values, spec.suits
    want = ref.closed_forms(V, S, _both(spec))
    total = math.comb(V * S, 5)
    slug = rng.choice(ref.CATEGORIES)

    def call():
        counts = {cat.slug: hands.count_category(cat, spec)
                  for cat in hands.HandCategory}
        return counts, hands.probability(_category(slug), spec)

    def check(answer) -> Optional[str]:
        counts, prob = answer
        if counts != want or sum(counts.values()) != total:
            return f"{spec_label(spec)}: counts {counts} != {want}"
        if (prob.count, prob.total) != (want[slug], total):
            return f"{spec_label(spec)}: P({slug}) = {prob.count}/{prob.total}"
        return None

    return Op("fresh" if V >= FRESH_VALUES[0] else "count", call, check)


def proof_op(rng, spec) -> Op:
    slug = rng.choice(ref.CATEGORIES)
    count = ref.closed_forms(spec.values, spec.suits, _both(spec))[slug]

    def call():
        return hands.combinatorial_proof(_category(slug), spec).render_text()

    def check(text) -> Optional[str]:
        if f"There are exactly {count} " not in text or not text.endswith("∎\n"):
            return f"{spec_label(spec)}: proof of {slug} lacks count {count}"
        return None

    return Op("proof", call, check)


PLAYER_CATEGORIES = ("full-house", "flush", "straight", "three-of-a-kind",
                     "two-pair", "pair", "high-card")


def winner_entries(rng) -> list:
    return [(f"p{i}", rng.choice(PLAYER_CATEGORIES))
            for i in range(1, rng.randint(2, 4) + 1)]


def winner_op(rng, spec) -> Op:
    entries = winner_entries(rng)
    want = ref.winner(entries, spec.values, spec.suits, _both(spec))
    typed = [(name, _category(slug)) for name, slug in entries]

    def check(report) -> Optional[str]:
        if (report.winner, tuple(report.tied)) != want:
            return f"{entries} in {spec_label(spec)}: {report.winner}, " \
                   f"{report.tied} != {want}"
        return None

    return Op("winner", lambda: hands.determine_winner(typed, spec), check)


def walk_graph(rng, n_edges: int, closed: bool, extra_odd: int = 0):
    """Vertices and edge pairs of a random walk, so the walk itself is an
    Eulerian trail (a circuit when closed).  `extra_odd` more edges, each
    joining two walk vertices no other extra edge touches, make
    2*extra_odd more vertices odd."""
    names = [f"r{i}" for i in range(max(5, n_edges // 4))]
    while True:
        steps = rng.choices(names, k=n_edges)
        if closed:
            steps[-1] = names[0]
        pairs = list(zip([names[0]] + steps, steps))
        seen = sorted(set(steps) | {names[0]})
        if len(seen) >= 2 * extra_odd:
            break
    for a, b in zip(*[iter(rng.sample(seen, 2 * extra_odd))] * 2):
        pairs.append((a, b))
    return seen, pairs


def graph_text(vertices, pairs) -> str:
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def graph_op(rng, n_edges: int, mode: str) -> Op:
    if mode == "trail":
        vertices, pairs = walk_graph(rng, n_edges, closed=rng.random() < 0.5)
    elif mode == "proof":
        vertices, pairs = walk_graph(rng, n_edges, closed=True, extra_odd=2)
    else:
        vertices, pairs = walk_graph(rng, n_edges, closed=False)
    text = graph_text(vertices, pairs)
    odd = ref.odd_vertices(pairs)

    if mode == "trail":
        edges = {i: pair for i, pair in enumerate(pairs, start=1)}

        def call():
            return graphs.find_trail(graphs.parse_graph(text))

        def check(trail) -> Optional[str]:
            if not isinstance(trail, graphs.Trail):
                return f"{len(pairs)}-edge walk graph: no trail ({trail})"
            return ref.trail_error(edges, trail)
    elif mode == "proof":
        listed = ", ".join(odd) + "."

        def call():
            return graphs.impossibility_proof(graphs.parse_graph(text))

        def check(doc) -> Optional[str]:
            if not any(step.endswith(listed) for step in doc.step_texts()):
                return f"{len(pairs)}-edge graph: proof does not list {odd}"
            return None
    else:
        want = "Circuit" if not odd else "OpenTrail"

        def call():
            return graphs.eulerian_status(graphs.parse_graph(text))

        def check(status) -> Optional[str]:
            if status.value != want:
                return f"{len(pairs)}-edge walk graph: {status.value} != {want}"
            return None

    return Op("graph", call, check)


def rubric_texts(rng):
    """(rubric text, marks text, total half-points, maximum half-points)."""
    if rng.random() < 0.5:
        lines = [None]
        marks, total, maximum = [], 0, 0
        for sec in range(rng.randint(1, 4)):
            lines.append(f"section Part {sec + 1}")
            for j in range(rng.randint(1, 6)):
                desc = f"criterion {sec + 1}.{j + 1}"
                points, mult = rng.randint(1, 10), rng.randint(1, 5)
                suffix = f" x{mult}" if mult > 1 else ""
                lines.append(f'criterion "{desc}" points={points}{suffix}')
                hp = rng.randint(0, 2 * points)
                marks.append(f'award "{desc}" {hp // 2}' + (".5" if hp % 2 else ""))
                total += hp * mult
                maximum += 2 * points * mult
        lines[0] = f"rubric point Generated max={maximum // 2}"
    else:
        lines = ["rubric trait Generated"]
        marks, total = [], 0
        n_traits = rng.randint(1, 17)
        for t in range(n_traits):
            lines.append(f'trait "trait {t + 1}"')
            lines += [f'level {k} "level {k} of trait {t + 1}"'
                      for k in range(1, 6)]
            level = rng.randint(1, 5)
            marks.append(f'level "trait {t + 1}" {level}')
            total += 2 * level
        maximum = 10 * n_traits
    rng.shuffle(marks)
    return "\n".join(lines) + "\n", "\n".join(marks) + "\n", total, maximum


def rubric_op(rng) -> Op:
    text, marks, total, maximum = rubric_texts(rng)

    def call():
        return rubric.score(rubric.load_rubric(text), rubric.parse_marks(marks))

    def check(report) -> Optional[str]:
        if (report.total_hp, report.maximum_hp) != (total, maximum):
            return f"rubric total {report.total_hp}/{report.maximum_hp} " \
                   f"!= {total}/{maximum}"
        return None

    return Op("rubric", call, check)


def deck_flags(spec) -> list:
    flags = ["--values", str(spec.values), "--suits", str(spec.suits)]
    return flags + ([] if _both(spec) else ["--ace", "high"])


def poker_argv(rng, spec, kind: str):
    """A `poker count/prob/winner` argv, its exit code and the start of
    the stdout it must print."""
    V, S, both = spec.values, spec.suits, _both(spec)
    counts = ref.closed_forms(V, S, both)
    if kind == "count":
        want = "".join(f"{slug}: {counts[slug]}\n" for slug in ref.CATEGORIES)
        return ["poker", "count", "--all"] + deck_flags(spec), 0, want
    if kind == "prob":
        slug = rng.choice(ref.CATEGORIES)
        return (["poker", "prob", slug] + deck_flags(spec), 0,
                f"{slug}: {counts[slug]}/{math.comb(V * S, 5)} = ")
    entries = winner_entries(rng)
    code, want = ref.winner_output(entries, V, S, both)
    return (["poker", "winner"] + [f"{n}={c}" for n, c in entries]
            + deck_flags(spec), code, want)


def cli_op(rng, spec) -> Op:
    argv, want_code, want = poker_argv(
        rng, spec, rng.choice(("count", "prob", "winner")))

    def call():
        out = StringIO()
        return cli.run(argv, out=out), out.getvalue()

    def check(answer) -> Optional[str]:
        code, text = answer
        if code != want_code or not text.startswith(want):
            return f"cli {' '.join(argv)}: exit {code}, {text[:80]!r}"
        return None

    return Op("cli", call, check)


def small_decks(rng, n: int, max_values: int = 16, max_suits: int = 4) -> list:
    return [make_spec(rng.randint(5, max_values), rng.randint(2, max_suits), 0,
                  rng.random() < 0.5) for _ in range(n)]


def zipf_picker(rng, pool: list, s: float = 1.1):
    weights = [1 / (i + 1) ** s for i in range(len(pool))]
    return lambda: rng.choices(pool, weights)[0]


# Requests of each kind in one query-mix round, besides its graphs.  The
# mix is chosen, not measured from any real traffic; see query_mix.
ROUND = {"hand": 24, "wild": 8, "count": 16, "proof": 4, "winner": 4,
         "rubric": 6, "cli": 6}
GRAPHS_PER_ROUND = 6
GRAPH_MODES = ("trail", "proof", "status")


def query_mix(rng: random.Random, small: bool = False) -> Iterator[list]:
    """Rounds of 74 requests (ROUND plus GRAPHS_PER_ROUND graphs).

    No record of real use exists, so the mix is chosen, not measured, for
    what each end-to-end metric should see:

    - hands (24, half of them on the standard deck, the CLI's default) and
      wild hands (8) are the cheapest requests and 32 of 74, so the median
      request is a parse_hand + classify call;
    - counts (16), each ten count_category calls and a probability, come
      from a pool of 40 small decks (V 5..16, S 2..4) drawn with Zipf
      weights of exponent 1.1, so a few decks repeat often and per-deck
      caches both hit and miss;
    - proofs, winners (4 each), rubrics and in-process CLI calls (6 each)
      put every other layer into every round;
    - graphs (6) climb a log ladder from 10 to 40k edges, so the top rung,
      10k..40k edges, is 1 request in 74: above 1%, so p99 falls among
      the largest graphs, with more than ten samples beyond it in a run;
    - one fresh V of FRESH_VALUES (10^3..10^5) is counted in each of the
      first five rounds, so every run holds the same O(V) straight-run
      work once.
    """
    checker = ref.WildTallies()
    pick = zipf_picker(rng, small_decks(rng, 40))
    fresh = [] if small else [
        (v + rng.randrange(v // 20), rng.randint(2, 6)) for v in FRESH_VALUES]
    rng.shuffle(fresh)
    lo, hi = (10, 200) if small else GRAPH_EDGES
    offset = rng.random()
    for r in itertools.count():
        ops = []
        for _ in range(ROUND["hand"]):
            spec = deck.STANDARD_DECK if rng.random() < 0.5 else pick()
            ops.append(hand_op(rng, spec, checker))
        for i in range(ROUND["wild"]):
            spec = pick()
            spec = make_spec(spec.values, spec.suits, 2, _both(spec))
            ops.append(hand_op(rng, spec, checker, n_wilds=1 + (i % 4 == 3)))
        ops += [count_op(rng, pick()) for _ in range(ROUND["count"])]
        ops += [proof_op(rng, pick()) for _ in range(ROUND["proof"])]
        ops += [winner_op(rng, pick()) for _ in range(ROUND["winner"])]
        ops += [rubric_op(rng) for _ in range(ROUND["rubric"])]
        ops += [cli_op(rng, pick()) for _ in range(ROUND["cli"])]
        u = (offset + r * PHI) % 1
        for j in range(GRAPHS_PER_ROUND):
            edges = round(lo * (hi / lo) ** ((j + u) / GRAPHS_PER_ROUND))
            ops.append(graph_op(rng, edges, GRAPH_MODES[(j + r) % 3]))
        if r < len(fresh):
            v, s = fresh[r]
            ops.append(count_op(rng, make_spec(v, s, 0, rng.random() < 0.5)))
        rng.shuffle(ops)
        yield ops


# --- cli-cold -------------------------------------------------------------------


class CliScript:
    """Writes the generated input files of cli-cold into `workdir` and runs
    each command as a fresh `python -m parlorproofs.cli` process."""

    def __init__(self, workdir: str, src_dir: str) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.data = os.path.join(src_dir, "parlorproofs", "data")
        self.files = 0

    def write(self, text: str, suffix: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def fixture(self, name: str) -> str:
        return os.path.join(self.data, name)

    def op(self, argv: list, want_code: int) -> Op:
        command = [sys.executable, "-m", "parlorproofs.cli"] + argv

        def call():
            done = subprocess.run(command, capture_output=True, text=True,
                                  env=self.env, cwd=self.workdir, timeout=60)
            return done.returncode, done.stdout

        def check(answer) -> Optional[str]:
            out = StringIO()
            expected = cli.run(argv, out=out), out.getvalue()
            if answer != expected or answer[0] != want_code:
                return (f"{' '.join(argv)}: exit {answer[0]} (in process "
                        f"{expected[0]}, expected {want_code}), stdout "
                        f"{'matches' if answer[1] == expected[1] else 'differs'}")
            return None

        return Op("cli", call, check, span="cli.subprocess")


def cli_commands(rng, script: CliScript) -> list:
    """One round of cli-cold: each command once, with seeded arguments."""
    spec = small_decks(rng, 1, 13, 6)[0]
    poker = [poker_argv(rng, spec, kind)[:2] for kind in ("count", "winner")]
    slug = rng.choice(ref.CATEGORIES)
    tiny = make_spec(5, rng.randint(2, 3), 0, rng.random() < 0.5)
    vertices, pairs = walk_graph(rng, rng.randint(20, 500), rng.random() < 0.5)
    trail_file = script.write(graph_text(vertices, pairs), ".graph")
    vertices, pairs = walk_graph(rng, rng.randint(20, 500), True, extra_odd=2)
    no_trail = rng.choice([script.write(graph_text(vertices, pairs), ".graph"),
                           script.fixture("konigsberg.graph"),
                           script.fixture("cat_and_mouse.graph")])
    rubric_text, marks_text, _, _ = rubric_texts(rng)
    return [script.op(argv, code) for argv, code in poker] + [
        script.op(["poker", "prob", slug] + deck_flags(spec), 0),
        script.op(["poker", "proof", slug] + deck_flags(spec), 0),
        script.op(["poker", "verify"] + deck_flags(tiny), 0),
        script.op(["graph", "analyze", rng.choice([trail_file, no_trail])], 0),
        script.op(["graph", "trail", trail_file], 0),
        script.op(["graph", "proof", no_trail], 0),
        script.op(["rubric", "score", script.write(rubric_text, ".rubric"),
                   script.write(marks_text, ".marks")], 0),
    ]


def cli_cold(rng: random.Random, script: CliScript) -> Iterator[list]:
    while True:
        ops = cli_commands(rng, script)
        rng.shuffle(ops)
        yield ops


# --- probes of the traced run --------------------------------------------------


def probe_round(script: CliScript, seed: int) -> list:
    """A few calls of every traced layer, for layers the workload itself
    does not call; wild decks are oracle-wild's."""
    rng = random.Random(f"probe/{seed}")
    checker = ref.WildTallies()
    ops = [hand_op(rng, deck.STANDARD_DECK, checker) for _ in range(30)]
    for k, count in ((1, 10), (2, 5), (3, 3)):
        for _ in range(count):
            v, s = rng.choice(WILD_SHAPES[3])
            spec = make_spec(v, s, 3)
            ops.append(hand_op(rng, spec, checker, n_wilds=k))
    small = small_decks(rng, 10)
    ops += [count_op(rng, spec) for spec in small]
    ops += [count_op(rng, make_spec(v, 4))
            for v in (1_500 + rng.randrange(100), 2_500 + rng.randrange(100))]
    ops += [proof_op(rng, spec) for spec in small[:5]]
    ops += [winner_op(rng, spec) for spec in small[5:]]
    ops += [verify_op(make_spec(v, s)) for v, s in ((6, 3), (5, 4))]
    ops += [tally_op(make_spec(5, 2, w), checker) for w in (2, 3)]
    for edges, mode in ((300, "trail"), (500, "trail"), (5000, "trail"),
                        (300, "proof"), (500, "proof"),
                        (300, "status"), (500, "status")):
        ops.append(graph_op(rng, edges, mode))
    ops += [rubric_op(rng) for _ in range(5)]
    ops += [cli_op(rng, spec) for spec in small[:5]]
    ops += [script.op(["poker", "count", slug], 0)
            for slug in ("royal-flush", "pair")]
    return ops


WORKLOADS = ("oracle-natural", "oracle-wild", "query-mix", "cli-cold")


def stream(name: str, seed: int, script: Optional[CliScript] = None,
           small: bool = False) -> Iterator[list]:
    """The rounds of workload `name` for `seed`, each a list of operations
    whose mix of work is the same in every round but the first ones;
    `small` shrinks every input for a quick self-test."""
    rng = random.Random(f"{name}/{seed}")
    if name == "oracle-natural":
        return oracle_natural(rng, 5_000 if small else None)
    if name == "oracle-wild":
        return oracle_wild(rng, 2_000 if small else None)
    if name == "query-mix":
        return query_mix(rng, small)
    if name == "cli-cold":
        return cli_cold(rng, script)
    raise ValueError(f"unknown workload {name!r}")
