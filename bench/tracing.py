"""Spans around the benchmark's calls into parlorproofs, and the per-layer
metrics computed from them.

A Tracer replaces each public function named in TARGETS by a wrapper that
records a span, in every parlorproofs module that holds the function, so
calls that one layer makes into another (verify_closed_forms calling
tally_all, cli.run calling count_category) get spans too.  Only calls made
inside a request are recorded: the benchmark's own answer checks, which
may call the library too, are not.  Spans stay in memory as (name, start,
end, parent, request id, variant, size) and are turned into metrics when
the run ends.
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter

from parlorproofs import cli, deck, graphs, hands, oracle, proofdoc, rubric

FIND_TRAIL_LARGE_EDGES = 2000  # find_trail cost per edge grows with size
LARGE_V = 1000                 # count_category with a fresh, large V


def _wild_count(args, kwargs):
    return f"k{len(args[0].wilds)}", None


def _values(args, kwargs):
    return ("large_v" if args[1].values >= LARGE_V else "small_v"), None


def _lines(args, kwargs):
    return None, args[0].count("\n") + 1


def _edges(args, kwargs):
    return None, args[0].edge_count


def _trail_edges(args, kwargs):
    n = args[0].edge_count
    return ("large" if n >= FIND_TRAIL_LARGE_EDGES else "small"), n


def _deck(args, kwargs):
    spec = args[0]
    return (spec.values, spec.suits, spec.wilds), math.comb(spec.size, 5)


# span name -> (owner, attribute, sizer giving (variant, size) from the args)
TARGETS = {
    "deck.parse_hand": (deck, "parse_hand", None),
    "hands.classify": (hands, "classify", None),
    "hands.classify_with_wilds": (hands, "classify_with_wilds", _wild_count),
    "hands.count_category": (hands, "count_category", _values),
    "hands.probability": (hands, "probability", None),
    "hands.combinatorial_proof": (hands, "combinatorial_proof", None),
    "hands.determine_winner": (hands, "determine_winner", None),
    "proofdoc.render_text": (proofdoc.ProofDocument, "render_text", None),
    "oracle.verify_closed_forms": (oracle, "verify_closed_forms", None),
    "oracle.tally_all": (oracle, "tally_all", _deck),
    "graphs.parse_graph": (graphs, "parse_graph", _lines),
    "graphs.eulerian_status": (graphs, "eulerian_status", _edges),
    "graphs.find_trail": (graphs, "find_trail", _trail_edges),
    "graphs.impossibility_proof": (graphs, "impossibility_proof", None),
    "rubric.load_rubric": (rubric, "load_rubric", _lines),
    "rubric.parse_marks": (rubric, "parse_marks", _lines),
    "rubric.score": (rubric, "score", None),
    "cli.run": (cli, "run", None),
}

# Spans the benchmark opens itself: the whole timed loop, each request in
# it, and each CLI subprocess.
BENCH_SPANS = ("bench.workload", "bench.request", "cli.subprocess")
SPANS = BENCH_SPANS + tuple(TARGETS)
SPAN_FIELDS = ("name", "start", "end", "parent", "request", "variant", "size")


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "parlorproofs"
                                  or name.startswith("parlorproofs."))]


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() puts
    the original functions back."""

    def __init__(self) -> None:
        self.spans: list = []  # one list of SPAN_FIELDS per span
        self._stack: list = []
        self.request = None
        self.cache_lookups = [0, 0]  # straight_runs hits, misses in requests
        self._patched: list = []

    def open(self, name: str, variant=None, size=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request,
                           variant, size])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for name, (owner, attr, sizer) in TARGETS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, sizer)
            holders = [owner] if isinstance(owner, type) else _modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, sizer):
        def traced(*args, **kwargs):
            if self.request is None:  # outside the workload's requests
                return fn(*args, **kwargs)
            try:
                variant, size = sizer(args, kwargs) if sizer else (None, None)
            except (AttributeError, IndexError, TypeError):
                variant, size = None, None  # a call shape the sizer does not know
            index = self.open(name, variant, size)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _, _ in self.spans]
        for _, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def coverage(self) -> float:
        """Share of the requests' time that library spans (and CLI
        subprocesses) cover; a call missing from TARGETS lowers it."""
        own = self.self_times()
        covered = sum(t for span, t in zip(self.spans, own)
                      if span[0] not in ("bench.workload", "bench.request"))
        requests = sum(end - start for name, start, end, *_ in self.spans
                       if name == "bench.request")
        return covered / requests if requests else 0.0


def _median(values):
    return statistics.median(values) if values else None


class LayerMetrics:
    """Per-layer metrics from a main tracer, falling back to a probe tracer
    for any layer the workload itself never called."""

    def __init__(self, main: Tracer, probe: Tracer) -> None:
        self.sources = [main, probe]
        self.selfs = [main.self_times(), probe.self_times()]

    def _pick(self, name, variant=Ellipsis):
        """(spans, self times) of the first tracer holding a matching span;
        a callable variant is a test on the span's variant."""
        def match(v):
            if variant is Ellipsis:
                return True
            return variant(v) if callable(variant) else v == variant

        for tracer, selfs in zip(self.sources, self.selfs):
            rows = [(s, own) for s, own in zip(tracer.spans, selfs)
                    if s[0] == name and match(s[5])]
            if rows:
                return rows
        return []

    def median_us(self, name, variant=Ellipsis, per_size=False):
        rows = self._pick(name, variant)
        values = [(s[2] - s[1]) * 1e6 / (s[6] if per_size else 1)
                  for s, _ in rows if not per_size or s[6]]
        return _median(values)

    def mean_us(self, name, variant=Ellipsis):
        durations = [s[2] - s[1] for s, _ in self._pick(name, variant)]
        return sum(durations) * 1e6 / len(durations) if durations else None

    def calls(self, name):
        return len(self._pick(name))

    def self_s(self, name, variant=Ellipsis):
        return sum(own for _, own in self._pick(name, variant))

    def table(self) -> dict:
        out = {
            "deck.parse_hand.us": self.median_us("deck.parse_hand"),
            "hands.classify.us": self.median_us("hands.classify"),
            "hands.combinatorial_proof.us":
                self.median_us("hands.combinatorial_proof"),
            "hands.determine_winner.us":
                self.median_us("hands.determine_winner"),
            "proofdoc.render_text.us": self.median_us("proofdoc.render_text"),
            "oracle.tally_all.s": _median(
                [s[2] - s[1] for s, _ in self._pick("oracle.tally_all")]),
            "oracle.hands": sum(s[6] or 0 for s, _ in self._pick("oracle.tally_all")),
            "oracle.closed_form.self_s":
                self.self_s("oracle.verify_closed_forms"),
            "graphs.parse_graph.us_per_line":
                self.median_us("graphs.parse_graph", per_size=True),
            "graphs.eulerian_status.us_per_edge":
                self.median_us("graphs.eulerian_status", per_size=True),
            "graphs.find_trail.us_per_edge.small":
                self.median_us("graphs.find_trail", "small", per_size=True),
            "graphs.find_trail.us_per_edge.large":
                self.median_us("graphs.find_trail", "large", per_size=True),
            "rubric.load_rubric.us_per_line":
                self.median_us("rubric.load_rubric", per_size=True),
            "rubric.parse_marks.us_per_line":
                self.median_us("rubric.parse_marks", per_size=True),
            "rubric.score.us": self.median_us("rubric.score"),
            "cli.run.us": self.median_us("cli.run"),
        }
        for k in (1, 2, 3):
            out[f"hands.classify_with_wilds.k{k}.us"] = self.median_us(
                "hands.classify_with_wilds", f"k{k}")
        # A mean, so that the first call for a deck, which builds and caches
        # its straight runs, is counted.
        for variant in ("small_v", "large_v"):
            out[f"hands.count_category.{variant}.us"] = self.mean_us(
                "hands.count_category", variant)
        for name in SPANS:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        return out

    def wild_subs_per_hand(self) -> float:
        """Substitutions the traced tallies try per wild hand, computed as
        the mean of (V*S)^k over hands holding k >= 1 wilds."""
        rows = self._pick("oracle.tally_all", lambda deck: bool(deck and deck[2]))
        return wild_subs_per_hand([s[5] for s, _ in rows])


def wild_subs_per_hand(decks) -> float:
    subs = hands_with_wilds = 0
    for values, suits, wilds in decks:
        naturals = values * suits
        for k in range(1, min(wilds, 5) + 1):
            n = math.comb(wilds, k) * math.comb(naturals, 5 - k)
            hands_with_wilds += n
            subs += n * naturals ** k
    return subs / hands_with_wilds if hands_with_wilds else 0.0


def straight_runs_hits():
    """(hits, misses) of the straight_runs cache; zeros once it has none."""
    cache_info = getattr(getattr(hands, "straight_runs", None), "cache_info", None)
    if cache_info is None:
        return 0, 0
    info = cache_info()
    return info.hits, info.misses
