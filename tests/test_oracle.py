import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import chain, combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from parlorproofs import oracle
from parlorproofs.deck import AceRule, DeckSpec, STANDARD_DECK, binomial
from parlorproofs.hands import (DeckTooLargeError, HandCategory,
                                WildCardsUnsupportedError)
from parlorproofs.oracle import (EnumerationCapError, class_count, tally_all,
                                 verify_closed_forms)

from fixtures import fixture_text
from independent import (best_over_substitutions, hand_class_count,
                         naive_classifier, natural_pairs,
                         value_multiset_count)

SRC = Path(__file__).resolve().parent.parent / "src"


def plain_tally(spec):
    """Every hand of the deck, wilds as distinct cards, classified one by one
    by the independent checkers."""
    wilds = [("wild", i) for i in range(1, spec.wilds + 1)]
    classify = naive_classifier(spec)
    best = {}
    tallies = dict.fromkeys(HandCategory, 0)
    for hand in combinations(natural_pairs(spec) + wilds, 5):
        held = tuple(card for card in hand if card[0] != "wild")
        k = 5 - len(held)
        if k == 0:
            tallies[classify(held)] += 1
            continue
        if held not in best:
            best[held] = best_over_substitutions(held, k, spec)
        tallies[best[held]] += 1
    return tallies


# Decks for the plain enumeration.  S = 5 and 6 hold five of a kind; W = 6
# reaches the all-wild hands; (3, 6, 2), (4, 5, 1) and (2, 6, 3) hold wild
# hands three or more values deep.  Then every deck of V 1-6, S 1-6 and
# W 0-4 with at most 2,002 hands: S = 1, where no hand mixes suits, distinct
# held values with wilds, which reach both the one-suit and the mixed hand
# of their class, and room for the wilds at every depth.
PLAIN_SHAPES = [(5, 5, 0), (3, 6, 0), (2, 6, 1), (5, 2, 6), (2, 5, 2),
                (3, 6, 2), (4, 5, 1), (2, 6, 3)]
PLAIN_SHAPES += [(v, s, w) for v in range(1, 7) for s in range(1, 7)
                 for w in range(5)
                 if 5 <= v * s + w and binomial(v * s + w, 5) <= 2_002
                 and (v, s, w) not in PLAIN_SHAPES]


class TestTallyAll:
    def test_one_hand_deck(self):
        tallies = tally_all(DeckSpec(values=5, suits=1))
        assert tallies[HandCategory.ROYAL_FLUSH] == 1
        assert sum(tallies.values()) == 1

    def test_totals_match_hand_count(self):
        spec = DeckSpec(values=6, suits=3)
        assert sum(tally_all(spec).values()) == binomial(18, 5)

    def test_wild_total_matches_hand_count(self):
        spec = DeckSpec(values=5, suits=2, wilds=1)
        assert sum(tally_all(spec).values()) == binomial(11, 5)

    def test_cap_refusal_names_the_required_count(self):
        # 200 values in one suit make C(200, 5) classes, one classifier
        # call each, refused before any walk.
        with pytest.raises(EnumerationCapError,
                           match="deck's 2535650040 classifier calls exceed"):
            tally_all(DeckSpec(values=200, suits=1))

    def test_cap_refusal_on_a_count_too_long_to_print(self):
        # 2·C(10**900 + 4, 5) has more digits than CPython converts to str.
        with pytest.raises(EnumerationCapError,
                           match="a number of about 449[0-9] digits"):
            tally_all(DeckSpec(values=10 ** 900))

    def test_cap_counts_classes_not_hands(self, monkeypatch):
        # A cap at the standard deck's count admits it, and refuses one more
        # value or one wild.  The walk makes one call per multiset of
        # natural values, as many as independent.value_multiset_count
        # counts.
        monkeypatch.setattr(oracle, "ENUMERATION_CAP", 6_175)
        assert sum(tally_all(STANDARD_DECK).values()) == binomial(52, 5)
        for spec, calls in ((DeckSpec(values=14, suits=4), 8_554),
                            (DeckSpec(values=13, suits=4, wilds=1), 7_995)):
            assert calls == sum(value_multiset_count(spec.values, 4, n)
                                for n in range(5 - spec.wilds, 6))
            with pytest.raises(EnumerationCapError, match=(
                    f"deck's {calls} classifier calls exceed the cap "
                    "of 6175")):
                tally_all(spec)

    def test_cap_admits_the_readme_deck(self):
        # The cap is the count of 39 values at S >= 5 with W >= 5 from when
        # the walk classified each set of two to five distinct values twice,
        # a count of classifier calls that each cost what they do now.  The
        # count grows with V, S up to 5 and W up to 5: so every deck of up
        # to 44 values without wilds, or 43 with wilds, is admitted at any
        # S, and one suit admits 48 values, or 47 with wilds.  No deck is
        # walked.
        assert (class_count(DeckSpec(39, 5, wilds=5))
                + sum(binomial(39, n) for n in range(2, 6))
                == oracle.ENUMERATION_CAP)
        for values, suits, wilds in ([(44, 5, 0), (48, 1, 0), (47, 1, 5)]
                                     + [(43, 5, w) for w in range(6)]):
            spec = DeckSpec(values, suits, wilds=wilds)
            assert class_count(spec) <= oracle.ENUMERATION_CAP, spec
        cap = oracle.ENUMERATION_CAP
        assert (class_count(DeckSpec(44, 2)) <= cap
                < class_count(DeckSpec(45, 2)))
        assert (class_count(DeckSpec(43, 5, wilds=5)) == 1_712_304 <= cap
                < class_count(DeckSpec(44, 2, wilds=1)) == 1_845_173)
        # One call per multiset of natural values, and one for the all-wild
        # hand, as counted independently.
        for values, suits, wilds in ((43, 5, 5), (44, 2, 1), (44, 2, 0),
                                     (45, 2, 0), (48, 1, 0), (47, 1, 5)):
            assert class_count(DeckSpec(values, suits, wilds=wilds)) == sum(
                value_multiset_count(values, suits, n)
                for n in range(max(0, 5 - wilds), 6))

    @pytest.fixture
    def no_classifier(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("classifier called")

        monkeypatch.setattr(oracle, "classify_pairs", unreachable)
        monkeypatch.setattr(oracle, "best_completion", unreachable)

    def test_one_suit_deck_refused_before_any_classifier_call(
            self, no_classifier):
        # 75,287,520 hands, each a class of its own.
        with pytest.raises(EnumerationCapError, match="deck's 75287520 "):
            tally_all(DeckSpec(values=100, suits=1))

    # The least decks past the cap in one and in two suits.
    @pytest.mark.parametrize("spec, calls", [
        (DeckSpec(values=49, suits=1), 1_906_884),
        (DeckSpec(values=45, suits=2), 1_860_309),
    ], ids=["49x1", "45x2"])
    def test_decks_past_the_cap_refused_before_any_classifier_call(
            self, no_classifier, spec, calls):
        with pytest.raises(EnumerationCapError,
                           match=f"deck's {calls} classifier calls exceed"):
            tally_all(spec)

    # Their classes are few, but every class weighs C(S, a) or C(W, k) of
    # about 900 digits, and no count would print.
    @pytest.mark.parametrize("spec", [DeckSpec(values=13, suits=10 ** 900),
                                      DeckSpec(wilds=10 ** 900)],
                             ids=["suits", "wilds"])
    def test_deck_too_large_to_print_refused_before_any_classifier_call(
            self, no_classifier, spec):
        with pytest.raises(DeckTooLargeError):
            tally_all(spec)

    @pytest.mark.parametrize("ace_rule", list(AceRule))
    @pytest.mark.parametrize("shape", PLAIN_SHAPES,
                             ids="v{0[0]}s{0[1]}w{0[2]}".format)
    def test_equals_the_plain_enumeration(self, shape, ace_rule):
        spec = DeckSpec(*shape, ace_rule=ace_rule)
        assert tally_all(spec) == plain_tally(spec)

    # The walk classifies 5 - k distinct values in one suit only, and reads
    # the category of the same values in mixed suits, completed by the same
    # k wilds, off it through oracle.MIXED_SUITS[k]: the independent
    # checkers must give, for every set of 5 - k values, categories that
    # differ by exactly that map.  Wild hands are searched in V 1-9, every
    # substitution tried.
    @pytest.mark.parametrize("ace_rule", list(AceRule))
    def test_suit_bit_only_toggles_flushness(self, ace_rule):
        mixed_of = {k: {} for k in range(4)}
        for V in range(1, 15):
            # Three wilds make a deck of V < 3; the checkers read no wild.
            spec = DeckSpec(V, 2, wilds=3, ace_rule=ace_rule)
            classify = naive_classifier(spec)
            for k in range(4) if V < 10 else (0,):
                for values in combinations(range(1, V + 1), 5 - k):
                    cards = [(v, 1) for v in values]
                    hands = cards, [(values[0], 2)] + cards[1:]
                    one_suit, mixed = (
                        best_over_substitutions(hand, k, spec) if k
                        else classify(hand) for hand in hands)
                    assert mixed_of[k].setdefault(one_suit, mixed) == mixed, \
                        (k, values)
        changed = {k: {one: mixed for one, mixed in row.items()
                       if one != mixed}
                   for k, row in mixed_of.items()}
        runs = {HandCategory.ROYAL_FLUSH: HandCategory.STRAIGHT,
                HandCategory.STRAIGHT_FLUSH: HandCategory.STRAIGHT}
        assert changed == {
            0: {**runs, HandCategory.FLUSH: HandCategory.HIGH_CARD},
            1: {**runs, HandCategory.FLUSH: HandCategory.PAIR},
            2: {**runs, HandCategory.FLUSH: HandCategory.THREE_OF_A_KIND},
            3: {HandCategory.ROYAL_FLUSH: HandCategory.FOUR_OF_A_KIND,
                HandCategory.STRAIGHT_FLUSH: HandCategory.FOUR_OF_A_KIND},
        }
        assert oracle.MIXED_SUITS == changed

    @staticmethod
    def classifier_calls(monkeypatch, spec):
        calls = Counter()

        def counting(name, classifier):
            def counted(*args):
                calls[name] += 1
                return classifier(*args)
            return counted

        monkeypatch.setattr(oracle, "classify_pairs",
                            counting("natural", oracle.classify_pairs))
        monkeypatch.setattr(oracle, "best_completion",
                            counting("wild", oracle.best_completion))
        tallies = tally_all(spec, workers=1)
        assert sum(tallies.values()) == binomial(spec.size, 5)
        return calls

    def test_classifies_one_hand_per_suit_choice(self, monkeypatch):
        # One classifier call per class of natural hands, or of natural
        # (5 - k)-subsets for k = 1..W wilds: per multiset of values and
        # per "all in one suit or not", but one call for the two classes of
        # n distinct values, whose categories differ only in flushness.
        V, S, W = 8, 4, 2
        calls = self.classifier_calls(monkeypatch, DeckSpec(V, S, wilds=W))
        assert calls == {
            "natural": hand_class_count(V, S, 5) - binomial(V, 5),
            "wild": sum(hand_class_count(V, S, 5 - k) - binomial(V, 5 - k)
                        for k in range(1, W + 1)),
        }
        assert calls == {"natural": 784, "wild": 450}
        assert class_count(DeckSpec(V, S, wilds=W)) == 1_234

    def test_standard_deck_classifies_one_hand_per_suit_class(self, monkeypatch):
        # The standard deck's 2,598,960 hands fall into 7,462 classes of
        # (values, one suit or not), and the C(13, 5) = 1,287 classes of
        # five distinct values in mixed suits are read off their one-suit
        # classes; hand_class_count(13, 4, 5) gives the 7,462, but takes
        # seconds, so it is pinned here.
        calls = self.classifier_calls(monkeypatch, STANDARD_DECK)
        assert calls == {"natural": 7_462 - binomial(13, 5)}
        assert class_count(STANDARD_DECK) == 6_175

    # Every hand handed to a classifier is real: distinct cards of values
    # 1..V and suits 1..S.  A card in suit 2 of a one-suit deck, or a card
    # held twice, would be classified as some category all the same.  And
    # class_count counts the calls, which on the small decks are the
    # classes of natural (5 - k)-subsets the independent checker finds,
    # the all-wild hand the one empty subset, less the C(V, n) classes of n
    # distinct values in mixed suits for each n >= 2 when S > 1.  7x4 and
    # 6x3 W1, median decks of the benchmark, skip lowest values and hold
    # shapes of two repeated values without a single card.
    @pytest.mark.parametrize("shape", PLAIN_SHAPES + [(13, 4, 0), (13, 4, 2),
                                                      (7, 4, 0), (6, 3, 1)],
                             ids="v{0[0]}s{0[1]}w{0[2]}".format)
    def test_classifies_distinct_cards_of_the_deck(self, shape, monkeypatch):
        spec = DeckSpec(*shape)
        V, S, W = shape
        calls = Counter()

        def checking(name, classifier):
            def checked(cards, *args):
                calls[name] += 1
                room = args[0] if len(args) == 2 else 0
                assert len(cards) + room == 5 and room <= W, (cards, room)
                assert len(set(cards)) == len(cards), cards
                assert all(1 <= v <= V and 1 <= s <= S for v, s in cards), cards
                return classifier(cards, *args)
            return checked

        monkeypatch.setattr(oracle, "classify_pairs",
                            checking("natural", oracle.classify_pairs))
        monkeypatch.setattr(oracle, "best_completion",
                            checking("wild", oracle.best_completion))
        assert sum(tally_all(spec, workers=1).values()) == binomial(spec.size, 5)
        # The checks ran wherever the deck has such hands.
        assert calls["natural"] or V * S < 5
        assert calls["wild"] or not W
        assert sum(calls.values()) == class_count(spec)
        if shape in PLAIN_SHAPES:
            assert class_count(spec) == sum(
                hand_class_count(V, S, 5 - k) for k in range(min(W, 5) + 1)
            ) - (sum(binomial(V, n) for n in range(max(2, 5 - W), 6))
                 if S > 1 else 0)

    # Each Python step of the walk, one stream piece handed to
    # chain.from_iterable, holds at least one class: in one task and in
    # each task of one lowest value.
    @pytest.mark.parametrize("shape", [(1, 5, 0), (2, 3, 0), (2, 2, 1),
                                       (3, 4, 2), (7, 4, 0), (6, 3, 1),
                                       (5, 6, 5), (9, 2, 3)],
                             ids="v{0[0]}s{0[1]}w{0[2]}".format)
    def test_every_walk_step_holds_a_class(self, shape, monkeypatch):
        spec = DeckSpec(*shape)
        sizes = []

        def measured(pieces):
            for piece in pieces:
                piece = list(piece)
                sizes.append(len(piece))
                yield piece

        monkeypatch.setattr(oracle, "chain", SimpleNamespace(
            from_iterable=lambda pieces: chain.from_iterable(measured(pieces))))
        V = spec.values
        for lowest in [range(1, V + 1)] + [range(v, v + 1)
                                           for v in range(1, V + 1)]:
            sizes.clear()
            oracle._tally_task(spec, lowest)
            assert 0 not in sizes, (lowest, sizes)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # With POOL_CLASSES lowered, these small decks start real processes.
        monkeypatch.setattr(oracle, "POOL_CLASSES", 0)
        for spec in (DeckSpec(values=7, suits=3),
                     DeckSpec(values=6, suits=3, wilds=2),
                     DeckSpec(values=4, suits=5, wilds=2)):
            one = tally_all(spec, workers=1)
            for workers in (2, 3, 4):
                assert tally_all(spec, workers=workers) == one, (spec, workers)

    @pytest.fixture
    def requested_pools(self, monkeypatch):
        """The process counts of the pools tally_all asks for; each pool
        runs its tasks in this process, on a machine of 3 CPUs."""
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        # A fixed CPU count keeps the expected pool sizes machine-independent.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        return requested

    def test_pool_is_bounded_by_cpus_and_natural_cards(self, requested_pools,
                                                       monkeypatch):
        monkeypatch.setattr(oracle, "POOL_CLASSES", 0)
        for spec, pools in ((DeckSpec(values=6, suits=3, wilds=2), [3]),
                            (DeckSpec(values=2, suits=2, wilds=3), [2]),
                            (DeckSpec(values=1, suits=1, wilds=4), [])):
            requested_pools.clear()
            one = tally_all(spec, workers=1)
            assert tally_all(spec) == one, spec
            assert requested_pools == pools, spec

    # The task of each lowest natural value v holds the classes whose lowest
    # repeated value, or with none repeated whose lowest value, is v: the
    # tasks of a pool together tally each class once, as one task does.
    @pytest.mark.parametrize("shape", PLAIN_SHAPES,
                             ids="v{0[0]}s{0[1]}w{0[2]}".format)
    def test_lowest_value_tasks_partition_the_classes(
            self, shape, requested_pools, monkeypatch):
        monkeypatch.setattr(oracle, "POOL_CLASSES", 0)
        spec = DeckSpec(*shape)
        assert tally_all(spec) == tally_all(spec, workers=1)
        assert requested_pools == ([min(spec.values, 3)]
                                   if spec.values > 1 else [])

    # The deck's class count decides: every benchmark deck stays in one
    # process, as does 20x1, whose hands are its classes, and a deck whose
    # count reaches POOL_CLASSES gets a pool.  Each id names the deck's
    # classes of (values, one suit or not); class_count, the classifier
    # calls, is C(V, n) fewer for each n >= 2 natural cards when S > 1, so
    # 18x4 takes 26,316 calls in one process and 20x4 42,484 in a pool.
    @pytest.mark.parametrize("spec, pools", [
        (DeckSpec(values=5, suits=3), []),
        (DeckSpec(values=9, suits=4), []),
        (STANDARD_DECK, []),
        (DeckSpec(values=13, suits=4, wilds=3), []),
        (DeckSpec(values=16, suits=6), []),
        (DeckSpec(values=20, suits=1), []),
        (DeckSpec(values=18, suits=4), []),
        (DeckSpec(values=20, suits=4), [3]),
    ], ids=["5x3-classes-102", "9x4-classes-1404", "standard-classes-7462",
            "13x4-w3-classes-10907", "16x6-classes-19872",
            "20x1-classes-15504", "18x4-classes-34884",
            "20x4-classes-57988"])
    def test_the_class_count_decides_the_pool(self, spec, pools,
                                              requested_pools):
        tallies = tally_all(spec)
        assert sum(tallies.values()) == binomial(spec.size, 5)
        assert requested_pools == pools
        assert (class_count(spec) >= oracle.POOL_CLASSES) == bool(pools)

    # POOL_CLASSES was measured under fork; a pool under any start method
    # must tally alike.  24x1 has 42,504 classes, so a fresh process that
    # sets the method starts a pool (two processes, to stay light) wherever
    # there are two CPUs.
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_every_start_method_tallies_alike(self, method):
        assert class_count(DeckSpec(values=24, suits=1)) >= oracle.POOL_CLASSES
        script = (
            "import multiprocessing, os, sys\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "from parlorproofs.deck import DeckSpec\n"
            "from parlorproofs.oracle import tally_all\n"
            "spec = DeckSpec(values=24, suits=1)\n"
            "pooled = tally_all(spec, workers=2)\n"
            "started = 'concurrent.futures' in sys.modules\n"
            "print(pooled == tally_all(spec, workers=1),\n"
            "      started == ((os.cpu_count() or 1) > 1))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "True True\n"), \
            done.stderr

    # The walk draws each stream of classes lazily: a stream built as a list
    # would hold up to C(V - 1, 4) hands at once (~310 KB on both decks,
    # against ~11 KB at most for the lazy walk).  tracemalloc slows the walk
    # 5-6x, so the decks are small.
    @pytest.mark.parametrize("spec", [DeckSpec(values=20, suits=2),
                                      DeckSpec(values=20, suits=4, wilds=2)],
                             ids=["20x2", "20x4-w2"])
    def test_memory_stays_flat(self, spec):
        assert tally_peak(spec) < 64 * 1024

    # With one suit no value repeats, so no stream reads the list of every
    # value but p: a 30x1 walk builds none and peaks below a 20x2 walk
    # (~5 against ~8 KB; ~13 KB when the lists are built).
    def test_memory_stays_flat_on_one_suit(self):
        peaks = {}
        for spec in DeckSpec(values=20, suits=2), DeckSpec(values=30, suits=1):
            tally_all(spec, workers=1)  # a process's first walk allocates more
            peaks[spec.suits] = tally_peak(spec)
        assert peaks[1] < peaks[2]

    def test_hundred_wilds_tally_at_once(self):
        spec = DeckSpec(values=5, suits=1, wilds=100)
        start = time.perf_counter()
        tallies = tally_all(spec)
        assert time.perf_counter() - start < 1
        # One suit of five values: every completion is the royal flush.
        assert tallies[HandCategory.ROYAL_FLUSH] == binomial(105, 5)
        assert sum(tallies.values()) == binomial(105, 5)


def tally_peak(spec: DeckSpec) -> int:
    """The tracemalloc peak, in bytes, of tally_all(spec) in one process."""
    tracemalloc.start()
    try:
        tally_all(spec, workers=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWildGoldenTallies:
    """Wild decks have no in-repo closed form; tallies from the first
    verified run are frozen in data/wild_tallies.json."""

    GOLDEN = json.loads(fixture_text("wild_tallies.json"))

    @pytest.mark.parametrize("key,spec", [
        ("v5_s2_w1_both", DeckSpec(values=5, suits=2, wilds=1)),
        ("v5_s2_w2_both", DeckSpec(values=5, suits=2, wilds=2)),
    ])
    def test_small_wild_decks(self, key, spec):
        tallies = {c.slug: n for c, n in tally_all(spec).items()}
        assert tallies == self.GOLDEN[key]

    def test_standard_deck_with_one_wild(self):
        spec = DeckSpec(values=13, suits=4, wilds=1)
        tallies = {c.slug: n for c, n in tally_all(spec).items()}
        assert tallies == self.GOLDEN["v13_s4_w1_both"]
        assert sum(tallies.values()) == 2_869_685


class TestVerifyClosedForms:
    def test_small_sweep_passes(self):
        report = verify_closed_forms(DeckSpec(values=7, suits=3))
        assert report.passed
        impossible = [r for r in report.rows if r.closed_form == 0]
        assert any(r.category is HandCategory.FOUR_OF_A_KIND for r in impossible)

    def test_ace_rule_changes_the_straight_rows(self):
        spec = DeckSpec(values=8, suits=2)
        high = DeckSpec(values=8, suits=2, ace_rule=AceRule.HIGH_ONLY)
        both_report = verify_closed_forms(spec)
        high_report = verify_closed_forms(high)
        assert both_report.passed and high_report.passed

        def row(report, cat):
            return next(r for r in report.rows if r.category is cat)

        assert row(both_report, HandCategory.STRAIGHT).oracle > \
            row(high_report, HandCategory.STRAIGHT).oracle

    def test_natural_five_of_a_kind_deck(self):
        # six suits allow 5 copies of one value without wilds
        assert verify_closed_forms(DeckSpec(values=2, suits=6)).passed

    def test_wild_deck_refused(self):
        with pytest.raises(WildCardsUnsupportedError):
            verify_closed_forms(DeckSpec(wilds=1))

    def test_deck_too_large_to_print_refused(self):
        # Its classes are few, but no count would print.
        with pytest.raises(DeckTooLargeError):
            verify_closed_forms(DeckSpec(values=13, suits=10 ** 900))

    # The walk's cost does not grow with S, so the closed forms are checked
    # at suit counts far past five: every C(S, ·) factor, and the five of a
    # kind term of four of a kind.
    @pytest.mark.parametrize("ace_rule", list(AceRule))
    @pytest.mark.parametrize("suits", [5, 8, 100, 10 ** 6])
    def test_many_suits_pass(self, suits, ace_rule):
        for values in range(1, 14):
            spec = DeckSpec(values, suits, ace_rule=ace_rule)
            assert verify_closed_forms(spec).passed, spec

    def test_csv_rows(self):
        report = verify_closed_forms(DeckSpec(values=5, suits=2))
        lines = report.render_csv().splitlines()
        assert lines[0] == "category,closed_form,oracle,status"
        assert len(lines) == 11
        assert all(line.endswith(",pass") for line in lines[1:])
