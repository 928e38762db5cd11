from fractions import Fraction

import pytest

from parlorproofs.errors import MAX_DIGITS, QUOTE_LIMIT
from parlorproofs.rubric import (MarkSheet, MarkSheetError, PointRubric,
                                 RubricFormatError, TraitRubric, load_rubric,
                                 parse_marks, score)

from fixtures import fixture_text, poker_rubric, writing_rubric


def full_marks(rubric):
    """Every criterion awarded its points, or every trait at level 5."""
    if isinstance(rubric, TraitRubric):
        return MarkSheet((), tuple((t.name, 5) for t in rubric.traits))
    return MarkSheet(tuple((c.description, 2 * c.points)
                           for s in rubric.sections for c in s.criteria), ())


def zero_marks(rubric):
    """Every criterion of a point rubric awarded 0."""
    return MarkSheet(tuple((d, 0) for d, _ in full_marks(rubric).awards_hp), ())


class TestPokerRubricFixture:
    def test_loads_with_maximum_100(self):
        rubric = poker_rubric()
        assert isinstance(rubric, PointRubric)
        assert rubric.maximum == 100

    def test_section_shapes(self):
        rubric = poker_rubric()
        by_name = {s.name: [c.points for c in s.criteria] for s in rubric.sections}
        assert by_name["Abstract"] == [5, 4, 1]
        assert by_name["Introduction"] == [10, 10, 10]
        assert by_name["Main Results"] == [2, 3, 4, 1]
        assert by_name["Conclusion"] == [4, 4, 2]

    def test_main_results_multiplier(self):
        rubric = poker_rubric()
        main = next(s for s in rubric.sections if s.name == "Main Results")
        assert all(c.multiplier == 5 for c in main.criteria)
        other = [c for s in rubric.sections for c in s.criteria
                 if s.name != "Main Results"]
        assert all(c.multiplier == 1 for c in other)


class TestWritingRubricFixture:
    def test_three_traits(self):
        rubric = writing_rubric()
        assert isinstance(rubric, TraitRubric)
        assert [t.name for t in rubric.traits] == [
            "Assignment Requirements", "Reasoning (proof)", "Quality of Details"]

    def test_maximum(self):
        assert writing_rubric().maximum == 15


class TestLoadRubric:
    def test_sum_mismatch_rejected(self):
        text = fixture_text("poker_rubric.rubric").replace("max=100", "max=99")
        with pytest.raises(RubricFormatError, match="100"):
            load_rubric(text)

    def test_unknown_line_rejected(self):
        with pytest.raises(RubricFormatError, match="line 2"):
            load_rubric("rubric point X max=1\nbogus line\n")

    def test_trait_needs_all_five_levels(self):
        with pytest.raises(RubricFormatError):
            load_rubric('rubric trait X\ntrait "T"\nlevel 1 "a"\nlevel 2 "b"\n')

    def test_duplicate_criterion_rejected(self):
        text = ('rubric point X max=4\nsection S\n'
                'criterion "same" points=2\ncriterion "same" points=2\n')
        with pytest.raises(RubricFormatError, match="duplicate"):
            load_rubric(text)

    # Both kinds read their lines with one rule: errors that a single line
    # shows come in line order, then errors of a group (a trait's levels)
    # and of the whole rubric.
    @pytest.mark.parametrize("text, message", [
        ('rubric point R max=1\ncriterion "c" points=1\n',
         "line 2: criterion before any section"),
        ('rubric trait R\nlevel 1 "a"\n', "line 2: level before any trait"),
        ('rubric point R max=1\nsection S\n\nsection T\nbogus\n',
         "line 5: unrecognized line 'bogus'"),
        ('rubric trait R\ntrait "t"\n\nbogus\n',
         "line 4: unrecognized line 'bogus'"),
        ('rubric trait R\ntrait "t"\nlevel 1 "a"\ntrait "u"\nbogus\n',
         "line 5: unrecognized line 'bogus'"),
        ('rubric trait R\ntrait "t"\nlevel 1 "a"\nlevel 1 "b"\n'
         'trait "u"\n', "line 4: duplicate level 1"),
        ('rubric trait R\ntrait "t"\nlevel 1 "a"\ntrait "u"\n',
         "line 4: trait 't' must define levels 1..5"),
        ('rubric trait R\ntrait "t"\nlevel 1 "a"\n',
         "line end: trait 't' must define levels 1..5"),
        ('rubric trait R\n' + 2 * ('trait "t"\n' + "".join(
            f'level {k} "d"\n' for k in range(1, 6))),
         "duplicate trait name"),
        # Numbers are ASCII digits, as on a card or a mark sheet, so that a
        # rubric declares no points its mark sheet cannot award.
        ("rubric point R max=\u0663\n", "line 1: expected 'rubric point "
         "<name> max=<int>' or 'rubric trait <name>'"),
        ('rubric point R max=3\nsection S\ncriterion "c" points=\uff13\n',
         "line 3: unrecognized line 'criterion \"c\" points=\uff13'"),
        ('rubric point R max=3\nsection S\ncriterion "c" points=1 x\uff13\n',
         "line 3: unrecognized line 'criterion \"c\" points=1 x\uff13'"),
    ], ids=["point-before-any", "trait-before-any", "point-unrecognized",
            "trait-unrecognized", "line-error-before-level-error",
            "trait-duplicate-level", "trait-missing-level", "trait-at-end",
            "trait-duplicate-name", "max-non-ascii-digit",
            "points-non-ascii-digit", "multiplier-non-ascii-digit"])
    def test_error_order_of_both_kinds(self, text, message):
        with pytest.raises(RubricFormatError) as caught:
            load_rubric(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text", [
        "rubric point R max=" + "1" * 5000,
        'rubric point R max=1\nsection S\ncriterion "c" points=' + "1" * 5000,
        'rubric point R max=1\nsection S\ncriterion "c" points=1 x'
        + "1" * 5000,
        "rubric point R max=" + "0" * MAX_DIGITS + "1",
    ], ids=["max", "points", "multiplier", "padded"])
    def test_overlong_numbers_rejected(self, text):
        with pytest.raises(RubricFormatError, match="digits exceeds the limit"):
            load_rubric(text)


class TestScorePointRubric:
    def test_full_marks_score_100(self):
        rubric = poker_rubric()
        assert score(rubric, full_marks(rubric)).total == 100

    def test_zero_marks_score_0(self):
        rubric = poker_rubric()
        assert score(rubric, zero_marks(rubric)).total == 0

    def test_multiplier_costs_five_per_point(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks["Accurately find probability"] = 2 * 2  # 2 of 3 points
        report = score(rubric, MarkSheet(tuple(marks.items()), ()))
        assert report.total == 95

    def test_half_points(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks["Summarize results"] = 7  # 3.5 of 4
        assert score(rubric, MarkSheet(tuple(marks.items()), ())).total == 99.5

    def test_section_subtotals(self):
        rubric = poker_rubric()
        report = score(rubric, full_marks(rubric))
        assert [(r.name, r.awarded_hp // 2) for r in report.rows] == [
            ("Abstract", 10), ("Introduction", 30), ("Main Results", 50),
            ("Conclusion", 10)]

    def test_monotone_in_every_mark(self):
        rubric = poker_rubric()
        base = dict(full_marks(rubric).awards_hp)
        full_total = score(rubric, MarkSheet(tuple(base.items()), ())).total_hp
        for description in base:
            lowered = dict(base)
            lowered[description] -= 1
            report = score(rubric, MarkSheet(tuple(lowered.items()), ()))
            assert report.total_hp < full_total

    def test_missing_award_rejected(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks.pop("Restate the problem")
        with pytest.raises(MarkSheetError, match="missing"):
            score(rubric, MarkSheet(tuple(marks.items()), ()))

    def test_unknown_award_rejected(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks["Imaginary criterion"] = 2
        with pytest.raises(MarkSheetError, match="unknown"):
            score(rubric, MarkSheet(tuple(marks.items()), ()))

    def test_out_of_range_award_rejected(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks["Restate the problem"] = 12  # 6 of 5 points
        with pytest.raises(MarkSheetError, match="outside"):
            score(rubric, MarkSheet(tuple(marks.items()), ()))

    def test_negative_award_is_rendered_with_its_sign(self):
        rubric = poker_rubric()
        marks = dict(full_marks(rubric).awards_hp)
        marks["Restate the problem"] = -1
        with pytest.raises(MarkSheetError, match=r"award -0\.5 for"):
            score(rubric, MarkSheet(tuple(marks.items()), ()))

    def test_large_half_point_totals_are_exact(self):
        # 2 * 10**20 - 1 half-points has no float; the nearest is 10**20.
        big = 10 ** 20
        rubric = load_rubric(f"rubric point Big max={big}\nsection S\n"
                             f'criterion "c" points={big}\n')
        report = score(rubric, parse_marks(f'award "c" {big - 1}.5\n'))
        assert report.total == Fraction(2 * big - 1, 2)
        assert report.maximum == big
        assert report.render_text().splitlines() == [
            f"S: {big - 1}.5/{big}", f"total: {big - 1}.5/{big}"]


class TestScoreTraitRubric:
    def test_total_is_sum_of_levels(self):
        rubric = writing_rubric()
        marks = MarkSheet((), (("Assignment Requirements", 4),
                               ("Reasoning (proof)", 5),
                               ("Quality of Details", 3)))
        report = score(rubric, marks)
        assert report.total == 12
        assert report.maximum == 15

    def test_full_marks(self):
        rubric = writing_rubric()
        assert score(rubric, full_marks(rubric)).total == 15

    def test_duplicate_level_rejected(self):
        rubric = writing_rubric()
        marks = MarkSheet((), (("Assignment Requirements", 4),
                               ("Assignment Requirements", 5)))
        with pytest.raises(MarkSheetError, match="duplicate"):
            score(rubric, marks)


def _edited(pairs, drop=(), add=()):
    return tuple(p for p in pairs if p[0] not in drop) + tuple(add)


@pytest.mark.parametrize("trait, drop, add, message", [
    (False, (), [("Restate the problem", 2)],
     "duplicate award for 'Restate the problem'"),
    (False, ["Restate the problem"], (),
     "missing award for 'Restate the problem'"),
    (False, (), [("Imaginary", 2), ("Other", 1)],
     "awards for unknown criteria: 'Imaginary', 'Other'"),
    (True, (), [("Reasoning (proof)", 3)],
     "duplicate level for trait 'Reasoning (proof)'"),
    (True, ["Reasoning (proof)"], (),
     "missing level for trait 'Reasoning (proof)'"),
    (True, (), [("Style", 3), ("Tone", 2)],
     "levels for unknown traits: 'Style', 'Tone'"),
    (True, (), [("Style", 3), ("Tone", 2), ("Voice", 1), ("Wit", 4)],
     "levels for unknown traits: 'Style', 'Tone', 'Voice' and 1 more"),
    # A missing name is reported before an earlier item's range error.
    (True, ["Assignment Requirements", "Quality of Details"],
     [("Assignment Requirements", 7)],
     "missing level for trait 'Quality of Details'"),
    # parse_marks admits only levels 1..5; a hand-built sheet may not.
    (True, ["Reasoning (proof)"], [("Reasoning (proof)", 0)],
     "level 0 for 'Reasoning (proof)' outside 1..5"),
], ids=["point-duplicate", "point-missing", "point-unknown",
        "trait-duplicate", "trait-missing", "trait-unknown",
        "trait-unknown-many", "trait-order", "trait-level-range"])
def test_each_item_is_marked_exactly_once(trait, drop, add, message):
    rubric = writing_rubric() if trait else poker_rubric()
    full = full_marks(rubric)
    marks = (MarkSheet((), _edited(full.levels, drop, add)) if trait
             else MarkSheet(_edited(full.awards_hp, drop, add), ()))
    with pytest.raises(MarkSheetError) as caught:
        score(rubric, marks)
    assert str(caught.value) == message


@pytest.mark.parametrize("trait, message", [
    (False, "trait levels given for a point rubric"),
    (True, "point awards given for a trait rubric"),
], ids=["point", "trait"])
def test_marks_of_the_other_kind_are_refused(trait, message):
    rubric, other = ((writing_rubric(), poker_rubric()) if trait
                     else (poker_rubric(), writing_rubric()))
    with pytest.raises(MarkSheetError) as caught:
        score(rubric, full_marks(other))
    assert str(caught.value) == message


def test_unknown_names_are_listed_briefly():
    rubric = writing_rubric()
    sheet = parse_marks("".join(
        f'level "{t.name}" 3\n' for t in rubric.traits) + "".join(
        f'level "unknown trait {i}" 3\n' for i in range(3000)))
    with pytest.raises(MarkSheetError) as caught:
        score(rubric, sheet)
    message = str(caught.value)
    assert message.endswith("'unknown trait 2' and 2997 more")
    assert len(message.encode()) < 300


class TestParseMarks:
    def test_award_and_level_lines(self):
        sheet = parse_marks('award "Restate the problem" 4.5\n'
                            'level "Reasoning (proof)" 3\n')
        assert sheet.awards_hp == (("Restate the problem", 9),)
        assert sheet.levels == (("Reasoning (proof)", 3),)

    def test_quarter_points_rejected(self):
        with pytest.raises(MarkSheetError, match="0.5"):
            parse_marks('award "x" 1.25\n')

    def test_rejected_fraction_is_quoted_briefly(self):
        with pytest.raises(MarkSheetError, match=r"granularity, got '0\.25'$"):
            parse_marks('award "x" 0.25\n')
        token = "0." + "0" * 990 + "1"
        with pytest.raises(MarkSheetError) as caught:
            parse_marks(f'award "x" {token}\n')
        message = str(caught.value)
        assert message.endswith(
            f"got {token[:QUOTE_LIMIT]!r}... "
            f"({len(token) - QUOTE_LIMIT} more characters)")
        assert len(message) < 160

    def test_unrecognized_line(self):
        with pytest.raises(MarkSheetError, match="line 1"):
            parse_marks("score everything 100\n")

    def test_large_awards_are_exact(self):
        # 2**53 + 1 has no float; parsing through float loses the last unit.
        sheet = parse_marks('award "x" 9007199254740993\n')
        assert sheet.awards_hp == (("x", 18014398509481986),)
        sheet = parse_marks('award "x" 9007199254740993.5\n')
        assert sheet.awards_hp == (("x", 18014398509481987),)

    @pytest.mark.parametrize("token", [
        "0" * MAX_DIGITS + "1", "1" * 4300, "1" * 600 + "." + "5" * 401,
    ], ids=["padded", "past-int-limit", "fraction"])
    def test_overlong_awards_rejected(self, token):
        with pytest.raises(MarkSheetError, match="digits exceeds the limit"):
            parse_marks(f'award "x" {token}\n')

    def test_awards_up_to_the_digit_limit_parse(self):
        sheet = parse_marks(f'award "x" {"0" * (MAX_DIGITS - 2)}7.5\n')
        assert sheet.awards_hp == (("x", 15),)

    @pytest.mark.parametrize("token", [".", "1.2.3"])
    def test_malformed_numbers_rejected(self, token):
        with pytest.raises(MarkSheetError, match="not a number"):
            parse_marks(f'award "x" {token}\n')
