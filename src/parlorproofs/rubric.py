"""Rubric data model and scoring: point-weighted rubrics with per-criterion
multipliers, and 5-level trait rubrics.

Awards allow half points; everything is stored internally as integer
half-points so totals stay exact.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Union

from .errors import InputError, content_lines, parse_digits, quote


class RubricFormatError(InputError):
    """Rubric text is malformed or violates a declared total."""


class MarkSheetError(InputError):
    """Marks are malformed, incomplete, duplicated, or out of range."""


def _parse_half_points(token: str, context: str) -> int:
    """Parse a value with 0.5 granularity, a run of digits and dots, into
    half-points; its digits obey MAX_DIGITS."""
    whole, _, tail = token.partition(".")
    if not whole + tail or "." in tail:
        raise MarkSheetError(f"{context}: not a number: {quote(token)}")
    value = parse_digits(whole + tail, MarkSheetError, context)
    doubled, rest = divmod(2 * value, 10 ** len(tail))
    if rest:
        raise MarkSheetError(f"{context}: values are limited to 0.5 "
                             f"granularity, got {quote(token)}")
    return doubled


def _render_half_points(hp: int) -> str:
    # Integer arithmetic only: a float would round large awards.
    whole, half = divmod(abs(hp), 2)
    return f"{'-' if hp < 0 else ''}{whole}{'.5' if half else ''}"


class Criterion(NamedTuple):
    description: str
    points: int  # full points
    multiplier: int = 1

    @property
    def weighted_points(self) -> int:
        return self.points * self.multiplier


class Section(NamedTuple):
    name: str
    criteria: tuple


class PointRubric(NamedTuple):
    name: str
    maximum: int
    sections: tuple


class Trait(NamedTuple):
    name: str
    levels: tuple  # descriptions for levels 1..5


class TraitRubric(NamedTuple):
    name: str
    traits: tuple

    @property
    def maximum(self) -> int:
        return 5 * len(self.traits)


Rubric = Union[PointRubric, TraitRubric]


_POINT_HEADER_RE = re.compile(r"^rubric\s+point\s+(.+?)\s+max=([0-9]+)$")
_TRAIT_HEADER_RE = re.compile(r"^rubric\s+trait\s+(.+)$")
_SECTION_RE = re.compile(r"^section\s+(.+)$")
_CRITERION_RE = re.compile(r'^criterion\s+"([^"]+)"\s+points=([0-9]+)(?:\s+x([0-9]+))?$')
_TRAIT_RE = re.compile(r'^trait\s+"([^"]+)"$')
_LEVEL_RE = re.compile(r'^level\s+([1-5])\s+"([^"]+)"$')


def load_rubric(text: str) -> Rubric:
    """Parse rubric text into a PointRubric or TraitRubric; the point
    rubric's declared maximum is validated against the criteria."""
    lines = content_lines(text)
    first_no, first = next(lines, (None, None))
    if first is None:
        raise RubricFormatError("empty rubric text")
    m = _POINT_HEADER_RE.match(first)
    if m:
        maximum = parse_digits(m.group(2), RubricFormatError,
                               f"line {first_no}")
        return _load_point(m.group(1), maximum, lines)
    m = _TRAIT_HEADER_RE.match(first)
    if m:
        return _load_trait(m.group(1), lines)
    raise RubricFormatError(
        f"line {first_no}: expected 'rubric point <name> max=<int>' or "
        f"'rubric trait <name>'"
    )


def _groups(lines: Iterator, group_re, item_re, group: str, item: str,
            read) -> list:
    """[(line number, name, [read(line number, match), ...]), ...]: a line
    that group_re matches opens a group named by its first match group, and
    each line that item_re matches joins the open group through `read`.  An
    item before any group, or a line neither matches, is refused."""
    groups: list = []
    for lineno, line in lines:
        m = group_re.match(line)
        if m:
            groups.append((lineno, m.group(1), []))
            continue
        m = item_re.match(line)
        if not m:
            raise RubricFormatError(
                f"line {lineno}: unrecognized line {quote(line)}")
        if not groups:
            raise RubricFormatError(f"line {lineno}: {item} before any {group}")
        groups[-1][2].append(read(lineno, m))
    return groups


def _load_point(name: str, maximum: int, lines: Iterator) -> PointRubric:
    def read(lineno, m):
        context = f"line {lineno}"
        return Criterion(
            m.group(1), parse_digits(m.group(2), RubricFormatError, context),
            parse_digits(m.group(3) or "1", RubricFormatError, context))

    sections = [Section(title, tuple(criteria)) for _, title, criteria in
                _groups(lines, _SECTION_RE, _CRITERION_RE, "section",
                        "criterion", read)]
    seen = set()
    declared = 0
    for section in sections:
        for criterion in section.criteria:
            if criterion.description in seen:
                raise RubricFormatError(
                    f"duplicate criterion {quote(criterion.description)}")
            seen.add(criterion.description)
            declared += criterion.weighted_points
    if declared != maximum:
        raise RubricFormatError(
            f"criteria sum to {declared}, not the declared maximum {maximum}")
    return PointRubric(name, maximum, tuple(sections))


def _load_trait(name: str, lines: Iterator) -> TraitRubric:
    groups = _groups(lines, _TRAIT_RE, _LEVEL_RE, "trait", "level",
                     lambda lineno, m: (lineno, int(m.group(1)), m.group(2)))
    # A trait that lacks a level is named at the next trait line, or "end".
    ends = [lineno for lineno, _, _ in groups[1:]] + ["end"]
    traits: list = []
    for (_, title, found), end in zip(groups, ends):
        levels: dict = {}
        for lineno, k, description in found:
            if k in levels:
                raise RubricFormatError(f"line {lineno}: duplicate level {k}")
            levels[k] = description
        if sorted(levels) != [1, 2, 3, 4, 5]:
            raise RubricFormatError(
                f"line {end}: trait {quote(title)} must define levels 1..5")
        traits.append(Trait(title, tuple(levels[k] for k in range(1, 6))))
    if len({t.name for t in traits}) != len(traits):
        raise RubricFormatError("duplicate trait name")
    return TraitRubric(name, tuple(traits))


_AWARD_RE = re.compile(r'^award\s+"([^"]+)"\s+([0-9.]+)$')
_MARK_LEVEL_RE = re.compile(r'^level\s+"([^"]+)"\s+([1-5])$')


class MarkSheet(NamedTuple):
    """Awarded values: half-points per criterion description, or a 1..5
    level per trait name."""

    awards_hp: tuple  # ((description, half_points), ...)
    levels: tuple     # ((trait name, level), ...)


def parse_marks(text: str) -> MarkSheet:
    awards: list = []
    levels: list = []
    for lineno, line in content_lines(text):
        m = _AWARD_RE.match(line)
        if m:
            awards.append((m.group(1),
                           _parse_half_points(m.group(2), f"line {lineno}")))
            continue
        m = _MARK_LEVEL_RE.match(line)
        if m:
            levels.append((m.group(1), int(m.group(2))))
            continue
        raise MarkSheetError(f"line {lineno}: unrecognized line {quote(line)}")
    return MarkSheet(tuple(awards), tuple(levels))


class ScoreRow(NamedTuple):
    name: str
    awarded_hp: int
    maximum_hp: int


class ScoreReport(NamedTuple):
    rows: tuple  # per section (point rubric) or per trait
    total_hp: int
    maximum_hp: int

    @property
    def total(self):
        from fractions import Fraction
        return Fraction(self.total_hp, 2)

    @property
    def maximum(self):
        from fractions import Fraction
        return Fraction(self.maximum_hp, 2)

    def render_text(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(f"{row.name}: {_render_half_points(row.awarded_hp)}"
                         f"/{_render_half_points(row.maximum_hp)}")
        lines.append(f"total: {_render_half_points(self.total_hp)}"
                     f"/{_render_half_points(self.maximum_hp)}")
        return "\n".join(lines)


def score(rubric: Rubric, marks: MarkSheet) -> ScoreReport:
    """Total the marks against the rubric; marks must cover every criterion
    or trait exactly once and stay in range."""
    if isinstance(rubric, PointRubric):
        return _score_point(rubric, marks)
    return _score_trait(rubric, marks)


def _one_mark_each(names: list, marks: tuple, what: str,
                   unknown: str) -> dict:
    """{name: mark} when the sheet marks each of the rubric's `names`
    exactly once; otherwise MarkSheetError for a duplicate, a missing or
    unknown names, worded with `what` and `unknown`."""
    given: dict = {}
    for name, mark in marks:
        if name in given:
            raise MarkSheetError(f"duplicate {what} {quote(name)}")
        given[name] = mark
    for name in names:
        if name not in given:
            raise MarkSheetError(f"missing {what} {quote(name)}")
    known = set(names)
    extra = [n for n in given if n not in known]
    if extra:
        more = f" and {len(extra) - 3} more" if len(extra) > 3 else ""
        raise MarkSheetError(
            f"{unknown}: {', '.join(quote(n) for n in extra[:3])}{more}")
    return given


def _score_point(rubric: PointRubric, marks: MarkSheet) -> ScoreReport:
    if marks.levels:
        raise MarkSheetError("trait levels given for a point rubric")
    awarded = _one_mark_each(
        [c.description for s in rubric.sections for c in s.criteria],
        marks.awards_hp, "award for", "awards for unknown criteria")
    rows = []
    total = 0
    for section in rubric.sections:
        subtotal = 0
        for criterion in section.criteria:
            hp = awarded[criterion.description]
            if not 0 <= hp <= 2 * criterion.points:
                raise MarkSheetError(
                    f"award {_render_half_points(hp)} for "
                    f"{quote(criterion.description)} outside 0..{criterion.points}"
                )
            subtotal += hp * criterion.multiplier
        rows.append(ScoreRow(
            section.name, subtotal,
            2 * sum(c.weighted_points for c in section.criteria)))
        total += subtotal
    return ScoreReport(tuple(rows), total, 2 * rubric.maximum)


def _score_trait(rubric: TraitRubric, marks: MarkSheet) -> ScoreReport:
    if marks.awards_hp:
        raise MarkSheetError("point awards given for a trait rubric")
    by_trait = _one_mark_each([t.name for t in rubric.traits], marks.levels,
                              "level for trait", "levels for unknown traits")
    rows = []
    total = 0
    for trait in rubric.traits:
        level = by_trait[trait.name]
        if not 1 <= level <= 5:
            raise MarkSheetError(f"level {level} for {quote(trait.name)} outside 1..5")
        rows.append(ScoreRow(trait.name, 2 * level, 10))
        total += 2 * level
    return ScoreReport(tuple(rows), total, 2 * rubric.maximum)
