"""Loaders for the data files that ship with the package: the bridge map, a
representative floor plan, and the two grading rubrics."""

from __future__ import annotations

from importlib import resources

from parlorproofs.graphs import Multigraph, parse_graph
from parlorproofs.rubric import PointRubric, TraitRubric, load_rubric


def fixture_text(name: str) -> str:
    return (resources.files("parlorproofs") / "data" / name).read_text(encoding="utf-8")


def konigsberg_graph() -> Multigraph:
    """The historical seven-bridge layout (degrees 5, 3, 3, 3)."""
    return parse_graph(fixture_text("konigsberg.graph"))


def cat_and_mouse_graph() -> Multigraph:
    """A representative floor plan with more than two odd-degree rooms."""
    return parse_graph(fixture_text("cat_and_mouse.graph"))


def poker_rubric() -> PointRubric:
    rubric = load_rubric(fixture_text("poker_rubric.rubric"))
    assert isinstance(rubric, PointRubric)
    return rubric


def writing_rubric() -> TraitRubric:
    rubric = load_rubric(fixture_text("writing_rubric.rubric"))
    assert isinstance(rubric, TraitRubric)
    return rubric
