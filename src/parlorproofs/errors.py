"""The one declared error for rejected input."""


class InputError(ValueError):
    """Input was rejected: a deck, card, category, graph, rubric or mark
    sheet that the library cannot answer for (the CLI exits 2)."""
