"""Exact poker-hand combinatorics over generalized decks, Eulerian trail
analysis with Claim-Proof impossibility documents, and rubric scoring.

Each export loads its module on first use (PEP 562), so that a CLI command
loads only the modules it runs; the module's current attribute is returned,
never a copy cached in the package."""

import importlib

_HOME = {name: module for module, names in {  # the module of each export
    "deck": "AceRule Card CardParseError DeckSpec Hand InvalidDeckError "
            "STANDARD_DECK Wild binomial parse_card parse_hand",
    "errors": "InputError",
    "graphs": "DegenerateGraphError Edge EulerianStatus GraphFormatError "
              "Multigraph Trail degree_map eulerian_status find_trail "
              "impossibility_proof odd_vertices parse_graph",
    "hands": "HandCategory Probability WildCardsUnsupportedError WinnerReport "
             "classify classify_with_wilds combinatorial_proof count_category "
             "determine_winner probability",
    "oracle": "EnumerationCapError VerificationReport tally_all "
              "verify_closed_forms",
    "proofdoc": "ProofDocument ProofStep StepKind",
    "rubric": "MarkSheet MarkSheetError PointRubric RubricFormatError "
              "ScoreReport TraitRubric load_rubric parse_marks score",
}.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME))
