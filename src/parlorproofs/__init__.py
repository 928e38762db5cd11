"""Exact poker-hand combinatorics over generalized decks, Eulerian trail
analysis with Claim-Proof impossibility documents, and rubric scoring."""

from .deck import (AceRule, Card, CardParseError, DeckSpec, Hand,
                   InvalidDeckError, STANDARD_DECK, Wild, binomial,
                   parse_card, parse_hand)
from .errors import InputError
from .graphs import (DegenerateGraphError, Edge, EulerianStatus,
                     GraphFormatError, Multigraph, Trail, degree_map,
                     eulerian_status, find_trail, impossibility_proof,
                     odd_vertices, parse_graph)
from .hands import (HandCategory, Probability, WildCardsUnsupportedError,
                    WinnerReport, classify, classify_with_wilds,
                    combinatorial_proof, count_category, determine_winner,
                    probability)
from .oracle import (EnumerationCapError, VerificationReport, tally_all,
                     verify_closed_forms)
from .proofdoc import ProofDocument, ProofStep, StepKind
from .rubric import (MarkSheet, MarkSheetError, PointRubric, RubricFormatError,
                     ScoreReport, TraitRubric, load_rubric, parse_marks, score)

__version__ = "0.1.0"
