"""Claim-Proof documents: an ordered list of typed steps renderable as text."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class StepKind(Enum):
    CLAIM = "claim"
    MODEL = "model"
    COUNT = "count"
    LEMMA = "lemma"
    OBSERVATION = "observation"
    COMPUTATION = "computation"
    CONTRADICTION = "contradiction"
    CONCLUSION = "conclusion"
    QED = "qed"


class ProofStep(NamedTuple):
    kind: StepKind
    text: str


class ProofDocument(NamedTuple):
    title: str
    steps: tuple  # of ProofStep

    def step_texts(self) -> tuple:
        return tuple(step.text for step in self.steps)

    def render_text(self) -> str:
        lines = [self.title, "=" * len(self.title), ""]
        for step in self.steps:
            if step.kind is StepKind.CLAIM:
                lines.append(f"Claim. {step.text}")
                lines.append("")
                lines.append("Proof.")
            elif step.kind is StepKind.QED:
                lines.append(step.text)
            else:
                lines.append(f"  {step.text}")
        return "\n".join(lines) + "\n"
