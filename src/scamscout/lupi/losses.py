"""The three-term distillation objective.

total = w_gt * MAE(student score, label)
      + w_pm * MAE(student score, teacher score)
      + w_hm * MSE(student hint, teacher fused representation)

Gradients flow to the student's outputs only; the teacher side enters as
constants.  ``total_loss`` returns both the scalar terms and the gradients
w.r.t. (score, hint) ready to feed StudentModel.backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError


@dataclass(frozen=True)
class LossWeights:
    gt: float = 1.0
    pm: float = 0.5
    hm: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(w) for w in self.as_tuple()):
            raise TrainingError(f"loss weights must be finite, got {self.as_tuple()}")
        if min(self.as_tuple()) < 0:
            raise TrainingError("loss weights must be >= 0")
        if self.gt == self.pm == self.hm == 0.0:
            raise TrainingError("at least one loss weight must be positive")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gt, self.pm, self.hm)

    @classmethod
    def from_spec(cls, spec: str) -> "LossWeights":
        try:
            parts = [float(p) for p in spec.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise TrainingError(f"weights spec must be three comma-separated "
                                f"numbers, got {spec!r}")
        return cls(*parts)


def total_loss(
    labels: np.ndarray,
    student_score: np.ndarray,
    student_hint: np.ndarray,
    teacher_score: np.ndarray | None,
    teacher_fused: np.ndarray | None,
    weights: LossWeights,
):
    """Returns (total, per-term dict, (d_score, d_hint)).

    Zero-weighted terms are skipped entirely, so a (1,0,0) run performs
    exactly the same arithmetic as plain label regression.
    """
    b = labels.shape[0]
    terms = {"gt": 0.0, "pm": 0.0, "hm": 0.0}
    d_score = np.zeros_like(student_score)
    d_hint = np.zeros_like(student_hint)

    if weights.gt != 0.0:
        diff = student_score - labels
        terms["gt"] = float(np.mean(np.abs(diff)))
        d_score += weights.gt * np.sign(diff) / b

    if weights.pm != 0.0:
        if teacher_score is None:
            raise TrainingError("pm term requires teacher scores")
        diff = student_score - teacher_score
        terms["pm"] = float(np.mean(np.abs(diff)))
        d_score += weights.pm * np.sign(diff) / b

    if weights.hm != 0.0:
        if teacher_fused is None:
            raise TrainingError("hm term requires the teacher's fused vectors")
        diff = student_hint - teacher_fused
        terms["hm"] = float(np.mean(diff ** 2))
        d_hint += weights.hm * 2.0 * diff / diff.size

    total = (weights.gt * terms["gt"] + weights.pm * terms["pm"]
             + weights.hm * terms["hm"])
    return total, terms, (d_score, d_hint)
