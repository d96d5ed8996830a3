"""Training-time reward stack.

The planner's reward scores a predicted skill sequence against a reference
("teacher") sequence with a position-discounted ranking gain, normalized by
the reference's own gain.  The responder's reward is a weighted sum of judge
dimension scores.  A turn-indexed schedule mixes the two into the joint
per-turn reward, shifting emphasis from response quality early in an episode
to strategic planning later, while keeping the responder weight strictly
positive.

All functions here are pure and operate on plain skill-id sequences;
callers holding a :class:`~gopo.core.SkillSequence` pass its ``.skills``
tuple.  The environment applies the stack: ``DialogueEnv.step`` scores each
turn with it and returns the turn's ``RewardBreakdown``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import MAX_SKILL_SEQUENCE_LEN

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RewardConfig:
    """Weights and schedule parameters of the reward stack; no field has a default.

    ``dim_weights`` mix the four judge scores into the responder reward.
    ``w_expert_min``/``w_expert_max`` bound the planner weight's linear ramp
    over the episode; ``w_csa_floor`` keeps the responder weight strictly
    positive at every turn.
    """

    dim_weights: tuple[float, float, float, float]
    w_expert_min: float
    w_expert_max: float
    w_csa_floor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_weights", tuple(self.dim_weights))
        if len(self.dim_weights) != 4:
            raise ValueError("dim_weights must have exactly 4 entries")
        if any(w < 0 for w in self.dim_weights):
            raise ValueError("dim_weights must be non-negative")
        if abs(sum(self.dim_weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"dim_weights must sum to 1, got {sum(self.dim_weights)!r}"
            )
        if not 0.0 < self.w_expert_min <= self.w_expert_max < 1.0:
            raise ValueError(
                "require 0 < w_expert_min <= w_expert_max < 1, got "
                f"({self.w_expert_min}, {self.w_expert_max})"
            )
        if self.w_csa_floor <= 0:
            raise ValueError("w_csa_floor must be positive")


def _check_len(seq: Sequence[int], name: str) -> None:
    if len(seq) > MAX_SKILL_SEQUENCE_LEN:
        raise ValueError(
            f"{name} length {len(seq)} exceeds cap {MAX_SKILL_SEQUENCE_LEN}"
        )


def relevance(skill_id: int, teacher: Sequence[int]) -> int:
    """Graded relevance of a skill against the teacher sequence.

    A skill at 1-based position ``i`` of an ``n``-long teacher scores
    ``n - i + 1`` (first occurrence counts); skills absent from the teacher
    score 0.
    """
    _check_len(teacher, "teacher")
    n = len(teacher)
    for i, t in enumerate(teacher):
        if t == skill_id:
            return n - (i + 1) + 1
    return 0


def dcg(pred: Sequence[int], teacher: Sequence[int]) -> float:
    """Position-discounted cumulative gain of a predicted skill sequence.

    Term ``i`` (1-based) contributes ``(2**rel - 1) / log2(i + 1)``.  A
    repeat of an already-seen predicted skill contributes relevance 0, which
    closes the repetition loophole of the literal formula.
    """
    _check_len(pred, "pred")
    _check_len(teacher, "teacher")
    total = 0.0
    seen: set[int] = set()
    for i, p in enumerate(pred):
        rel = 0 if p in seen else relevance(p, teacher)
        seen.add(p)
        total += (2.0 ** rel - 1.0) / math.log2(i + 2)
    return total


def idcg(teacher: Sequence[int]) -> float:
    """The teacher sequence's own discounted gain: the attainable maximum for
    distinct-skill teachers."""
    return dcg(teacher, teacher)


def esndcg(pred: Sequence[int], teacher: Sequence[int]) -> float:
    """Normalized skill-sequence gain, the planner's per-turn reward.

    Equals ``dcg(pred) / idcg(teacher)``; 1.0 exactly when the prediction
    reproduces the teacher in order.  The teacher is a scenario entry of 1
    to 5 distinct skills, so its ``idcg`` is at least 1, its first term
    being ``2**n - 1``.
    """
    return dcg(pred, teacher) / idcg(teacher)


def csa_reward(dim_scores: Sequence[float], cfg: RewardConfig) -> float:
    """Responder reward: the configured convex combination of the four judge
    dimension scores, each required to lie in [0, 1]."""
    if len(dim_scores) != 4:
        raise ValueError("expected exactly 4 dimension scores")
    for s in dim_scores:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"dimension score out of [0,1]: {s}")
    a = cfg.dim_weights
    return a[0] * dim_scores[0] + a[1] * dim_scores[1] + a[2] * dim_scores[2] + a[3] * dim_scores[3]


def joint_weights(turn: int, horizon: int, cfg: RewardConfig) -> tuple[float, float]:
    """Mixing weights for turn ``turn`` of ``horizon`` (both 1-based).

    The planner weight ramps linearly from ``w_expert_min`` at the first turn
    to ``w_expert_max`` at the last; the responder weight is its complement,
    floored at ``w_csa_floor`` so it stays strictly positive.
    """
    if turn < 1 or horizon < 1:
        raise ValueError("turn and horizon must be positive")
    if turn > horizon:
        raise ValueError(f"turn {turn} exceeds horizon {horizon}")
    if horizon == 1:
        w_e = cfg.w_expert_min
    else:
        w_e = cfg.w_expert_min + (cfg.w_expert_max - cfg.w_expert_min) * (
            (turn - 1) / (horizon - 1)
        )
    w_a = max(1.0 - w_e, cfg.w_csa_floor)
    return (w_e, w_a)


def joint_reward(r_expert: float, r_csa: float, weights: tuple[float, float]) -> float:
    """Joint per-turn reward: the weighted sum of the two agent rewards."""
    if not (math.isfinite(r_expert) and math.isfinite(r_csa)):
        raise ValueError("rewards must be finite")
    return weights[0] * r_expert + weights[1] * r_csa
