"""Shared domain types for the dialogue lab.

These immutable value objects are the vocabulary every other module speaks:
skills and skill sequences (the planner's macro-actions), the two observation
tuples seen by the planner and the responder, token-level responses with
marker annotations, per-turn reward breakdowns, and full episode trajectories.

Episodes are persisted as JSONL, one episode per line.  The record schema is
normative (field names and order are part of the wire format):

    {episode_id, seed,
     turns: [{turn, intent, emotion, skills, response_tokens,
              r_expert, r_csa, dim_scores, w_expert, w_csa, joint}],
     milestones: {completed, turns},
     terminal_reason}

A turn's ``skills`` are the responder's constraint (``[]`` for the null
constraint of the no-planner ablation).  The wire format carries the scored
trace of an episode, not the full internal observations; decoding a line
rebuilds a trajectory whose states carry the recorded intent/emotion/phase/
turn and constraint but empty history and utterances.
Re-encoding a decoded line reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

MAX_SKILL_SEQUENCE_LEN = 5
NUM_MILESTONES = 3


@dataclass(frozen=True)
class Skill:
    """A strategy primitive from the skill pool.

    ``required_markers`` are the marker ids a compliant response must carry
    when this skill is part of the active constraint.
    """

    id: int
    name: str
    required_markers: frozenset[int]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"skill id must be non-negative, got {self.id}")
        if not self.required_markers:
            raise ValueError(f"skill {self.name!r} has no required markers")
        object.__setattr__(self, "required_markers", frozenset(self.required_markers))


@dataclass(frozen=True)
class SkillSequence:
    """An ordered macro-action of skill ids, between 1 and 5 skills long."""

    skills: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "skills", tuple(self.skills))
        if not 1 <= len(self.skills) <= MAX_SKILL_SEQUENCE_LEN:
            raise ValueError(
                f"skill sequence length must be in [1, {MAX_SKILL_SEQUENCE_LEN}], "
                f"got {len(self.skills)}"
            )
        if any(s < 0 for s in self.skills):
            raise ValueError("skill ids must be non-negative")

    def __len__(self) -> int:
        return len(self.skills)

    def __iter__(self) -> Iterator[int]:
        return iter(self.skills)

    def __contains__(self, skill_id: int) -> bool:
        return skill_id in self.skills


@dataclass(frozen=True)
class ExpertState:
    """Observation of the strategy planner.

    ``history`` holds the marker sets of the last ``history_window``
    responses, oldest first.  ``phase`` (1-based task phase) and ``turn``
    (1-based turn index) locate the state in the episode; the scenario
    lookup and the feature encoding both need them.
    """

    history: tuple[frozenset[int], ...]
    intent: str
    emotion: str
    prev_skills: SkillSequence | None
    phase: int
    turn: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "history", tuple(self.history))
        if self.phase < 1:
            raise ValueError(f"phase must be >= 1, got {self.phase}")
        if self.turn < 1:
            raise ValueError(f"turn must be >= 1, got {self.turn}")


@dataclass(frozen=True)
class BusinessContext:
    """Per-episode business facts the responder conditions on."""

    order_status: int  # 0 none, 1 pending, 2 shipped
    stock_level: int  # 0 out, 1 low, 2 high

    def __post_init__(self) -> None:
        if not 0 <= self.order_status <= 2:
            raise ValueError(f"order_status out of range: {self.order_status}")
        if not 0 <= self.stock_level <= 2:
            raise ValueError(f"stock_level out of range: {self.stock_level}")


@dataclass(frozen=True)
class CsaState:
    """Observation of the responder: user utterance, active skill constraint
    (None in the no-planner ablation), and business context."""

    utterance: tuple[int, ...]
    constraint: SkillSequence | None
    business_ctx: BusinessContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "utterance", tuple(self.utterance))


@dataclass(frozen=True)
class Response:
    """A generated reply: token ids plus the marker ids those tokens carry.

    Markers are derived from the environment's token-to-marker map (see
    :func:`response_markers`); they are not part of the wire format.
    """

    tokens: tuple[int, ...]
    markers: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "markers", frozenset(self.markers))
        if len(self.tokens) < 1:
            raise ValueError("response must contain at least one token")
        if any(t < 0 for t in self.tokens):
            raise ValueError("token ids must be non-negative")


def response_markers(
    tokens: Sequence[int], token_markers: Sequence[frozenset[int]]
) -> frozenset[int]:
    """Union of marker ids carried by ``tokens`` under a token-to-marker map."""
    out: set[int] = set()
    for t in tokens:
        out |= token_markers[t]
    return frozenset(out)


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-turn reward record: planner reward, responder reward, the four
    judge dimension scores, the turn's mixing weights, and the joint reward."""

    r_expert: float
    r_csa: float
    dim_scores: tuple[float, float, float, float]
    w_expert: float
    w_csa: float
    joint: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_scores", tuple(self.dim_scores))
        if len(self.dim_scores) != 4:
            raise ValueError("dim_scores must have exactly 4 entries")
        if self.w_csa <= 0 or self.w_expert <= 0:
            raise ValueError("reward weights must be positive")


@dataclass(frozen=True)
class MilestoneRecord:
    """Completion flags and completion turns for the three ordered sub-tasks
    (requirement matching, information delivery, proactive guidance).

    Cross-field consistency (turn defined iff completed, turns strictly
    increasing) is not checked here, so that malformed records read from
    disk can still be inspected; the environment only builds consistent
    records.
    """

    completed: tuple[bool, bool, bool] = (False, False, False)
    turns: tuple[int | None, int | None, int | None] = (None, None, None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "completed", tuple(self.completed))
        object.__setattr__(self, "turns", tuple(self.turns))
        if len(self.completed) != NUM_MILESTONES or len(self.turns) != NUM_MILESTONES:
            raise ValueError(f"expected {NUM_MILESTONES} milestone entries")


MILESTONE_NAMES = ("requirement_matching", "information_delivery", "proactive_guidance")


@dataclass(frozen=True)
class TurnRecord:
    """One scored turn: what the planner saw, what the responder saw and
    said, and how the turn was rewarded.  The planner's choice is the
    responder's constraint, ``csa_state.constraint``."""

    expert_state: ExpertState
    csa_state: CsaState
    response: Response
    reward: RewardBreakdown


@dataclass(frozen=True)
class Trajectory:
    """A complete episode: the unit of persistence and metric computation."""

    episode_id: int
    turns: tuple[TurnRecord, ...]
    milestones: MilestoneRecord
    seed: int
    terminal_reason: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))

    def __len__(self) -> int:
        return len(self.turns)


# --- JSONL wire format -----------------------------------------------------

def trajectory_to_dict(traj: Trajectory) -> dict:
    """Project a trajectory onto the normative JSONL record shape."""
    return {
        "episode_id": traj.episode_id,
        "seed": traj.seed,
        "turns": [
            {
                "turn": i + 1,
                "intent": t.expert_state.intent,
                "emotion": t.expert_state.emotion,
                "skills": list(t.csa_state.constraint or ()),
                "response_tokens": list(t.response.tokens),
                "r_expert": t.reward.r_expert,
                "r_csa": t.reward.r_csa,
                "dim_scores": list(t.reward.dim_scores),
                "w_expert": t.reward.w_expert,
                "w_csa": t.reward.w_csa,
                "joint": t.reward.joint,
            }
            for i, t in enumerate(traj.turns)
        ],
        "milestones": {
            "completed": list(traj.milestones.completed),
            "turns": list(traj.milestones.turns),
        },
        "terminal_reason": traj.terminal_reason,
    }


def trajectory_from_dict(record: dict) -> Trajectory:
    """Rebuild a trajectory from a JSONL record.

    States are reconstructed with the recorded intent/emotion/phase/turn and
    empty history/utterance; response markers are left empty (derive them via
    :func:`response_markers` when the token-to-marker map is at hand).
    """
    milestones = MilestoneRecord(
        completed=tuple(bool(c) for c in record["milestones"]["completed"]),
        turns=tuple(record["milestones"]["turns"]),
    )
    turns: list[TurnRecord] = []
    prev_skills: SkillSequence | None = None
    for entry in record["turns"]:
        turn_no = entry["turn"]
        phase = 1 + sum(
            1
            for i in range(NUM_MILESTONES)
            if milestones.completed[i] and milestones.turns[i] < turn_no
        )
        phase = min(phase, NUM_MILESTONES)
        skills = (
            SkillSequence(tuple(entry["skills"])) if entry["skills"] else None
        )
        expert_state = ExpertState(
            history=(),
            intent=entry["intent"],
            emotion=entry["emotion"],
            prev_skills=prev_skills,
            phase=phase,
            turn=turn_no,
        )
        csa_state = CsaState(
            utterance=(),
            constraint=skills,
            business_ctx=BusinessContext(order_status=0, stock_level=0),
        )
        response = Response(
            tokens=tuple(entry["response_tokens"]), markers=frozenset()
        )
        reward = RewardBreakdown(
            r_expert=entry["r_expert"],
            r_csa=entry["r_csa"],
            dim_scores=tuple(entry["dim_scores"]),
            w_expert=entry["w_expert"],
            w_csa=entry["w_csa"],
            joint=entry["joint"],
        )
        turns.append(TurnRecord(expert_state, csa_state, response, reward))
        prev_skills = skills
    return Trajectory(
        episode_id=record["episode_id"],
        turns=tuple(turns),
        milestones=milestones,
        seed=record["seed"],
        terminal_reason=record["terminal_reason"],
    )


def trajectory_to_json(traj: Trajectory) -> str:
    """Encode one trajectory as a single canonical JSON line."""
    return json.dumps(trajectory_to_dict(traj), separators=(",", ":"))


def trajectory_from_json(line: str) -> Trajectory:
    return trajectory_from_dict(json.loads(line))


def read_trajectories(path) -> list[Trajectory]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(trajectory_from_json(line))
    return out
