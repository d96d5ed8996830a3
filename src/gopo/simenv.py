"""Synthetic goal-oriented dialogue environment.

A scripted shop conversation: a simulated user with intent/emotion dynamics,
a three-phase task structure whose milestones line up with the three
sub-tasks of the sequence-level efficiency metric, a deterministic scenario
table mapping (intent, emotion, phase) to a reference skill sequence, and a
rule-based judge that scores each response on politeness, constraint
compliance, phase relevance, and lexical diversity.

Tokens are opaque integers annotated with marker ids; markers stand in for
semantic content so compliance and relevance are computable by set algebra.
All randomness in an episode is drawn from one per-episode generator, so a
(config, seed, action stream) triple fully determines every observation,
score, and milestone.

Default world: 12 skills, 6 intents, 4 emotions, 24 markers over a 64-token
vocabulary, horizon 12.  Each milestone fires when the phase's key skill was
part of the selected sequence (waived when no planner is attached) and the
response carries all of that skill's required markers.  Low compliance tilts
the user's emotion toward frustrated/angry, which changes the scenario entry
the planner is scored against on later turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BusinessContext,
    CsaState,
    ExpertState,
    NUM_MILESTONES,
    Response,
    Skill,
    SkillSequence,
    Trajectory,
    TurnSummary,
)


class ConfigError(ValueError):
    """Raised for invalid or incomplete configuration; the message names the
    offending key or entry."""


def check_scalar(value, kind: type, key: str):
    """``value`` if it is a JSON scalar of type ``kind`` (an integer is
    accepted where a float is expected, a boolean never stands in for a
    number); otherwise a ConfigError naming ``key``."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class EnvConfig:
    """Full definition of the scripted environment.

    ``scenario_table`` maps every (intent, emotion, phase) combination to the
    reference skill sequence used for reward shaping.  ``milestone_rules``
    lists, per milestone, the qualifying skill ids: the milestone fires when
    one of them was selected (waived for a null constraint) and its required
    markers all appear in the response.  ``emotion_transition`` holds one
    row-stochastic matrix for compliant turns and one for non-compliant
    turns; ``intent_transition`` holds one matrix per phase.
    """

    skill_pool: tuple[Skill, ...]
    intents: tuple[str, ...]
    emotions: tuple[str, ...]
    vocab_size: int
    horizon: int
    history_window: int
    marker_count: int
    token_markers: tuple[frozenset[int], ...]
    politeness_markers: frozenset[int]
    phase_markers: tuple[frozenset[int], frozenset[int], frozenset[int]]
    emotion_transition: Mapping[str, tuple[tuple[float, ...], ...]]
    intent_transition: tuple[tuple[tuple[float, ...], ...], ...]
    initial_intent_dist: tuple[float, ...]
    initial_emotion_dist: tuple[float, ...]
    scenario_table: Mapping[tuple[str, str, int], tuple[int, ...]]
    milestone_rules: tuple[tuple[int, ...], ...]
    compliance_threshold: float = 0.5
    max_response_len: int = 16
    seed: int = 0

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "skill_pool": [
                {
                    "id": s.id,
                    "name": s.name,
                    "required_markers": sorted(s.required_markers),
                }
                for s in self.skill_pool
            ],
            "intents": list(self.intents),
            "emotions": list(self.emotions),
            "vocab_size": self.vocab_size,
            "horizon": self.horizon,
            "history_window": self.history_window,
            "marker_count": self.marker_count,
            "token_markers": [sorted(m) for m in self.token_markers],
            "politeness_markers": sorted(self.politeness_markers),
            "phase_markers": [sorted(m) for m in self.phase_markers],
            "emotion_transition": {
                key: [list(row) for row in mat]
                for key, mat in self.emotion_transition.items()
            },
            "intent_transition": [
                [list(row) for row in mat] for mat in self.intent_transition
            ],
            "initial_intent_dist": list(self.initial_intent_dist),
            "initial_emotion_dist": list(self.initial_emotion_dist),
            "scenario_table": {
                f"{intent}|{emotion}|{phase}": list(seq)
                for (intent, emotion, phase), seq in sorted(self.scenario_table.items())
            },
            "milestone_rules": [list(r) for r in self.milestone_rules],
            "compliance_threshold": self.compliance_threshold,
            "max_response_len": self.max_response_len,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict, path: str = "env", base_dir=None) -> "EnvConfig":
        data = dict(data)

        def take(key, kind: type | None = None):
            if key not in data:
                raise ConfigError(f"missing key {path}.{key}")
            value = data.pop(key)
            return value if kind is None else check_scalar(value, kind, f"{path}.{key}")

        skills = []
        for i, entry in enumerate(take("skill_pool")):
            for field in ("id", "name", "required_markers"):
                if field not in entry:
                    raise ConfigError(f"missing key {path}.skill_pool[{i}].{field}")
            skills.append(
                Skill(
                    id=entry["id"],
                    name=entry["name"],
                    required_markers=frozenset(entry["required_markers"]),
                )
            )
        skill_pool = tuple(skills)
        scenario_raw = take("scenario_table")
        if isinstance(scenario_raw, dict) and set(scenario_raw) == {"file"}:
            # table referenced as a separate JSON file, resolved against the
            # config file's directory
            import json
            from pathlib import Path

            ref = Path(scenario_raw["file"])
            if base_dir is not None and not ref.is_absolute():
                ref = Path(base_dir) / ref
            if not ref.is_file():
                raise ConfigError(f"{path}.scenario_table file not found: {ref}")
            scenario_raw = json.loads(ref.read_text(encoding="utf-8"))
        scenario: dict[tuple[str, str, int], tuple[int, ...]] = {}
        for key, seq in scenario_raw.items():
            parts = key.split("|")
            if len(parts) != 3 or not parts[2].isdigit():
                raise ConfigError(
                    f"malformed scenario key {path}.scenario_table[{key!r}]: "
                    "expected intent|emotion|phase with an integer phase"
                )
            scenario[(parts[0], parts[1], int(parts[2]))] = tuple(seq)
        emo_raw = take("emotion_transition")
        cfg = cls(
            skill_pool=skill_pool,
            intents=tuple(take("intents")),
            emotions=tuple(take("emotions")),
            vocab_size=take("vocab_size", int),
            horizon=take("horizon", int),
            history_window=take("history_window", int),
            marker_count=take("marker_count", int),
            token_markers=tuple(frozenset(m) for m in take("token_markers")),
            politeness_markers=frozenset(take("politeness_markers")),
            phase_markers=tuple(frozenset(m) for m in take("phase_markers")),
            emotion_transition={
                key: tuple(tuple(row) for row in mat) for key, mat in emo_raw.items()
            },
            intent_transition=tuple(
                tuple(tuple(row) for row in mat) for mat in take("intent_transition")
            ),
            initial_intent_dist=tuple(take("initial_intent_dist")),
            initial_emotion_dist=tuple(take("initial_emotion_dist")),
            scenario_table=scenario,
            milestone_rules=tuple(tuple(r) for r in take("milestone_rules")),
            compliance_threshold=take("compliance_threshold", float),
            max_response_len=take("max_response_len", int),
            seed=take("seed", int),
        )
        if data:
            raise ConfigError(f"unknown key {path}.{sorted(data)[0]}")
        return cfg


_ROW_SUM_TOL = 1e-9


def _check_stochastic(mat, size: int, name: str) -> None:
    if len(mat) != size:
        raise ConfigError(f"{name} must have {size} rows")
    for i, row in enumerate(mat):
        if len(row) != size:
            raise ConfigError(f"{name} row {i} must have {size} entries")
        if any(p < 0 for p in row):
            raise ConfigError(f"{name} row {i} has a negative probability")
        if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
            raise ConfigError(f"{name} row {i} sums to {sum(row)!r}, not 1")


def validate_env_config(cfg: EnvConfig) -> None:
    """Eager validation of every environment invariant; raises ConfigError."""
    n_skills = len(cfg.skill_pool)
    if n_skills == 0:
        raise ConfigError("env.skill_pool is empty")
    names = [s.name for s in cfg.skill_pool]
    if len(set(names)) != len(names):
        raise ConfigError("env.skill_pool has duplicate skill names")
    for i, s in enumerate(cfg.skill_pool):
        if s.id != i:
            raise ConfigError(
                f"env.skill_pool entry {i} has id {s.id}; ids must be consecutive"
            )
        if not s.required_markers <= set(range(cfg.marker_count)):
            raise ConfigError(
                f"env.skill_pool[{s.name}].required_markers outside marker alphabet"
            )
    if len(set(cfg.intents)) != len(cfg.intents) or not cfg.intents:
        raise ConfigError("env.intents must be non-empty and unique")
    if len(set(cfg.emotions)) != len(cfg.emotions) or not cfg.emotions:
        raise ConfigError("env.emotions must be non-empty and unique")
    if cfg.vocab_size != len(cfg.token_markers):
        raise ConfigError(
            f"env.token_markers has {len(cfg.token_markers)} entries for "
            f"vocab_size {cfg.vocab_size}"
        )
    for t, markers in enumerate(cfg.token_markers):
        if not markers <= set(range(cfg.marker_count)):
            raise ConfigError(f"env.token_markers[{t}] outside marker alphabet")
    if not cfg.politeness_markers <= set(range(cfg.marker_count)):
        raise ConfigError("env.politeness_markers outside marker alphabet")
    if len(cfg.phase_markers) != NUM_MILESTONES:
        raise ConfigError("env.phase_markers must have one set per phase")
    for p, markers in enumerate(cfg.phase_markers):
        if not markers:
            raise ConfigError(f"env.phase_markers[{p}] is empty")
        if not markers <= set(range(cfg.marker_count)):
            raise ConfigError(f"env.phase_markers[{p}] outside marker alphabet")
    for key in ("compliant", "noncompliant"):
        if key not in cfg.emotion_transition:
            raise ConfigError(f"env.emotion_transition missing {key!r} matrix")
        _check_stochastic(
            cfg.emotion_transition[key], len(cfg.emotions), f"env.emotion_transition.{key}"
        )
    if len(cfg.intent_transition) != NUM_MILESTONES:
        raise ConfigError("env.intent_transition must have one matrix per phase")
    for p, mat in enumerate(cfg.intent_transition):
        _check_stochastic(mat, len(cfg.intents), f"env.intent_transition[{p}]")
    for name, dist, size in (
        ("initial_intent_dist", cfg.initial_intent_dist, len(cfg.intents)),
        ("initial_emotion_dist", cfg.initial_emotion_dist, len(cfg.emotions)),
    ):
        if len(dist) != size:
            raise ConfigError(f"env.{name} must have {size} entries")
        if any(p < 0 for p in dist):
            raise ConfigError(f"env.{name} has a negative probability")
        if abs(sum(dist) - 1.0) > _ROW_SUM_TOL:
            raise ConfigError(f"env.{name} sums to {sum(dist)!r}, not 1")
    for intent in cfg.intents:
        for emotion in cfg.emotions:
            for phase in range(1, NUM_MILESTONES + 1):
                key = (intent, emotion, phase)
                if key not in cfg.scenario_table:
                    raise ConfigError(f"env.scenario_table missing entry {key}")
                seq = cfg.scenario_table[key]
                if not 1 <= len(seq) <= 5:
                    raise ConfigError(f"env.scenario_table[{key}] has invalid length")
                if len(set(seq)) != len(seq):
                    raise ConfigError(f"env.scenario_table[{key}] repeats a skill")
                if any(s < 0 or s >= n_skills for s in seq):
                    raise ConfigError(f"env.scenario_table[{key}] uses an unknown skill")
    for key in cfg.scenario_table:
        intent, emotion, phase = key
        if (
            intent not in cfg.intents
            or emotion not in cfg.emotions
            or not 1 <= phase <= NUM_MILESTONES
        ):
            raise ConfigError(f"env.scenario_table has stray entry {key}")
    if len(cfg.milestone_rules) != NUM_MILESTONES:
        raise ConfigError("env.milestone_rules must have one rule per milestone")
    for p, rule in enumerate(cfg.milestone_rules):
        if not rule:
            raise ConfigError(f"env.milestone_rules[{p}] is empty")
        if any(q < 0 or q >= n_skills for q in rule):
            raise ConfigError(f"env.milestone_rules[{p}] names an unknown skill")
    if not 0.0 <= cfg.compliance_threshold <= 1.0:
        raise ConfigError("env.compliance_threshold must be in [0, 1]")
    if cfg.horizon < 1:
        raise ConfigError("env.horizon must be positive")
    if cfg.history_window < 1:
        raise ConfigError("env.history_window must be positive")
    if cfg.max_response_len < 1:
        raise ConfigError("env.max_response_len must be positive")


# --- default world -----------------------------------------------------------

DEFAULT_INTENTS = ("browse", "inquire", "purchase", "complain", "refund", "chitchat")
DEFAULT_EMOTIONS = ("calm", "curious", "frustrated", "angry")

# Marker ids: 0..11 mirror the twelve skills' content, 12 is politeness,
# 13..15 are the secondary markers of the three milestone skills, 16..23 are
# inert filler markers carried by miscellaneous tokens.
POLITE_MARKER = 12

_DEFAULT_SKILLS = (
    ("greet", frozenset({0, 12})),
    ("probe_need", frozenset({1})),
    ("recommend", frozenset({2, 13})),
    ("explain_features", frozenset({3})),
    ("check_stock", frozenset({4})),
    ("quote_price", frozenset({5, 14})),
    ("offer_discount", frozenset({6})),
    ("handle_objection", frozenset({7})),
    ("confirm_order", frozenset({8, 15})),
    ("upsell", frozenset({9})),
    ("apologize", frozenset({10, 12})),
    ("close", frozenset({11, 12})),
)

# Backbone skills per phase; the phase-relevance judge dimension and the
# default scenario entries are built from these.
_PHASE_CORE_SKILLS = ((0, 1, 2), (3, 4, 5), (6, 8, 11))
_MILESTONE_SKILLS = (2, 5, 8)  # recommend, quote_price, confirm_order


def default_skill_pool() -> tuple[Skill, ...]:
    return tuple(
        Skill(id=i, name=name, required_markers=markers)
        for i, (name, markers) in enumerate(_DEFAULT_SKILLS)
    )


def default_token_markers(vocab_size: int = 64, marker_count: int = 24):
    """Tokens 0..2*marker_count-1 carry one marker each (two carrier tokens
    per marker); the rest carry none."""
    out = []
    for t in range(vocab_size):
        if t < 2 * marker_count:
            out.append(frozenset({t % marker_count}))
        else:
            out.append(frozenset())
    return tuple(out)


def _default_scenario_entry(intent: str, emotion: str, phase: int) -> tuple[int, ...]:
    # The phase's milestone skill leads every entry: under the exponential
    # position gains of the ranking reward, the first reference skill carries
    # most of the signal, which keeps planning and task completion aligned.
    seq: list[int] = [_MILESTONE_SKILLS[phase - 1]]
    if intent in ("complain", "refund"):
        seq += [10, 7]  # apologize, then address the objection
    elif emotion in ("frustrated", "angry"):
        seq += [10]
    tail = {1: [1, 0], 2: [3, 4], 3: [6, 11]}[phase]
    if intent == "purchase":
        if phase == 1:
            tail = [4, 1]  # decided buyer: check stock, then probe details
        elif phase == 3:
            tail = [9, 11]  # upsell before closing
    seq += tail
    out: list[int] = []
    for s in seq:
        if s not in out:
            out.append(s)
    return tuple(out[:5])


def default_scenario_table() -> dict[tuple[str, str, int], tuple[int, ...]]:
    table = {}
    for intent in DEFAULT_INTENTS:
        for emotion in DEFAULT_EMOTIONS:
            for phase in range(1, NUM_MILESTONES + 1):
                table[(intent, emotion, phase)] = _default_scenario_entry(
                    intent, emotion, phase
                )
    return table


# Rows: calm, curious, frustrated, angry.  Compliant turns cool the user
# down; non-compliant turns push toward frustration and anger.
_EMOTION_COMPLIANT = (
    (0.80, 0.15, 0.05, 0.00),
    (0.35, 0.55, 0.10, 0.00),
    (0.45, 0.20, 0.30, 0.05),
    (0.20, 0.10, 0.40, 0.30),
)
_EMOTION_NONCOMPLIANT = (
    (0.40, 0.20, 0.30, 0.10),
    (0.15, 0.35, 0.35, 0.15),
    (0.05, 0.05, 0.55, 0.35),
    (0.00, 0.02, 0.28, 0.70),
)

# Rows/cols: browse, inquire, purchase, complain, refund, chitchat.  Intents
# are sticky and drift toward the phase-typical activity.
_INTENT_PHASE1 = (
    (0.55, 0.30, 0.05, 0.02, 0.03, 0.05),
    (0.10, 0.70, 0.10, 0.03, 0.02, 0.05),
    (0.05, 0.15, 0.70, 0.05, 0.03, 0.02),
    (0.02, 0.08, 0.05, 0.70, 0.10, 0.05),
    (0.02, 0.05, 0.03, 0.15, 0.70, 0.05),
    (0.20, 0.25, 0.05, 0.05, 0.05, 0.40),
)
_INTENT_PHASE2 = (
    (0.30, 0.45, 0.15, 0.03, 0.02, 0.05),
    (0.05, 0.60, 0.25, 0.04, 0.03, 0.03),
    (0.02, 0.13, 0.75, 0.05, 0.03, 0.02),
    (0.02, 0.10, 0.08, 0.65, 0.10, 0.05),
    (0.01, 0.06, 0.05, 0.13, 0.70, 0.05),
    (0.10, 0.30, 0.20, 0.05, 0.05, 0.30),
)
_INTENT_PHASE3 = (
    (0.20, 0.30, 0.40, 0.04, 0.03, 0.03),
    (0.03, 0.35, 0.50, 0.06, 0.03, 0.03),
    (0.01, 0.07, 0.85, 0.04, 0.02, 0.01),
    (0.01, 0.07, 0.12, 0.65, 0.10, 0.05),
    (0.01, 0.04, 0.07, 0.13, 0.70, 0.05),
    (0.05, 0.20, 0.40, 0.10, 0.05, 0.20),
)


def default_env_config(seed: int = 0, horizon: int = 12) -> EnvConfig:
    pool = default_skill_pool()
    phase_markers = tuple(
        frozenset().union(*(pool[s].required_markers for s in core))
        for core in _PHASE_CORE_SKILLS
    )
    cfg = EnvConfig(
        skill_pool=pool,
        intents=DEFAULT_INTENTS,
        emotions=DEFAULT_EMOTIONS,
        vocab_size=64,
        horizon=horizon,
        history_window=4,
        marker_count=24,
        token_markers=default_token_markers(64, 24),
        politeness_markers=frozenset({POLITE_MARKER}),
        phase_markers=phase_markers,
        emotion_transition={
            "compliant": _EMOTION_COMPLIANT,
            "noncompliant": _EMOTION_NONCOMPLIANT,
        },
        intent_transition=(_INTENT_PHASE1, _INTENT_PHASE2, _INTENT_PHASE3),
        initial_intent_dist=(0.30, 0.30, 0.10, 0.15, 0.10, 0.05),
        initial_emotion_dist=(0.50, 0.30, 0.15, 0.05),
        scenario_table=default_scenario_table(),
        milestone_rules=tuple((s,) for s in _MILESTONE_SKILLS),
        seed=seed,
    )
    validate_env_config(cfg)
    return cfg


# --- environment -------------------------------------------------------------


@dataclass(frozen=True)
class EnvObservation:
    """What the agents see at the start of a turn."""

    expert_state: ExpertState
    csa_utterance: tuple[int, ...]
    business_ctx: BusinessContext


TERMINAL_ALL_MILESTONES = "all_milestones"
TERMINAL_HORIZON = "horizon"


class DialogueEnv:
    """One episode-at-a-time scripted dialogue.  An instance is owned by a
    single rollout worker; independent instances never share state."""

    def __init__(self, cfg: EnvConfig):
        validate_env_config(cfg)
        self.cfg = cfg
        self._required = tuple(s.required_markers for s in cfg.skill_pool)
        emo = cfg.emotion_transition
        self._emotion_mats = {
            True: _normalized_rows(emo["compliant"]),
            False: _normalized_rows(emo["noncompliant"]),
        }
        self._intent_mats = tuple(_normalized_rows(m) for m in cfg.intent_transition)
        self._init_intent = _normalized_vec(cfg.initial_intent_dist)
        self._init_emotion = _normalized_vec(cfg.initial_emotion_dist)
        self._marker_token = _marker_first_tokens(cfg)
        self._active = False
        self._done = False

    # -- lifecycle -------------------------------------------------------

    def reset(self, seed: int | None = None) -> EnvObservation:
        """Start a fresh episode; fully determined by (config, seed)."""
        if seed is None:
            seed = self.cfg.seed
        self._rng = np.random.default_rng(seed)
        self._turn = 0
        self._phase = 1
        self._intent_idx = int(self._rng.choice(len(self.cfg.intents), p=self._init_intent))
        self._emotion_idx = int(
            self._rng.choice(len(self.cfg.emotions), p=self._init_emotion)
        )
        self._business = BusinessContext(
            order_status=int(self._rng.integers(0, 3)),
            stock_level=int(self._rng.integers(0, 3)),
        )
        self._completed = [False] * NUM_MILESTONES
        self._milestone_turns: list[int | None] = [None] * NUM_MILESTONES
        self._history: tuple[TurnSummary, ...] = ()
        self._prev_skills: SkillSequence | None = None
        self._done = False
        self._active = True
        self._terminal_reason: str | None = None
        self._obs = self._build_observation()
        return self._obs

    def step(
        self, skills: SkillSequence | None, response: Response
    ) -> tuple[EnvObservation, tuple[float, float, float, float], tuple[bool, bool, bool], bool]:
        """Score one exchange and advance the user state.

        Returns (next observation, judge dimension scores, newly completed
        milestones, done).  Raises if called before reset or after the
        episode ended.
        """
        if not self._active:
            raise RuntimeError("step() before reset()")
        if self._done:
            raise RuntimeError("step() after the episode ended")
        if skills is not None:
            for s in skills:
                if s >= len(self.cfg.skill_pool):
                    raise ValueError(f"skill id {s} outside the pool")
        csa_state = CsaState(
            utterance=self._obs.csa_utterance,
            constraint=skills,
            business_ctx=self._business,
        )
        scores = self.judge(csa_state, response)
        turn_no = self._turn + 1

        delta = [False] * NUM_MILESTONES
        p = self._phase
        if not self._completed[p - 1] and self._milestone_fires(p, skills, response):
            self._completed[p - 1] = True
            self._milestone_turns[p - 1] = turn_no
            delta[p - 1] = True
            self._phase = min(p + 1, NUM_MILESTONES)

        compliant = scores[1] >= self.cfg.compliance_threshold
        old_intent = self.cfg.intents[self._intent_idx]
        old_emotion = self.cfg.emotions[self._emotion_idx]
        self._emotion_idx = int(
            self._rng.choice(
                len(self.cfg.emotions), p=self._emotion_mats[compliant][self._emotion_idx]
            )
        )
        self._intent_idx = int(
            self._rng.choice(
                len(self.cfg.intents),
                p=self._intent_mats[self._phase - 1][self._intent_idx],
            )
        )
        summary = TurnSummary(
            intent=old_intent,
            emotion=old_emotion,
            skills=skills.skills if skills is not None else (),
            markers=response.markers,
        )
        self._history = (self._history + (summary,))[-self.cfg.history_window :]
        self._prev_skills = skills
        self._turn = turn_no

        if all(self._completed):
            self._done = True
            self._terminal_reason = TERMINAL_ALL_MILESTONES
        elif turn_no >= self.cfg.horizon:
            self._done = True
            self._terminal_reason = TERMINAL_HORIZON
        self._obs = self._build_observation()
        return self._obs, scores, tuple(delta), self._done

    @property
    def done(self) -> bool:
        return self._done

    @property
    def terminal_reason(self) -> str | None:
        return self._terminal_reason

    def milestone_record(self):
        from .core import MilestoneRecord

        return MilestoneRecord(
            completed=tuple(self._completed), turns=tuple(self._milestone_turns)
        )

    # -- oracle and judge --------------------------------------------------

    def teacher_sequence(self, state: ExpertState) -> SkillSequence:
        """Reference skill sequence for a state: a deterministic scenario
        lookup keyed by (intent, emotion, phase)."""
        key = (state.intent, state.emotion, state.phase)
        if key not in self.cfg.scenario_table:
            raise KeyError(f"no scenario entry for {key}")
        return SkillSequence(self.cfg.scenario_table[key])

    def judge(
        self, state: CsaState, response: Response
    ) -> tuple[float, float, float, float]:
        """Deterministic rule-based response scores, each in [0, 1]:
        politeness, constraint compliance, phase relevance, diversity.

        A null constraint is vacuously compliant.  Phase relevance is judged
        against the environment's current phase.
        """
        markers = response.markers
        s1 = 1.0 if markers & self.cfg.politeness_markers else 0.0
        if state.constraint is None:
            s2 = 1.0
        else:
            required: set[int] = set()
            for s in state.constraint:
                required |= self._required[s]
            s2 = len(markers & required) / len(required)
        phase_markers = self.cfg.phase_markers[self._phase - 1]
        s3 = len(markers & phase_markers) / len(phase_markers)
        s4 = len(set(response.tokens)) / len(response.tokens)
        return (s1, s2, s3, s4)

    def reference_response(self, teacher: SkillSequence) -> tuple[int, ...]:
        """Canonical token realization of a skill sequence: each skill's
        required markers rendered through their first carrier tokens."""
        return _render_reference(teacher, self._required, self._marker_token)

    # -- internals ---------------------------------------------------------

    def _milestone_fires(
        self, phase: int, skills: SkillSequence | None, response: Response
    ) -> bool:
        for q in self.cfg.milestone_rules[phase - 1]:
            selected = skills is None or q in skills
            if selected and self._required[q] <= response.markers:
                return True
        return False

    def _build_observation(self) -> EnvObservation:
        state = ExpertState(
            history=self._history,
            intent=self.cfg.intents[self._intent_idx],
            emotion=self.cfg.emotions[self._emotion_idx],
            prev_skills=self._prev_skills,
            phase=self._phase,
            turn=self._turn + 1,
        )
        return EnvObservation(
            expert_state=state,
            csa_utterance=self._make_utterance(),
            business_ctx=self._business,
        )

    def _make_utterance(self) -> tuple[int, ...]:
        v = self.cfg.vocab_size
        return (
            self._intent_idx % v,
            (len(self.cfg.intents) + self._emotion_idx) % v,
            int(self._rng.integers(0, v)),
        )


def _normalized_rows(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    return a / a.sum(axis=1, keepdims=True)


def _normalized_vec(vec) -> np.ndarray:
    a = np.asarray(vec, dtype=float)
    return a / a.sum()


def _marker_first_tokens(cfg: EnvConfig) -> dict[int, int]:
    first: dict[int, int] = {}
    for t, markers in enumerate(cfg.token_markers):
        for m in markers:
            first.setdefault(m, t)
    return first


def _render_reference(
    teacher: SkillSequence,
    required: Sequence[frozenset[int]],
    marker_token: Mapping[int, int],
) -> tuple[int, ...]:
    toks: list[int] = []
    for s in teacher:
        for m in sorted(required[s]):
            toks.append(marker_token[m])
    return tuple(toks)


def reference_responses(traj: Trajectory, cfg: EnvConfig) -> list[tuple[int, ...]]:
    """Per-turn reference token sequences for a logged trajectory.

    The reference at each turn realizes the scenario entry for the recorded
    (intent, emotion, phase); phases reconstructed from the milestone record
    make this computable from the wire format alone.
    """
    required = tuple(s.required_markers for s in cfg.skill_pool)
    marker_token = _marker_first_tokens(cfg)
    out = []
    for turn in traj.turns:
        st = turn.expert_state
        key = (st.intent, st.emotion, st.phase)
        if key not in cfg.scenario_table:
            raise KeyError(f"no scenario entry for {key}")
        teacher = SkillSequence(cfg.scenario_table[key])
        out.append(_render_reference(teacher, required, marker_token))
    return out
