"""Synthetic goal-oriented dialogue environment.

A scripted shop conversation: a simulated user with intent/emotion dynamics,
a three-phase task structure whose milestones line up with the three
sub-tasks of the sequence-level efficiency metric, a deterministic scenario
table mapping (intent, emotion, phase) to a reference skill sequence, and a
rule-based judge that scores each response on politeness, constraint
compliance, phase relevance, and lexical diversity.  ``step`` scores each
turn into a ``RewardBreakdown``: the planner reward (``planner_reward``, from
each scenario entry's reference sequence and ideal ranking gain, built once
on construction), the judge's responder reward, and their joint reward.

Tokens are opaque integers annotated with marker ids; markers stand in for
semantic content so compliance and relevance are computable by set algebra.
All randomness in an episode is drawn from one per-episode generator, so a
(config, seed, action stream) triple fully determines every observation,
score, and milestone.

Default world (``configs/default.json``): 12 skills, 6 intents, 4 emotions,
24 markers over a 64-token vocabulary, horizon 12.  Markers 0-11 are the
twelve skills' content, 12 is politeness, 13-15 are the second required
markers of the three milestone skills (recommend, quote_price,
confirm_order), and 16-23 are filler no skill requires.  Tokens 0-47 carry
marker ``t mod 24`` (two carrier tokens per marker); tokens 48-63 carry none.
Each phase's markers are the union of its three backbone skills' markers.
A milestone fires when the phase's milestone skill was part of the selected
sequence (waived when no planner is attached) and the response carries all
of that skill's required markers.  Every scenario entry starts with its
phase's milestone skill: under the exponential position gain of the ranking
reward the first reference skill carries most of the signal, which keeps
planning and task completion aligned.  Next come an apology and objection
handling for a complaint or refund, or an apology alone for a frustrated or
angry user, then a tail typical of the phase and intent.  The two emotion
matrices (rows and columns calm, curious, frustrated, angry) model the
user's mood: compliant turns cool it down, non-compliant turns push it
toward frustration and anger, which changes the scenario entry the planner
is scored against on later turns.  The three intent matrices, one per phase,
keep intents sticky and let them drift toward the phase's typical activity,
from browsing and inquiry toward purchase.

The user's initial intent and emotion and each turn's transitions are drawn
by the package's one draw rule (``draw``): one ``random()``, scaled by the
last entry of the cumulative weights and searched from the right.  The
environment builds the cumulative distribution of each initial
distribution and each transition row once, on construction
(``cumulative``, ``Generator.choice``'s own: it ends in exactly 1.0), so a
draw costs one search and picks exactly the index ``rng.choice`` picks;
every episode is the one ``rng.choice`` would play.  The policies draw by
the same rule from unnormalised cumulative weights, so their index is
``rng.choice``'s except when ``random()`` falls within rounding of a
boundary.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BusinessContext,
    ExpertState,
    MAX_SKILL_SEQUENCE_LEN,
    MilestoneRecord,
    NUM_MILESTONES,
    Response,
    RewardBreakdown,
    Skill,
    SkillSequence,
    Trajectory,
)
from .rewards import RewardConfig, csa_reward, dcg, idcg, joint_reward, joint_weights


class ConfigError(ValueError):
    """Raised for invalid or incomplete configuration; the message names the
    offending key or entry."""


def check_scalar(value, kind: type, key: str):
    """``value`` if it is a JSON scalar of type ``kind`` (an integer is
    accepted where a float is expected, a boolean never stands in for a
    number, a float must be finite); otherwise a ConfigError naming ``key``."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def check_object(value, key: str) -> dict:
    """``value`` if it is a JSON object; otherwise a ConfigError naming the key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def parse(kind, value, key: str):
    """``value``, the JSON value at ``key``, read as the annotated type
    ``kind``: a scalar by ``check_scalar``, a dataclass by ``parse_fields``,
    a ``tuple[...]`` or ``frozenset[...]`` from a list of its entry type (a
    repeat in a set's list is an error), the tuple-keyed scenario table by
    ``_scenario_table`` and any other ``Mapping[str, ...]`` from an object;
    a ConfigError names the deepest offending key."""
    if dataclasses.is_dataclass(kind):
        return parse_fields(kind, value, key)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:
        return check_scalar(value, kind, key)
    if origin is tuple or origin is frozenset:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        entries = [parse(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
        for i, entry in enumerate(entries):
            if origin is frozenset and entry in entries[:i]:
                raise ConfigError(f"{key}[{i}] repeats entry {entry!r}")
        return origin(entries)
    if args[0] is not str:
        return _scenario_table(value, key, args[1])
    return {name: parse(args[1], v, f"{key}.{name}")
            for name, v in check_object(value, key).items()}


def parse_fields(cls, data, path: str):
    """``cls(**fields)`` from ``data``, the JSON object at ``path`` (``""`` for
    the top level of a config file).

    ``data`` must hold every field of the dataclass ``cls`` and no other key.
    Each value is read by ``parse`` as its field's annotated type.  A
    TypeError or ValueError raised by ``cls`` becomes a ConfigError naming
    ``path``; a ConfigError passes unchanged."""
    check_object(data, path or "config")
    prefix = f"{path}." if path else ""
    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            raise ConfigError(f"missing key {prefix}{f.name}")
        kwargs[f.name] = parse(kinds[f.name], data[f.name], prefix + f.name)
    unknown = sorted(set(data) - set(kwargs))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def to_json(value):
    """A config value as the JSON value that ``parse`` reads back to it as
    its annotated type: a dataclass becomes its fields in order, a frozenset
    a sorted list and a tuple a list; a mapping with tuple keys (the
    scenario table) is written in key order with its keys joined by ``|``,
    any other mapping in its own order."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        if all(isinstance(k, tuple) for k in value):
            return {"|".join(map(str, k)): to_json(v) for k, v in sorted(value.items())}
        return {k: to_json(v) for k, v in value.items()}
    return value


def _scenario_table(value, key: str, entry_kind) -> dict[tuple[str, str, int], tuple]:
    """The table keyed ``intent|emotion|phase``, each entry read as
    ``entry_kind``; two keys that name the same entry (``phase`` spelt ``1``
    and ``01``) are rejected."""
    out = {}
    spelt = {}
    for entry, seq in check_object(value, key).items():
        parts = entry.split("|")
        if len(parts) != 3 or not parts[2].isdecimal():
            raise ConfigError(
                f"malformed scenario key {key}[{entry!r}]: "
                "expected intent|emotion|phase with an integer phase"
            )
        combo = (parts[0], parts[1], int(parts[2]))
        if combo in spelt:
            raise ConfigError(
                f"scenario keys {key}[{spelt[combo]!r}] and {key}[{entry!r}] "
                "name the same entry"
            )
        spelt[combo] = entry
        out[combo] = parse(entry_kind, seq, f"{key}[{entry!r}]")
    return out


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class EnvConfig:
    """Full definition of the scripted environment, validated on
    construction by ``validate_env_config``; no field has a default.

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
    compliance_threshold: float
    max_response_len: int

    def __post_init__(self) -> None:
        validate_env_config(self)

    @property
    def vocab_size(self) -> int:
        """The number of tokens: one ``token_markers`` entry each."""
        return len(self.token_markers)


_ROW_SUM_TOL = 1e-9


def _check_distribution(dist, size: int, name: str) -> None:
    """A ConfigError naming ``name`` unless ``dist`` is a probability vector
    of ``size`` entries: none negative, summing to 1 within ``_ROW_SUM_TOL``."""
    if len(dist) != size:
        raise ConfigError(f"{name} must have {size} entries")
    if any(p < 0 for p in dist):
        raise ConfigError(f"{name} has a negative probability")
    if abs(sum(dist) - 1.0) > _ROW_SUM_TOL:
        raise ConfigError(f"{name} sums to {sum(dist)!r}, not 1")


def _check_stochastic(mat, size: int, name: str) -> None:
    if len(mat) != size:
        raise ConfigError(f"{name} must have {size} rows")
    for i, row in enumerate(mat):
        _check_distribution(row, size, f"{name} row {i}")


def validate_env_config(cfg: EnvConfig) -> None:
    """Eager validation of every environment invariant; raises ConfigError."""
    n_skills = len(cfg.skill_pool)
    if n_skills == 0:
        raise ConfigError("env.skill_pool is empty")
    names = [s.name for s in cfg.skill_pool]
    if len(set(names)) != len(names):
        raise ConfigError("env.skill_pool has duplicate skill names")
    for s in cfg.skill_pool:
        if not s.required_markers <= set(range(cfg.marker_count)):
            raise ConfigError(
                f"env.skill_pool[{s.name}].required_markers outside marker alphabet"
            )
    if len(set(cfg.intents)) != len(cfg.intents) or not cfg.intents:
        raise ConfigError("env.intents must be non-empty and unique")
    if len(set(cfg.emotions)) != len(cfg.emotions) or not cfg.emotions:
        raise ConfigError("env.emotions must be non-empty and unique")
    if not cfg.token_markers:
        raise ConfigError("env.token_markers is empty")
    for t, markers in enumerate(cfg.token_markers):
        if not markers <= set(range(cfg.marker_count)):
            raise ConfigError(f"env.token_markers[{t}] outside marker alphabet")
    carried = frozenset().union(*cfg.token_markers)
    for s in cfg.skill_pool:
        if not s.required_markers <= carried:
            raise ConfigError(
                f"env.skill_pool[{s.name}].required_markers has a marker no token carries"
            )
    if not cfg.politeness_markers <= set(range(cfg.marker_count)):
        raise ConfigError("env.politeness_markers outside marker alphabet")
    if len(cfg.phase_markers) != NUM_MILESTONES:
        raise ConfigError("env.phase_markers must have one set per phase")
    for p, markers in enumerate(cfg.phase_markers):
        if not markers:
            raise ConfigError(f"env.phase_markers[{p}] is empty")
        if not markers <= set(range(cfg.marker_count)):
            raise ConfigError(f"env.phase_markers[{p}] outside marker alphabet")
    unknown = sorted(set(cfg.emotion_transition) - {"compliant", "noncompliant"})
    if unknown:
        raise ConfigError(f"unknown key env.emotion_transition.{unknown[0]}")
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
    _check_distribution(cfg.initial_intent_dist, len(cfg.intents), "env.initial_intent_dist")
    _check_distribution(cfg.initial_emotion_dist, len(cfg.emotions), "env.initial_emotion_dist")
    for intent in cfg.intents:
        for emotion in cfg.emotions:
            for phase in range(1, NUM_MILESTONES + 1):
                key = (intent, emotion, phase)
                if key not in cfg.scenario_table:
                    raise ConfigError(f"env.scenario_table missing entry {key}")
                seq = cfg.scenario_table[key]
                if not 1 <= len(seq) <= MAX_SKILL_SEQUENCE_LEN:
                    raise ConfigError(
                        f"env.scenario_table[{key}] has {len(seq)} skills, outside 1 "
                        f"to {MAX_SKILL_SEQUENCE_LEN}, the plan-length cap"
                    )
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
    """One episode-at-a-time scripted dialogue, scored turn by turn under
    ``reward_cfg``.  ``reset`` rebuilds all episode state, so one instance
    plays any number of episodes in turn; independent instances never share
    state."""

    def __init__(self, cfg: EnvConfig, reward_cfg: RewardConfig):
        self.cfg = cfg
        self.reward_cfg = reward_cfg
        self._required = tuple(s.required_markers for s in cfg.skill_pool)
        emo = cfg.emotion_transition
        # cumulative distributions of the transition rows, indexed by the
        # current state
        self._emotion_cdfs = {
            True: _row_cdfs(emo["compliant"]),
            False: _row_cdfs(emo["noncompliant"]),
        }
        self._intent_cdfs = tuple(_row_cdfs(m) for m in cfg.intent_transition)
        self._init_intent_cdf = cumulative(_normalized(cfg.initial_intent_dist))
        self._init_emotion_cdf = cumulative(_normalized(cfg.initial_emotion_dist))
        # each scenario entry's teacher sequence and its ideal gain
        self._teachers = {
            key: (SkillSequence(seq), idcg(seq)) for key, seq in cfg.scenario_table.items()
        }
        self._active = False
        self._done = False

    # -- lifecycle -------------------------------------------------------

    def reset(self, seed: int) -> EnvObservation:
        """Start a fresh episode; fully determined by (config, seed)."""
        self._rng = np.random.default_rng(seed)
        self._turn = 0
        self._phase = 1
        self._intent_idx = draw(self._init_intent_cdf, self._rng)
        self._emotion_idx = draw(self._init_emotion_cdf, self._rng)
        self._business = BusinessContext(
            order_status=int(self._rng.integers(0, 3)),
            stock_level=int(self._rng.integers(0, 3)),
        )
        self._completed = [False] * NUM_MILESTONES
        self._milestone_turns: list[int | None] = [None] * NUM_MILESTONES
        self._history: tuple[frozenset[int], ...] = ()
        self._prev_skills: SkillSequence | None = None
        self._done = False
        self._active = True
        self._terminal_reason: str | None = None
        self._obs = self._build_observation()
        return self._obs

    def step(
        self, skills: SkillSequence | None, response: Response
    ) -> tuple[EnvObservation, RewardBreakdown, bool]:
        """Score one turn and advance the user state; the next planner
        state's history ends with the response's marker set.

        The turn's reward is the planner reward of ``skills`` on the current
        state (0.0 for a null constraint), the ``judge`` scores of the
        response under ``skills``, the responder's ``csa_reward`` of them,
        and the two mixed by ``joint_weights`` of this turn into
        ``joint_reward``.  Returns (next observation, that reward, done);
        the milestones completed so far are ``milestone_record()``.  Raises
        if called before reset or after the episode ended.
        """
        if not self._active:
            raise RuntimeError("step() before reset()")
        if self._done:
            raise RuntimeError("step() after the episode ended")
        if skills is not None:
            for s in skills:
                if s >= len(self.cfg.skill_pool):
                    raise ValueError(f"skill id {s} outside the pool")
        r_e = 0.0 if skills is None else self.planner_reward(self._obs.expert_state, skills)
        scores = self.judge(skills, response)
        turn_no = self._turn + 1
        r_a = csa_reward(scores, self.reward_cfg)
        weights = joint_weights(turn_no, self.cfg.horizon, self.reward_cfg)
        reward = RewardBreakdown(
            r_expert=r_e,
            r_csa=r_a,
            dim_scores=scores,
            w_expert=weights[0],
            w_csa=weights[1],
            joint=joint_reward(r_e, r_a, weights),
        )

        p = self._phase
        if not self._completed[p - 1] and self._milestone_fires(p, skills, response):
            self._completed[p - 1] = True
            self._milestone_turns[p - 1] = turn_no
            self._phase = min(p + 1, NUM_MILESTONES)

        compliant = scores[1] >= self.cfg.compliance_threshold
        self._emotion_idx = draw(self._emotion_cdfs[compliant][self._emotion_idx], self._rng)
        self._intent_idx = draw(
            self._intent_cdfs[self._phase - 1][self._intent_idx], self._rng
        )
        self._history = (self._history + (response.markers,))[-self.cfg.history_window :]
        self._prev_skills = skills
        self._turn = turn_no

        if all(self._completed):
            self._done = True
            self._terminal_reason = TERMINAL_ALL_MILESTONES
        elif turn_no >= self.cfg.horizon:
            self._done = True
            self._terminal_reason = TERMINAL_HORIZON
        self._obs = self._build_observation()
        return self._obs, reward, self._done

    @property
    def terminal_reason(self) -> str | None:
        return self._terminal_reason

    def milestone_record(self) -> MilestoneRecord:
        return MilestoneRecord(
            completed=tuple(self._completed), turns=tuple(self._milestone_turns)
        )

    # -- oracle and judge --------------------------------------------------

    def _teacher(self, state: ExpertState) -> tuple[SkillSequence, float]:
        key = (state.intent, state.emotion, state.phase)
        if key not in self._teachers:
            raise KeyError(f"no scenario entry for {key}")
        return self._teachers[key]

    def teacher_sequence(self, state: ExpertState) -> SkillSequence:
        """Reference skill sequence for a state: a deterministic scenario
        lookup keyed by (intent, emotion, phase), built once per entry."""
        return self._teacher(state)[0]

    def planner_reward(self, state: ExpertState, skills: SkillSequence) -> float:
        """``rewards.esndcg`` of ``skills`` against the state's reference
        sequence, bit for bit: ``dcg`` of the prediction divided by the
        entry's ideal gain, computed once per entry with the same float
        operations as ``idcg``."""
        teacher, ideal = self._teacher(state)
        return dcg(skills.skills, teacher.skills) / ideal

    def judge(
        self, constraint: SkillSequence | None, response: Response
    ) -> tuple[float, float, float, float]:
        """Deterministic rule-based scores of a response under the skill
        constraint it was generated for, each in [0, 1]: politeness,
        constraint compliance, phase relevance, diversity.

        A null constraint is vacuously compliant.  Phase relevance is judged
        against the environment's current phase.
        """
        markers = response.markers
        s1 = 1.0 if markers & self.cfg.politeness_markers else 0.0
        if constraint is None:
            s2 = 1.0
        else:
            required: set[int] = set()
            for s in constraint:
                required |= self._required[s]
            s2 = len(markers & required) / len(required)
        phase_markers = self.cfg.phase_markers[self._phase - 1]
        s3 = len(markers & phase_markers) / len(phase_markers)
        s4 = len(set(response.tokens)) / len(response.tokens)
        return (s1, s2, s3, s4)

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


def cumulative(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice`` searches for weights
    ``p``: ``p.cumsum()`` divided by its last entry, so it ends in exactly
    1.0.  Like ``choice``, it raises when the weights are not finite."""
    cdf = p.cumsum()
    if not math.isfinite(cdf[-1]):
        raise ValueError("probabilities are not finite")
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One draw from the cumulative weights ``cdf``, which need not be
    normalised: one ``random()``, scaled by ``cdf[-1]`` and searched from
    the right.  On a ``cumulative`` distribution (last entry exactly 1.0)
    this is ``rng.choice``'s rule bit for bit, so the same index; on other
    weights it samples the same law as ``rng.choice`` on the normalised
    weights, with the same index except within rounding of a boundary.
    Raises, before drawing, when ``cdf[-1]`` is not finite."""
    total = cdf.item(-1)
    if not math.isfinite(total):
        raise ValueError("probabilities are not finite")
    return int(cdf.searchsorted(rng.random() * total, side="right"))


def _normalized(a) -> np.ndarray:
    """A distribution, or each row of a matrix, divided by its sum."""
    a = np.asarray(a, dtype=float)
    return a / a.sum(axis=-1, keepdims=True)


def _row_cdfs(mat) -> tuple[np.ndarray, ...]:
    return tuple(cumulative(row) for row in _normalized(mat))


def reference_responses(
    trajs: Sequence[Trajectory], cfg: EnvConfig
) -> list[list[tuple[int, ...]]]:
    """Per-turn reference token sequences of logged trajectories, one list
    per trajectory.

    The reference at each turn realizes the scenario entry for the recorded
    (intent, emotion, phase): each skill's required markers, in order,
    rendered through their first carrier tokens.  Phases reconstructed from
    the milestone record make this computable from the wire format alone.
    Each entry's reference is built once per call; a state with no entry
    raises KeyError.
    """
    marker_token: dict[int, int] = {}
    for t, markers in enumerate(cfg.token_markers):
        for m in markers:
            marker_token.setdefault(m, t)
    entries = {
        key: tuple(
            marker_token[m] for s in seq for m in sorted(cfg.skill_pool[s].required_markers)
        )
        for key, seq in cfg.scenario_table.items()
    }
    out = []
    for traj in trajs:
        states = [turn.expert_state for turn in traj.turns]
        out.append([entries[(st.intent, st.emotion, st.phase)] for st in states])
    return out
