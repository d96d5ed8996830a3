import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gopo.core import (
    BusinessContext,
    CsaState,
    ExpertState,
    Response,
    RewardBreakdown,
    Skill,
    SkillSequence,
    response_markers,
)
from gopo.cli import load_config
from gopo.rewards import joint_reward
from gopo.simenv import EnvConfig

DEFAULT_CONFIG_FILE = Path(__file__).resolve().parents[1] / "configs" / "default.json"
# the one definition of every default value; tests derive their configs from
# its sections with ``dataclasses.replace``
DEFAULT_CFG = load_config(DEFAULT_CONFIG_FILE)[0]


@pytest.fixture(scope="session")
def default_cfg():
    """The default configuration, parsed from ``configs/default.json``."""
    return DEFAULT_CFG


@pytest.fixture(scope="session")
def env_cfg(default_cfg):
    return default_cfg.env


def make_tiny_env_cfg(horizon=4):
    """A 4-skill, 2-intent, 2-emotion world; small enough for exhaustive and
    finite-difference tests."""
    pool = (
        Skill("open", frozenset({0, 5})),
        Skill("ask", frozenset({1})),
        Skill("offer", frozenset({2})),
        Skill("done", frozenset({3, 5})),
    )
    intents = ("buy", "gripe")
    emotions = ("calm", "mad")
    scenario = {}
    for intent in intents:
        for emotion in emotions:
            scenario[(intent, emotion, 1)] = (0, 1)
            scenario[(intent, emotion, 2)] = (1, 2) if intent == "buy" else (2, 1)
            scenario[(intent, emotion, 3)] = (2, 3)
    return EnvConfig(
        skill_pool=pool,
        intents=intents,
        emotions=emotions,
        horizon=horizon,
        history_window=2,
        marker_count=6,
        token_markers=tuple(
            frozenset({t % 6}) if t < 8 else frozenset() for t in range(10)
        ),
        politeness_markers=frozenset({5}),
        phase_markers=(frozenset({0, 1, 5}), frozenset({1, 2}), frozenset({2, 3, 5})),
        emotion_transition={
            "compliant": ((0.9, 0.1), (0.6, 0.4)),
            "noncompliant": ((0.5, 0.5), (0.1, 0.9)),
        },
        intent_transition=(
            ((0.8, 0.2), (0.3, 0.7)),
            ((0.7, 0.3), (0.4, 0.6)),
            ((0.9, 0.1), (0.5, 0.5)),
        ),
        initial_intent_dist=(0.7, 0.3),
        initial_emotion_dist=(0.8, 0.2),
        scenario_table=scenario,
        milestone_rules=((1,), (2,), (3,)),
        compliance_threshold=0.5,
        max_response_len=6,
    )


@pytest.fixture(scope="session")
def tiny_env_cfg():
    return make_tiny_env_cfg()


def random_expert_state(spec, rng):
    history = tuple(
        frozenset(
            int(m) for m in rng.choice(spec.n_markers, size=rng.integers(0, 4), replace=False)
        )
        for _ in range(rng.integers(0, spec.history_window + 1))
    )
    prev = None
    if rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        prev = SkillSequence(
            tuple(int(s) for s in rng.choice(spec.n_skills, size=k, replace=False))
        )
    return ExpertState(
        history=history,
        intent=spec.intents[rng.integers(len(spec.intents))],
        emotion=spec.emotions[rng.integers(len(spec.emotions))],
        prev_skills=prev,
        phase=int(rng.integers(1, 4)),
        turn=int(rng.integers(1, spec.horizon + 1)),
    )


def random_csa_state(spec, rng, allow_null_constraint=True):
    constraint = None
    if not allow_null_constraint or rng.random() < 0.8:
        k = int(rng.integers(1, 4))
        constraint = SkillSequence(
            tuple(int(s) for s in rng.choice(spec.n_skills, size=k, replace=False))
        )
    utterance = tuple(int(t) for t in rng.integers(0, spec.vocab_size, rng.integers(1, 4)))
    return CsaState(
        utterance=utterance,
        constraint=constraint,
        business_ctx=BusinessContext(
            order_status=int(rng.integers(0, 3)), stock_level=int(rng.integers(0, 3))
        ),
    )


def random_response(spec, rng, min_len=1):
    n = int(rng.integers(min_len, spec.max_response_len + 1))
    tokens = tuple(int(t) for t in rng.integers(0, spec.vocab_size, n))
    return Response(tokens=tokens, markers=response_markers(tokens, spec.token_markers))


def make_reward(r_expert, r_csa, dim_scores, weights):
    """A reward record whose joint reward is ``joint_reward``'s, as
    ``DialogueEnv.step`` builds it."""
    return RewardBreakdown(
        r_expert=r_expert,
        r_csa=r_csa,
        dim_scores=tuple(dim_scores),
        w_expert=weights[0],
        w_csa=weights[1],
        joint=joint_reward(r_expert, r_csa, weights),
    )


def write_tiny_config(path, out_dir, **train_overrides):
    """A complete config file over the tiny world, small enough that CLI
    round trips run in a second or two."""
    import json

    from gopo.simenv import to_json
    from gopo.trainer import GlobalConfig

    train = dict(
        episodes=16,
        batch_size=8,
        critic_warmup=1,
        eval_every=100,
        eval_episodes=5,
        hidden_size=16,
        seed=3,
    )
    train.update(train_overrides)
    cfg = GlobalConfig(
        make_tiny_env_cfg(),
        DEFAULT_CFG.reward,
        DEFAULT_CFG.tse,
        dataclasses.replace(DEFAULT_CFG.train, **train),
        str(out_dir),
    )
    path.write_text(json.dumps(to_json(cfg), indent=2), encoding="utf-8")
    return path
