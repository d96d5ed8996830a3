"""Desk-scale hierarchical RL lab for goal-oriented dialogue.

A strategy-planning agent composes skill sequences, a response agent
generates token sequences under those constraints, and both are optimized
jointly against a scripted shop environment with a ranking-based planner
reward, a judged responder reward, and a turn-weighted joint reward.
"""

from .core import (
    BusinessContext,
    CsaState,
    ExpertState,
    MILESTONE_NAMES,
    MilestoneRecord,
    Response,
    RewardBreakdown,
    Skill,
    SkillSequence,
    Trajectory,
    TurnRecord,
)
from .metrics import MetricReport, TseConfig, aggregate, bleu, gre, tse
from .rewards import (
    RewardConfig,
    csa_reward,
    dcg,
    esndcg,
    idcg,
    joint_reward,
    joint_weights,
    relevance,
)
from .simenv import ConfigError, DialogueEnv, EnvConfig

__version__ = "0.1.0"

__all__ = [
    "BusinessContext",
    "ConfigError",
    "CsaState",
    "DialogueEnv",
    "EnvConfig",
    "ExpertState",
    "MILESTONE_NAMES",
    "MetricReport",
    "MilestoneRecord",
    "Response",
    "RewardBreakdown",
    "RewardConfig",
    "Skill",
    "SkillSequence",
    "Trajectory",
    "TseConfig",
    "TurnRecord",
    "aggregate",
    "bleu",
    "csa_reward",
    "dcg",
    "esndcg",
    "gre",
    "idcg",
    "joint_reward",
    "joint_weights",
    "relevance",
    "tse",
    "__version__",
]
