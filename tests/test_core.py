import dataclasses
import json

import pytest

from gopo.core import (
    BusinessContext,
    CsaState,
    ExpertState,
    MilestoneRecord,
    Response,
    RewardBreakdown,
    Skill,
    SkillSequence,
    Trajectory,
    TurnRecord,
    response_markers,
    trajectory_from_json,
    trajectory_to_json,
)
from conftest import make_reward
from oracles import validate_trajectory


def _breakdown(r_e=0.5, r_a=0.8, w=(0.3, 0.7)):
    return make_reward(r_e, r_a, (1.0, 0.5, 0.25, 0.75), w)


def _turn(skills=(1, 2), phase=1, turn=1, intent="inquire", emotion="calm", reward=None):
    seq = SkillSequence(tuple(skills)) if skills else None
    state = ExpertState(
        history=(), intent=intent, emotion=emotion, prev_skills=None, phase=phase, turn=turn
    )
    csa = CsaState(utterance=(1, 2), constraint=seq, business_ctx=BusinessContext(0, 1))
    resp = Response(tokens=(3, 4, 3), markers=frozenset({3, 4}))
    return TurnRecord(state, csa, resp, reward or _breakdown())


def _trajectory(turns=(), milestones=None, episode_id=7, seed=123):
    return Trajectory(
        episode_id=episode_id,
        turns=tuple(turns),
        milestones=milestones or MilestoneRecord(),
        seed=seed,
        terminal_reason="horizon",
    )


class TestInvariants:
    def test_skill_requires_markers(self):
        with pytest.raises(ValueError):
            Skill("empty", frozenset())

    def test_skill_sequence_length_cap(self):
        with pytest.raises(ValueError):
            SkillSequence(())
        with pytest.raises(ValueError):
            SkillSequence((1, 2, 3, 4, 5, 6))
        assert len(SkillSequence((1, 2, 3, 4, 5))) == 5

    def test_response_non_empty(self):
        with pytest.raises(ValueError):
            Response(tokens=(), markers=frozenset())

    def test_reward_weights_positive(self):
        with pytest.raises(ValueError):
            RewardBreakdown(0.5, 0.5, (0, 0, 0, 0), w_expert=0.5, w_csa=0.0, joint=0.25)

    def test_build_joint_is_consistent(self):
        r = _breakdown(0.25, 0.75, (0.4, 0.6))
        assert r.joint == 0.4 * 0.25 + 0.6 * 0.75


class TestValidateTrajectory:
    def test_empty_trajectory_ok(self):
        assert validate_trajectory(_trajectory(), pool_size=12, horizon=12) is None

    def test_milestone_order_violation(self):
        bad = MilestoneRecord(completed=(True, True, False), turns=(4, 2, None))
        err = validate_trajectory(_trajectory(milestones=bad), 12, 12)
        assert err is not None and "milestone order" in err

    def test_skill_id_range_violation(self):
        traj = _trajectory(turns=[_turn(skills=(12,))])
        err = validate_trajectory(traj, pool_size=12, horizon=12)
        assert err is not None and "skill id range" in err

    def test_turn_defined_iff_completed(self):
        bad = MilestoneRecord(completed=(False, False, False), turns=(3, None, None))
        err = validate_trajectory(_trajectory(milestones=bad), 12, 12)
        assert err is not None and "iff" in err

    def test_horizon_violation(self):
        traj = _trajectory(turns=[_turn(turn=i + 1) for i in range(3)])
        assert validate_trajectory(traj, 12, horizon=2) is not None

    def test_joint_inconsistency_detected(self):
        bad = RewardBreakdown(
            r_expert=0.5, r_csa=0.5, dim_scores=(0, 0, 0, 0),
            w_expert=0.5, w_csa=0.5, joint=0.9,
        )
        traj = _trajectory(turns=[_turn(reward=bad)])
        err = validate_trajectory(traj, 12, 12)
        assert err is not None and "joint" in err

    def test_valid_full_trajectory(self):
        ms = MilestoneRecord(completed=(True, True, False), turns=(1, 3, None))
        traj = _trajectory(turns=[_turn(turn=i + 1) for i in range(4)], milestones=ms)
        assert validate_trajectory(traj, 12, 12) is None


class TestSerialization:
    def test_jsonl_field_names_are_normative(self):
        traj = _trajectory(
            turns=[_turn()],
            milestones=MilestoneRecord(completed=(True, False, False), turns=(1, None, None)),
        )
        rec = json.loads(trajectory_to_json(traj))
        assert list(rec) == ["episode_id", "seed", "turns", "milestones", "terminal_reason"]
        assert list(rec["turns"][0]) == [
            "turn", "intent", "emotion", "skills", "response_tokens",
            "r_expert", "r_csa", "dim_scores", "w_expert", "w_csa", "joint",
        ]
        assert list(rec["milestones"]) == ["completed", "turns"]

    def test_encode_decode_encode_is_identity_bytewise(self):
        ms = MilestoneRecord(completed=(True, False, False), turns=(2, None, None))
        traj = _trajectory(
            turns=[_turn(turn=1), _turn(skills=(), turn=2), _turn(turn=3)],
            milestones=ms,
        )
        line = trajectory_to_json(traj)
        assert trajectory_to_json(trajectory_from_json(line)) == line

    def test_decode_reconstructs_scored_fields(self):
        ms = MilestoneRecord(completed=(True, True, False), turns=(1, 2, None))
        traj = _trajectory(turns=[_turn(turn=i + 1, phase=min(i + 1, 3)) for i in range(3)], milestones=ms)
        back = trajectory_from_json(trajectory_to_json(traj))
        assert back.episode_id == traj.episode_id
        assert back.seed == traj.seed
        assert back.milestones == traj.milestones
        assert len(back.turns) == 3
        for a, b in zip(back.turns, traj.turns):
            assert a.reward == b.reward
            assert a.response.tokens == b.response.tokens
            assert a.csa_state.constraint == b.csa_state.constraint
            assert a.expert_state.intent == b.expert_state.intent
        # phase is rebuilt from the milestone record
        assert [t.expert_state.phase for t in back.turns] == [1, 2, 3]

    def test_null_skills_round_trip(self):
        traj = _trajectory(turns=[_turn(skills=())])
        back = trajectory_from_json(trajectory_to_json(traj))
        assert back.turns[0].csa_state.constraint is None


class TestValueSemantics:
    def test_frozen_types_reject_mutation(self):
        for obj in (
            SkillSequence((1,)),
            Response(tokens=(1,), markers=frozenset()),
            _breakdown(),
            MilestoneRecord(),
            _trajectory(),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                object_field = dataclasses.fields(obj)[0].name
                setattr(obj, object_field, None)

    def test_replace_copies_do_not_alias(self):
        original = _trajectory(turns=[_turn()])
        copy = dataclasses.replace(original, episode_id=99)
        assert copy.episode_id == 99
        assert original.episode_id == 7
        assert copy.turns == original.turns

    def test_response_markers_helper(self):
        tm = (frozenset({0}), frozenset({1, 2}), frozenset())
        assert response_markers((0, 1, 2, 1), tm) == frozenset({0, 1, 2})


class TestTurnSummaryAndStates:
    def test_expert_state_positional_invariants(self):
        for phase in (0, 4):
            with pytest.raises(ValueError):
                ExpertState((), "a", "b", None, phase=phase, turn=1)
        with pytest.raises(ValueError):
            ExpertState((), "a", "b", None, phase=1, turn=0)

    def test_business_context_ranges(self):
        with pytest.raises(ValueError):
            BusinessContext(order_status=3, stock_level=0)
