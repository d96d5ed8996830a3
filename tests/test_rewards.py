import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gopo.rewards import (
    csa_reward,
    dcg,
    esndcg,
    idcg,
    joint_reward,
    joint_weights,
    relevance,
)
from conftest import DEFAULT_CFG
from oracles import oracle_dcg, oracle_esndcg

REWARD_CFG = DEFAULT_CFG.reward

A, B, C, D, E = 0, 1, 2, 3, 4


class TestRelevance:
    def test_first_position(self):
        assert relevance(A, [A, B, C]) == 3

    def test_second_position(self):
        assert relevance(B, [A, B, C]) == 2

    def test_absent_skill(self):
        assert relevance(D, [A, B, C]) == 0

    def test_first_occurrence_wins(self):
        assert relevance(A, [A, B, A]) == 3

    def test_teacher_cap_enforced(self):
        with pytest.raises(ValueError):
            relevance(A, [A, B, C, D, E, 5])


class TestDcg:
    def test_hand_case(self):
        assert dcg([B, A], [A, B, C]) == pytest.approx(7.416508275000202, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert dcg([D, E], [A, B, C]) == 0.0

    def test_dedupe_zeroes_repeats(self):
        assert dcg([A, A], [A]) == pytest.approx(1.0, abs=1e-12)

    def test_idcg_hand_case(self):
        assert idcg([A, B, C]) == pytest.approx(9.392789260714371, abs=1e-12)


class TestEsndcg:
    def test_identity_is_exactly_one(self):
        assert esndcg([A, B, C], [A, B, C]) == 1.0

    def test_disjoint_is_zero(self):
        assert esndcg([D, E], [A, B, C]) == 0.0

    def test_hand_case(self):
        assert esndcg([B, A], [A, B, C]) == pytest.approx(0.78960, abs=1e-5)

    def test_oracle_spot_agreement(self):
        for pred in ([A], [B, C], [C, B, A], [A, A, B], [D], [A, B, C, D]):
            assert esndcg(pred, [A, B, C]) == pytest.approx(
                oracle_esndcg(pred, [A, B, C]), abs=1e-12
            )


@st.composite
def teacher_and_pred(draw):
    pool = list(range(6))
    n = draw(st.integers(1, 4))
    teacher = draw(st.permutations(pool))[:n]
    pred = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=4))
    return list(teacher), pred


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(teacher_and_pred())
    def test_esndcg_bounds_with_dedupe(self, tp):
        teacher, pred = tp
        v = esndcg(pred, teacher)
        assert -1e-12 <= v <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(teacher_and_pred())
    def test_unity_iff_teacher_prefix(self, tp):
        teacher, pred = tp
        v = esndcg(pred, teacher)
        if pred[: len(teacher)] == teacher:
            assert v == pytest.approx(1.0, abs=1e-12)
        else:
            assert v < 1.0 - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(teacher_and_pred(), st.data())
    def test_swap_toward_relevance_never_decreases_dcg(self, tp, data):
        teacher, pred = tp
        pred = list(dict.fromkeys(pred))  # distinct predictions
        if len(pred) < 2:
            return
        i = data.draw(st.integers(0, len(pred) - 2))
        j = data.draw(st.integers(i + 1, len(pred) - 1))
        before = dcg(pred, teacher)
        if relevance(pred[j], teacher) > relevance(pred[i], teacher):
            pred[i], pred[j] = pred[j], pred[i]
            assert dcg(pred, teacher) >= before - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_weight_schedule_monotone_and_floored(self, t, horizon):
        cfg = dataclasses.replace(
            REWARD_CFG, w_expert_min=0.2, w_expert_max=0.8, w_csa_floor=0.05
        )
        if t > horizon:
            with pytest.raises(ValueError):
                joint_weights(t, horizon, cfg)
            return
        w_e, w_a = joint_weights(t, horizon, cfg)
        assert w_a >= cfg.w_csa_floor
        if t < horizon:
            w_e_next, _ = joint_weights(t + 1, horizon, cfg)
            assert w_e_next >= w_e - 1e-15


class TestCsaReward:
    def test_all_ones(self):
        assert csa_reward((1, 1, 1, 1), REWARD_CFG) == pytest.approx(1.0)

    def test_all_zeros(self):
        cfg = dataclasses.replace(REWARD_CFG, dim_weights=(0.1, 0.2, 0.3, 0.4))
        assert csa_reward((0, 0, 0, 0), cfg) == 0.0

    def test_hand_case(self):
        assert csa_reward((0.8, 0.6, 1.0, 0.4), REWARD_CFG) == pytest.approx(0.7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            csa_reward((1.2, 0, 0, 0), REWARD_CFG)
        with pytest.raises(ValueError):
            csa_reward((-0.1, 0, 0, 0), REWARD_CFG)


class TestJointSchedule:
    def test_first_turn(self):
        cfg = dataclasses.replace(REWARD_CFG, w_expert_min=0.2, w_expert_max=0.8)
        assert joint_weights(1, 10, cfg) == pytest.approx((0.2, 0.8))

    def test_last_turn(self):
        cfg = dataclasses.replace(REWARD_CFG, w_expert_min=0.2, w_expert_max=0.8)
        assert joint_weights(10, 10, cfg) == pytest.approx((0.8, 0.2))

    def test_midpoint(self):
        cfg = dataclasses.replace(REWARD_CFG, w_expert_min=0.2, w_expert_max=0.8)
        assert joint_weights(5, 9, cfg) == pytest.approx((0.5, 0.5))

    def test_single_turn_horizon(self):
        cfg = dataclasses.replace(REWARD_CFG, w_expert_min=0.3, w_expert_max=0.9)
        w_e, w_a = joint_weights(1, 1, cfg)
        assert w_e == pytest.approx(0.3)

    def test_floor_engages(self):
        cfg = dataclasses.replace(
            REWARD_CFG, w_expert_min=0.2, w_expert_max=0.99, w_csa_floor=0.05
        )
        _, w_a = joint_weights(100, 100, cfg)
        assert w_a == pytest.approx(0.05)


class TestJointReward:
    def test_hand_case(self):
        assert joint_reward(0.5, 1.0, (0.3, 0.7)) == pytest.approx(0.85)

    def test_zero(self):
        assert joint_reward(0.0, 0.0, (0.4, 0.6)) == 0.0

    def test_convex_identity(self):
        assert joint_reward(1.0, 1.0, (0.35, 0.65)) == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            joint_reward(float("nan"), 0.0, (0.5, 0.5))


class TestRewardConfig:
    def test_dim_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REWARD_CFG, dim_weights=(0.3, 0.3, 0.3, 0.3))

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REWARD_CFG, w_expert_min=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(REWARD_CFG, w_expert_min=0.6, w_expert_max=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(REWARD_CFG, w_csa_floor=0.0)
