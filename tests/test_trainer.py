import dataclasses
import json

import numpy as np
import pytest

from gopo.agents import CsaPolicy, ExpertPolicy, FeatureSpec, critic_value, expert_rows
from gopo.core import (
    BusinessContext,
    CsaState,
    ExpertState,
    MilestoneRecord,
    Response,
    RewardBreakdown,
    Trajectory,
    TurnRecord,
    read_trajectories,
    trajectory_to_json,
)
from gopo.metrics import METRIC_CSV_HEADER
from gopo.neural import load_checkpoint
from gopo.simenv import ConfigError, DialogueEnv
from gopo.trainer import (
    CURVES_CSV_HEADER,
    GlobalConfig,
    TrainingDiverged,
    ablate,
    build_policies,
    compute_advantages,
    episode_gradients,
    load_checkpoints,
    responder_coefficients,
    rollout,
    train,
)
from conftest import DEFAULT_CFG
from oracles import oracle_discounted_returns, validate_trajectory

REWARD_CFG = DEFAULT_CFG.reward


def tiny_train_cfg(**overrides):
    base = dict(
        episodes=24,
        batch_size=8,
        critic_warmup=1,
        eval_every=100,
        eval_episodes=6,
        hidden_size=16,
        seed=3,
    )
    base.update(overrides)
    return dataclasses.replace(DEFAULT_CFG.train, **base)


def global_cfg(train_cfg, env_cfg, out_dir, reward_cfg=REWARD_CFG):
    return GlobalConfig(env_cfg, reward_cfg, DEFAULT_CFG.tse, train_cfg, str(out_dir))


@pytest.fixture
def tiny_world(tiny_env_cfg):
    spec = FeatureSpec.from_env_config(tiny_env_cfg)
    env = DialogueEnv(tiny_env_cfg)
    expert = ExpertPolicy(spec, hidden=16, entropy_coeff=0.01, seed=0)
    csa = CsaPolicy(spec, hidden=16, loss_weights=(1.0, 0.5, 0.01), seed=1)
    return env, expert, csa


class TestTrainConfig:
    def test_variant_validated(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CFG.train, variant="both")

    def test_discount_range(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CFG.train, discount=0.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CFG.train, discount=1.0001)

    def test_positive_learning_rates(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CFG.train, lr_csa=0.0)

    def test_zero_loss_weights_valid(self):
        # negative weights are rejected (tests/test_cli.py); zero switches a
        # term off and stays valid
        names = ("lambda_pg", "lambda_skill", "lambda_diversity", "entropy_coeff")
        cfg = dataclasses.replace(DEFAULT_CFG.train, **dict.fromkeys(names, 0.0))
        assert [getattr(cfg, name) for name in names] == [0.0] * 4


class TestPolicies:
    @pytest.mark.parametrize("variant, has_planner", [
        ("full", True), ("no-expert", False), ("untrained", True),
    ])
    def test_variant_decides_the_planner(self, tiny_env_cfg, variant, has_planner):
        # hyperparameters unlike any former constructor or config default
        cfg = tiny_train_cfg(
            variant=variant, hidden_size=12, entropy_coeff=0.03,
            lambda_pg=0.7, lambda_skill=1.3, lambda_diversity=0.02,
        )
        expert, csa = build_policies(tiny_env_cfg, cfg)
        assert (expert is not None) == has_planner
        if has_planner:
            assert expert.actor.layer_sizes[1] == expert.critic.layer_sizes[1] == 12
            assert expert.entropy_coeff == 0.03
        assert csa.generator.layer_sizes[1] == 12
        assert (csa.lambda_pg, csa.lambda_skill, csa.lambda_div) == (0.7, 1.3, 0.02)

    @pytest.mark.parametrize("variant", ["full", "no-expert", "untrained"])
    def test_checkpoints_round_trip(self, tiny_env_cfg, tmp_path, variant):
        cfg = tiny_train_cfg(variant=variant, episodes=16, eval_every=1)
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run"))
        ckpts = tmp_path / "run" / "checkpoints"
        expert, csa = build_policies(tiny_env_cfg, dataclasses.replace(cfg, seed=11))
        step = load_checkpoints(ckpts, expert, csa)
        assert step == (0 if variant == "untrained" else 2)
        nets = {"csa": csa.generator}
        if expert is not None:
            nets.update(expert=expert.actor, critic=expert.critic)
        assert {p.name for p in ckpts.glob(f"*-{step}.ckpt")} == {
            f"{name}-{step}.ckpt" for name in nets
        }
        for name, net in nets.items():
            saved, _ = load_checkpoint(ckpts / f"{name}-{step}.ckpt")
            assert np.array_equal(net.get_params(), saved.get_params())

    def test_missing_directory_names_it(self, tiny_env_cfg, tmp_path):
        expert, csa = build_policies(tiny_env_cfg, tiny_train_cfg())
        with pytest.raises(ConfigError, match="absent"):
            load_checkpoints(tmp_path / "absent", expert, csa)


class TestRollout:
    def test_deterministic_given_seed(self, tiny_world):
        env, expert, csa = tiny_world
        a = rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(9), env_seed=5)
        b = rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(9), env_seed=5)
        assert trajectory_to_json(a) == trajectory_to_json(b)

    def test_logged_joint_recomputes_from_parts(self, tiny_world, tiny_env_cfg):
        env, expert, csa = tiny_world
        traj = rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(2), env_seed=7)
        for t in traj.turns:
            r = t.reward
            assert r.joint == r.w_expert * r.r_expert + r.w_csa * r.r_csa
        assert validate_trajectory(traj, len(tiny_env_cfg.skill_pool), tiny_env_cfg.horizon) is None

    def test_no_expert_rollout(self, tiny_world, tiny_env_cfg):
        env, _, csa = tiny_world
        traj = rollout(env, None, csa, REWARD_CFG, np.random.default_rng(0), env_seed=1)
        assert all(t.reward.r_expert == 0.0 for t in traj.turns)
        assert all(t.csa_state.constraint is None for t in traj.turns)
        assert validate_trajectory(
            traj, len(tiny_env_cfg.skill_pool), tiny_env_cfg.horizon
        ) is None

    @pytest.mark.parametrize("with_planner", [True, False])
    def test_greedy_rollouts_are_valid(self, tiny_world, tiny_env_cfg, with_planner):
        env, expert, csa = tiny_world
        for seed in range(5):
            traj = rollout(
                env, expert if with_planner else None, csa, REWARD_CFG, None,
                env_seed=seed, greedy=True,
            )
            assert traj.terminal_reason in ("all_milestones", "horizon")
            assert validate_trajectory(
                traj, len(tiny_env_cfg.skill_pool), tiny_env_cfg.horizon
            ) is None

    def test_untrained_policies_still_fully_scored(self, tiny_world):
        env, expert, csa = tiny_world
        traj = rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(1), env_seed=2)
        assert len(traj.turns) >= 1
        for t in traj.turns:
            assert 0.0 <= t.reward.r_expert <= 1.0
            assert 0.0 <= t.reward.r_csa <= 1.0
            assert len(t.reward.dim_scores) == 4

    def test_bounded_rewards_across_seeds(self, tiny_world):
        env, expert, csa = tiny_world
        for seed in range(20):
            traj = rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(seed), env_seed=seed)
            for t in traj.turns:
                assert 0.0 <= t.reward.r_expert <= 1.0
                assert 0.0 <= t.reward.r_csa <= 1.0


class TestAdvantages:
    def _hand_trajectory(self, joints):
        turns = []
        for i, j in enumerate(joints):
            state = ExpertState((), "buy", "calm", None, phase=1, turn=i + 1)
            csa_state = CsaState((0,), None, BusinessContext(0, 0))
            resp = Response((1,), frozenset())
            reward = RewardBreakdown(
                r_expert=j, r_csa=0.0, dim_scores=(0, 0, 0, 0),
                w_expert=1.0, w_csa=1.0, joint=j,
            )
            turns.append(TurnRecord(state, csa_state, resp, reward))
        return Trajectory(0, tuple(turns), MilestoneRecord(), 0, "horizon")

    def test_perfect_critic_gives_zero_advantages(self):
        # a zero critic is exact for an all-zero reward stream, the
        # degenerate Bellman fixed point
        traj = self._hand_trajectory([0.0, 0.0, 0.0])
        _, adv = compute_advantages(traj, np.zeros(3), discount=0.9)
        assert adv == pytest.approx([0, 0, 0])

    def test_zero_critic_single_turn(self):
        traj = self._hand_trajectory([0.7])
        _, adv = compute_advantages(traj, np.zeros(1), discount=0.9)
        assert adv == pytest.approx([0.7])

    def test_zero_critic_matches_hand_bellman(self):
        joints = [0.2, 0.5, 1.0]
        _, adv = compute_advantages(self._hand_trajectory(joints), np.zeros(3), discount=0.9)
        # with a zero critic, TD(0) advantages reduce to the raw rewards
        assert adv == pytest.approx(joints)

    def test_td_identity_against_returns(self):
        # TD(0) advantage with the true value function is zero; emulate by
        # regressing the critic is overkill, so check the algebra instead:
        # advantage = (R_t + g*V') - V for hand-picked V values
        traj = self._hand_trajectory([0.3, 0.6, 0.9])
        g = 0.8
        values = [0.4, -0.25, 0.7, 0.0]
        targets = [traj.turns[i].reward.joint + g * values[i + 1] for i in range(3)]
        expected = [targets[i] - values[i] for i in range(3)]
        got_targets, got_adv = compute_advantages(traj, np.array(values[:3]), g)
        assert got_targets == pytest.approx(targets)
        assert got_adv == pytest.approx(expected)

    def test_one_critic_forward_gives_the_per_turn_values(self, tiny_world):
        env, expert, csa = tiny_world
        expert.critic.set_params(
            np.random.default_rng(5).normal(0, 0.5, expert.critic.n_params)
        )
        for seed in range(5):
            traj = rollout(
                env, expert, csa, REWARD_CFG, np.random.default_rng(seed), env_seed=seed
            )
            states = [t.expert_state for t in traj.turns]
            values = critic_value(expert, expert_rows(expert, states))
            want = np.array([critic_value(expert, expert_rows(expert, [s]))[0] for s in states])
            assert np.max(np.abs(values - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
            g = 0.8
            targets, adv = compute_advantages(traj, values, g)
            assert np.array_equal(adv, targets - values)
            joint = [t.reward.joint for t in traj.turns]
            hand = [j + g * v for j, v in zip(joint, list(want[1:]) + [0.0])]
            assert targets == pytest.approx(hand, rel=1e-12, abs=1e-12)

    def test_oracle_discounted_return_consistency(self):
        # the suffix-return oracle ties TD(0) targets together: sum of
        # discounted advantages under a zero critic equals the full return
        joints = [0.1, 0.4, 0.25, 0.8]
        g = 0.7
        returns = oracle_discounted_returns(joints, g)
        assert returns[0] == pytest.approx(sum(j * g**i for i, j in enumerate(joints)))


class TestTrain:
    def test_run_directory_layout(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg()
        report, trajs = train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run"))
        run = tmp_path / "run"
        assert (run / "config.copy").is_file()
        assert (run / "trajectories.jsonl").is_file()
        assert (run / "metrics.csv").is_file()
        assert (run / "curves.csv").is_file()
        assert (run / "final_report.csv").is_file()
        steps = cfg.episodes // cfg.batch_size
        for name in ("expert", "critic", "csa"):
            assert (run / "checkpoints" / f"{name}-{steps}.ckpt").is_file()
        assert report.episodes == len(trajs) == cfg.eval_episodes
        assert (run / "curves.csv").read_text().splitlines()[0] == CURVES_CSV_HEADER
        assert (run / "metrics.csv").read_text().splitlines()[0] == METRIC_CSV_HEADER

    def test_zero_episodes_emits_only_untrained_row(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg(episodes=0)
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run"))
        metrics = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == 2  # header plus the single evaluation row
        assert (tmp_path / "run" / "trajectories.jsonl").read_text() == ""

    def test_untrained_variant_never_updates(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg(variant="untrained", episodes=16)
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run"))
        curves = (tmp_path / "run" / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 1  # header only: no update steps ran

    def test_byte_identical_reruns(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg()
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "a"))
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "b"))
        for name in ("trajectories.jsonl", "metrics.csv", "curves.csv", "final_report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_trajectories(self, tiny_env_cfg, tmp_path):
        train(global_cfg(tiny_train_cfg(seed=3), tiny_env_cfg, tmp_path / "a"))
        train(global_cfg(tiny_train_cfg(seed=4), tiny_env_cfg, tmp_path / "b"))
        assert (
            (tmp_path / "a" / "trajectories.jsonl").read_bytes()
            != (tmp_path / "b" / "trajectories.jsonl").read_bytes()
        )

    def test_weight_schedule_on_training_logs(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg()
        reward_cfg = REWARD_CFG
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run", reward_cfg))
        trajs = read_trajectories(tmp_path / "run" / "trajectories.jsonl")
        assert trajs
        for traj in trajs:
            weights = [t.reward.w_expert for t in traj.turns]
            assert all(b >= a for a, b in zip(weights, weights[1:]))
            assert all(t.reward.w_csa >= reward_cfg.w_csa_floor for t in traj.turns)

    def test_nan_loss_aborts_with_diagnostics(self, tiny_env_cfg, tmp_path, monkeypatch):
        import gopo.trainer as trainer_mod

        def poisoned(policy, state, action, r_a):
            return float("nan"), np.zeros(policy.generator.n_params), {}

        monkeypatch.setattr(trainer_mod, "csa_loss", poisoned)
        with pytest.raises(TrainingDiverged):
            train(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "run"))
        assert (tmp_path / "run" / "diagnostics.json").is_file()

    def test_diagnostics_name_the_first_non_finite_episode(
        self, tiny_env_cfg, tmp_path, monkeypatch
    ):
        import gopo.trainer as trainer_mod

        real = trainer_mod.csa_loss
        calls = []

        def poisoned_third(policy, state, action, r_a):
            # the trainer calls the responder loss once per episode
            calls.append(None)
            total, grad, comps = real(policy, state, action, r_a)
            return (float("nan") if len(calls) >= 3 else total), grad, comps

        monkeypatch.setattr(trainer_mod, "csa_loss", poisoned_third)
        with pytest.raises(TrainingDiverged, match="csa loss in episode 2 at update 0"):
            train(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "run"))

        def strict(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "run" / "diagnostics.json").read_text()
        diag = json.loads(text, parse_constant=strict)
        assert diag["update"] == 0
        assert diag["episode_ids"] == list(range(8))
        assert diag["first_non_finite"] == {"episode_id": 2, "network": "csa"}
        assert diag["mean_loss"]["csa"] is None
        assert np.isfinite(diag["mean_loss"]["expert"])
        assert np.isfinite(diag["mean_loss"]["critic"])


class TestEpisodeGradients:
    def test_responder_coefficients_follow_turn_order(self, tiny_world):
        env, expert, csa = tiny_world
        batch = [
            rollout(env, expert, csa, REWARD_CFG, np.random.default_rng(i), env_seed=i)
            for i in range(3)
        ]
        coeffs, baseline = responder_coefficients(batch, 0.5)
        want, b = [], 0.5
        for traj in batch:
            for turn in traj.turns:
                want.append(turn.reward.r_csa - b)
                b = 0.99 * b + 0.01 * turn.reward.r_csa
        assert [len(c) for c in coeffs] == [len(t.turns) for t in batch]
        assert np.concatenate(coeffs).tolist() == want
        assert baseline == b

    @pytest.mark.parametrize("variant", ["full", "no-expert"])
    def test_batch_makeup_never_changes_an_episode_gradient(
        self, tiny_env_cfg, tmp_path, monkeypatch, variant
    ):
        # one update of 8 episodes: every episode's loss and gradient, as
        # the trainer computed them inside the batch, against the episode
        # computed alone from the same initial policies, bit for bit
        import gopo.trainer as trainer_mod

        seen = []

        def spy(traj, expert, csa, coeffs, discount):
            out = episode_gradients(traj, expert, csa, coeffs, discount)
            seen.append((traj, coeffs.copy(), out))
            return out

        monkeypatch.setattr(trainer_mod, "episode_gradients", spy)
        cfg = tiny_train_cfg(episodes=8, variant=variant)
        train(global_cfg(cfg, tiny_env_cfg, tmp_path / "run"))
        assert len(seen) == 8
        expert, csa = build_policies(tiny_env_cfg, cfg)
        for traj, coeffs, got in seen:
            alone = episode_gradients(traj, expert, csa, coeffs, cfg.discount)
            assert list(alone) == (["csa"] if variant == "no-expert" else ["expert", "critic", "csa"])
            for name, (loss, grad) in alone.items():
                assert got[name][0] == loss
                assert np.array_equal(got[name][1], grad)


class TestAblate:
    def test_three_rows_in_fixed_order(self, tiny_env_cfg, tmp_path):
        rows = ablate(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "ab"))
        assert [r.variant for r in rows] == ["full", "no-expert", "untrained"]
        text = (tmp_path / "ab" / "ablation.csv").read_text().strip().splitlines()
        assert text[0] == METRIC_CSV_HEADER
        assert len(text) == 4

    def test_untrained_rows_identical_across_invocations(self, tiny_env_cfg, tmp_path):
        r1 = ablate(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "a"))
        r2 = ablate(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "b"))
        assert r1[2] == r2[2]

    def test_multi_seed_pools_episodes(self, tiny_env_cfg, tmp_path):
        cfg = tiny_train_cfg(episodes=8)
        rows = ablate(global_cfg(cfg, tiny_env_cfg, tmp_path / "ab"), seeds=[3, 4])
        assert all(r.episodes == 2 * cfg.eval_episodes for r in rows)

    def test_single_seed_row_is_the_run_final_report(self, tiny_env_cfg, tmp_path):
        # one seed pools nothing: each variant's row is its run's final
        # evaluation, aggregated the same way
        rows = ablate(global_cfg(tiny_train_cfg(), tiny_env_cfg, tmp_path / "ab"), seeds=[5])
        for row in rows:
            final = (tmp_path / "ab" / f"{row.variant}-seed5" / "final_report.csv").read_text()
            assert final.splitlines()[1] == row.csv_row()
