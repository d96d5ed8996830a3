"""Acceptance suite: the package's exit criteria, each at its stated
tolerance, printing one PASS line per criterion on success.

The end-to-end criteria share one session-scoped ablation over the packaged
default configuration with three shared seeds; its full-variant seed-0 run
doubles as the convergence and logged-schedule evidence.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gopo.agents import (
    CsaPolicy,
    ExpertPolicy,
    FeatureSpec,
    critic_loss,
    critic_value,
    csa_loss,
    expert_act,
    expert_loss,
    expert_rows,
)
from gopo.core import MilestoneRecord, read_trajectories
from gopo.metrics import TseConfig, bleu, tse
from gopo.rewards import dcg, esndcg, idcg
from gopo.trainer import train
from conftest import make_tiny_env_cfg, random_csa_state, random_expert_state, random_response
from oracles import central_difference_grad, max_rel_error, oracle_dcg, oracle_esndcg

POOL = tuple(range(6))
DISJOINT = tuple(range(6, 11))


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


@pytest.fixture(scope="session")
def ablation(tmp_path_factory, default_cfg):
    """Default-config ablation over three shared seeds; returns the rows,
    the directory, and the wall-clock duration."""
    from gopo.trainer import ablate

    out = tmp_path_factory.mktemp("ablation")
    start = time.monotonic()
    rows = ablate(default_cfg, out, seeds=[0, 1, 2])
    elapsed = time.monotonic() - start
    return rows, out, elapsed


class TestEsndcgOracleEquivalence:
    def test_exhaustive_enumeration_matches_oracle(self):
        start = time.monotonic()
        teachers = [
            t for n in range(1, 5) for t in itertools.permutations(POOL, n)
        ]
        preds = [p for n in range(1, 5) for p in itertools.product(POOL, repeat=n)]
        checked = 0
        for teacher in teachers:
            ideal = idcg(teacher)
            oracle_ideal = oracle_dcg(teacher, teacher)
            for pred in preds:
                got = dcg(pred, teacher) / ideal
                want = oracle_dcg(pred, teacher) / oracle_ideal
                if abs(got - want) > 1e-9:
                    raise AssertionError(
                        f"esndcg mismatch for pred={pred} teacher={teacher}: "
                        f"{got} vs oracle {want}"
                    )
                checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"
        assert checked == 516 * 1554
        _report(f"esndcg-oracle-equivalence ({checked} pairs, {elapsed:.1f}s)")

    def test_dedupe_mode_matches_oracle_on_sample(self):
        rng = np.random.default_rng(0)
        teachers = [
            t for n in range(1, 5) for t in itertools.permutations(POOL, n)
        ]
        for _ in range(20_000):
            teacher = teachers[rng.integers(len(teachers))]
            pred = tuple(rng.integers(0, 6, rng.integers(1, 5)))
            got = esndcg(pred, teacher)
            want = oracle_esndcg(list(pred), list(teacher))
            assert abs(got - want) <= 1e-9
        _report("esndcg-oracle-equivalence-dedupe (20000 sampled pairs)")


class TestEsndcgBoundary:
    def test_identity_is_exactly_one_for_all_teachers(self):
        count = 0
        for n in range(1, 6):
            for teacher in itertools.permutations(POOL, n):
                assert esndcg(teacher, teacher) == 1.0
                count += 1
        assert count == 1236  # sum of P(6, n) for n = 1..5
        _report(f"esndcg-identity-boundary ({count} teachers)")

    def test_disjoint_is_exactly_zero(self):
        for n in range(1, 5):
            for teacher in itertools.permutations(POOL, n):
                for m in range(1, 4):
                    pred = DISJOINT[:m]
                    assert esndcg(pred, teacher) == 0.0
        _report("esndcg-disjoint-boundary")


class TestTseHandCases:
    def test_pinned_cases(self):
        cfg = TseConfig(task_weights=(0.5, 0.3, 0.2), decay=0.9)
        staged = MilestoneRecord(completed=(True, True, True), turns=(2, 4, 6))
        assert abs(tse(staged, cfg) - 0.90) <= 1e-9
        immediate = MilestoneRecord(completed=(True, True, True), turns=(1, 2, 3))
        assert abs(tse(immediate, cfg) - 1.0) <= 1e-9
        assert tse(MilestoneRecord(), cfg) == 0.0
        _report("tse-hand-cases")


@pytest.fixture(scope="module")
def spec():
    return FeatureSpec.from_env_config(make_tiny_env_cfg())


class TestGradientSuite:
    N_INSTANCES = 100
    TOL = 1e-4

    def test_expert_loss_gradients(self, spec):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(self.N_INSTANCES):
            policy = ExpertPolicy(spec, hidden=8, entropy_coeff=float(rng.uniform(0, 0.1)), seed=int(rng.integers(1 << 30)))
            policy.actor.set_params(rng.normal(0, 0.5, policy.actor.n_params))
            state = random_expert_state(spec, rng)
            (action,) = expert_act(policy, state, rng)
            adv = float(rng.normal(0, 1))
            rows = expert_rows(policy, [state])
            _, grad = expert_loss(policy, rows, [action], [adv])

            def f(params):
                policy.actor.set_params(params)
                return expert_loss(policy, rows, [action], [adv])[0]

            fd = central_difference_grad(f, policy.actor.get_params())
            worst = max(worst, max_rel_error(grad, fd))
        assert worst < self.TOL, f"max relative error {worst}"
        _report(
            f"gradient-suite-expert ({self.N_INSTANCES} instances, "
            f"max rel err {worst:.2e}, {time.monotonic() - start:.1f}s)"
        )

    def test_critic_loss_gradients(self, spec):
        rng = np.random.default_rng(202)
        worst = 0.0
        for i in range(self.N_INSTANCES):
            policy = ExpertPolicy(spec, hidden=8, entropy_coeff=0.01, seed=int(rng.integers(1 << 30)))
            policy.critic.set_params(rng.normal(0, 0.5, policy.critic.n_params))
            state = random_expert_state(spec, rng)
            target = float(rng.normal(0, 2))
            rows = expert_rows(policy, [state])
            _, grad = critic_loss(policy, rows, [target], critic_value(policy, rows))

            def f(params):
                policy.critic.set_params(params)
                return critic_loss(policy, rows, [target], critic_value(policy, rows))[0]

            fd = central_difference_grad(f, policy.critic.get_params())
            worst = max(worst, max_rel_error(grad, fd))
        assert worst < self.TOL, f"max relative error {worst}"
        _report(f"gradient-suite-critic ({self.N_INSTANCES} instances, max rel err {worst:.2e})")

    def test_csa_loss_gradients(self, spec):
        start = time.monotonic()
        rng = np.random.default_rng(303)
        worst = 0.0
        for i in range(self.N_INSTANCES):
            weights = (
                float(rng.uniform(0.2, 1.5)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 0.1)),
            )
            policy = CsaPolicy(spec, hidden=8, loss_weights=weights, seed=int(rng.integers(1 << 30)))
            policy.generator.set_params(rng.normal(0, 0.4, policy.generator.n_params))
            state = random_csa_state(spec, rng)
            action = random_response(spec, rng)
            r_a = float(rng.normal(0, 1))
            _, grad, _ = csa_loss(policy, [state], [action], [r_a])

            def f(params):
                policy.generator.set_params(params)
                return csa_loss(policy, [state], [action], [r_a])[0]

            fd = central_difference_grad(f, policy.generator.get_params())
            worst = max(worst, max_rel_error(grad, fd))
        elapsed = time.monotonic() - start
        assert worst < self.TOL, f"max relative error {worst}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        _report(
            f"gradient-suite-csa ({self.N_INSTANCES} instances, "
            f"max rel err {worst:.2e}, {elapsed:.1f}s)"
        )


class TestWeightScheduleOnLogs:
    def test_logged_weights_monotone_and_floored(self, ablation, default_cfg):
        _, out, _ = ablation
        cfg = default_cfg
        log_path = out / "full-seed0" / "trajectories.jsonl"
        trajs = read_trajectories(log_path)
        assert len(trajs) == cfg.train.episodes
        for traj in trajs:
            weights = [t.reward.w_expert for t in traj.turns]
            assert all(b >= a for a, b in zip(weights, weights[1:])), (
                f"w_expert not monotone in episode {traj.episode_id}"
            )
            for t in traj.turns:
                assert t.reward.w_csa >= cfg.reward.w_csa_floor
        _report(f"weight-schedule-on-logs ({len(trajs)} episodes)")


class TestAblationOrdering:
    def test_table_ordering_and_gap(self, ablation):
        rows, _, elapsed = ablation
        by_variant = {r.variant: r for r in rows}
        full = by_variant["full"].tse_mean
        no_expert = by_variant["no-expert"].tse_mean
        untrained = by_variant["untrained"].tse_mean
        assert full > no_expert > untrained, (
            f"ordering violated: full={full:.4f} no-expert={no_expert:.4f} "
            f"untrained={untrained:.4f}"
        )
        assert full - untrained >= 0.15, f"gap {full - untrained:.4f} < 0.15"
        assert elapsed < 900.0, f"ablation took {elapsed:.0f}s"
        _report(
            "ablation-ordering (TSE full "
            f"{full:.3f} > no-expert {no_expert:.3f} > untrained {untrained:.3f}, "
            f"{elapsed:.0f}s)"
        )


class TestConvergence:
    def _joint_series(self, ablation):
        _, out, _ = ablation
        lines = (out / "full-seed0" / "curves.csv").read_text().strip().splitlines()[1:]
        return np.array([float(line.split(",")[1]) for line in lines])

    def test_final_quartile_exceeds_first_by_20_percent(self, ablation):
        joint = self._joint_series(ablation)
        q = len(joint) // 4
        first, last = joint[:q].mean(), joint[-q:].mean()
        assert last >= 1.2 * first, f"first quartile {first:.4f}, last {last:.4f}"
        _report(
            f"convergence (first-quartile joint {first:.3f} -> last {last:.3f}, "
            f"{last / first:.2f}x)"
        )

    def test_final_quartile_non_decreasing_within_band(self, ablation):
        # the plot series stays level at convergence: consecutive thirds of
        # the final quartile never drop by more than the tolerance band
        joint = self._joint_series(ablation)
        q = len(joint) // 4
        chunk_means = [c.mean() for c in np.array_split(joint[-q:], 3)]
        for a, b in zip(chunk_means, chunk_means[1:]):
            assert b >= a - 0.02, f"final-quartile drop: {a:.4f} -> {b:.4f}"
        _report("report-series-band (final quartile level within 0.02)")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, default_cfg):
        import dataclasses

        cfg = default_cfg
        train_cfg = dataclasses.replace(
            cfg.train, episodes=64, eval_episodes=20, critic_warmup=2, eval_every=4
        )
        for name in ("a", "b"):
            train(dataclasses.replace(cfg, train=train_cfg), tmp_path / name)
        for fname in ("trajectories.jsonl", "metrics.csv"):
            assert (
                (tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()
            ), f"{fname} differs between identical runs"
        _report("determinism (byte-identical trajectories.jsonl and metrics.csv)")


class TestBleuSanity:
    def test_identity_on_corpora(self):
        rng = np.random.default_rng(7)
        corpora = [
            [(1, 2, 3), (4, 5, 6, 7)],
            [(9,)],
            [tuple(int(t) for t in rng.integers(0, 50, rng.integers(1, 12))) for _ in range(25)],
        ]
        for corpus in corpora:
            assert bleu(corpus, corpus) == pytest.approx(1.0, abs=1e-12)

    def test_hand_counted_example_matches_oracle(self):
        # p1 = 3/4, p2 = 2/3 by hand count; no smoothing fires
        expected = math.exp(0.5 * math.log(3 / 4) + 0.5 * math.log(2 / 3))
        got = bleu([(0, 1, 2, 3)], [(0, 1, 2, 4)], max_n=2)
        assert abs(got - expected) <= 1e-9
        _report("bleu-sanity")
