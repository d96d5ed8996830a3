import math

import numpy as np
import pytest

from gopo.agents import (
    CsaPolicy,
    ExpertPolicy,
    FeatureSpec,
    critic_loss,
    critic_value,
    csa_act,
    csa_loss,
    expert_act,
    expert_loss,
)
from gopo.core import BusinessContext, CsaState, SkillSequence
from gopo.neural import AdamState, adam_step
from conftest import random_csa_state, random_expert_state, random_response
from oracles import (
    central_difference_grad,
    max_rel_error,
    oracle_csa_loss,
    oracle_expert_loss,
    scaled_diff,
)


@pytest.fixture(scope="module")
def spec(tiny_env_cfg):
    return FeatureSpec.from_env_config(tiny_env_cfg)


def _expert(spec, seed=0, entropy_coeff=0.01, zero=False):
    p = ExpertPolicy(spec, hidden=8, entropy_coeff=entropy_coeff, seed=seed)
    if zero:
        p.actor.set_params(np.zeros(p.actor.n_params))
        p.critic.set_params(np.zeros(p.critic.n_params))
    return p


def _csa(spec, seed=0, weights=(1.0, 0.5, 0.01), zero=False):
    p = CsaPolicy(spec, hidden=8, loss_weights=weights, seed=seed)
    if zero:
        p.generator.set_params(np.zeros(p.generator.n_params))
    return p


class TestExpertAct:
    def test_uniform_first_slot_entropy_is_ln5(self, spec):
        # 4 skills + STOP: the raw per-slot distribution is uniform over 5
        policy = _expert(spec, zero=True)
        state = random_expert_state(spec, np.random.default_rng(0))
        seq, _, entropy = expert_act(policy, state, np.random.default_rng(1))
        slots = len(seq) + (1 if len(seq) < 5 else 0)
        assert entropy == pytest.approx(slots * math.log(5), abs=1e-9)

    def test_greedy_is_deterministic_and_rng_free(self, spec):
        policy = _expert(spec, seed=4)
        state = random_expert_state(spec, np.random.default_rng(2))
        a1, lp1, e1 = expert_act(policy, state, None, greedy=True)
        a2, lp2, e2 = expert_act(policy, state, np.random.default_rng(99), greedy=True)
        assert a1 == a2 and lp1 == lp2 and e1 == e2

    def test_length_cap_over_many_draws(self, spec):
        policy = _expert(spec, seed=5)
        rng = np.random.default_rng(3)
        state = random_expert_state(spec, rng)
        for _ in range(10_000):
            seq, _, _ = expert_act(policy, state, rng)
            assert 1 <= len(seq) <= 5

    def test_log_prob_matches_loss_recomputation(self, spec):
        policy = _expert(spec, seed=6, entropy_coeff=0.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_expert_state(spec, rng)
            action, log_prob, _ = expert_act(policy, state, rng)
            loss, _ = expert_loss(policy, state, action, advantage=1.0)
            assert loss == pytest.approx(-log_prob, abs=1e-12)


class TestExpertLoss:
    def test_zero_advantage_zero_entropy_coeff(self, spec):
        policy = _expert(spec, seed=7, entropy_coeff=0.0)
        state = random_expert_state(spec, np.random.default_rng(5))
        loss, grad = expert_loss(policy, state, SkillSequence((1, 2)), advantage=0.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_positive_advantage_step_raises_log_prob(self, spec):
        policy = _expert(spec, seed=8, entropy_coeff=0.0)
        rng = np.random.default_rng(6)
        state = random_expert_state(spec, rng)
        action, log_prob_before, _ = expert_act(policy, state, rng)
        _, grad = expert_loss(policy, state, action, advantage=1.0)
        policy.actor.set_params(policy.actor.get_params() - 1e-3 * grad)
        _, log_prob_after, _ = expert_loss_log_prob(policy, state, action)
        assert log_prob_after > log_prob_before

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(7)
        for trial in range(5):
            policy = _expert(spec, seed=20 + trial, entropy_coeff=0.05)
            policy.actor.set_params(rng.normal(0, 0.4, policy.actor.n_params))
            state = random_expert_state(spec, rng)
            action, _, _ = expert_act(policy, state, rng)
            adv = float(rng.normal(0, 1))
            _, grad = expert_loss(policy, state, action, adv)

            def f(params):
                old = policy.actor.get_params()
                policy.actor.set_params(params)
                val = expert_loss(policy, state, action, adv)[0]
                policy.actor.set_params(old)
                return val

            fd = central_difference_grad(f, policy.actor.get_params())
            assert max_rel_error(grad, fd) < 1e-4

    def test_logit_shift_invariance(self, spec):
        policy = _expert(spec, seed=9)
        state = random_expert_state(spec, np.random.default_rng(8))
        action, lp, ent = expert_act(policy, state, None, greedy=True)
        loss, _ = expert_loss(policy, state, action, advantage=0.7)
        # add a constant to every output logit via the last-layer bias
        policy.actor.biases[-1] = policy.actor.biases[-1] + 3.7
        action2, lp2, ent2 = expert_act(policy, state, None, greedy=True)
        loss2, _ = expert_loss(policy, state, action2, advantage=0.7)
        assert action2 == action
        assert lp2 == pytest.approx(lp, abs=1e-9)
        assert ent2 == pytest.approx(ent, abs=1e-9)
        assert loss2 == pytest.approx(loss, abs=1e-9)


def expert_loss_log_prob(policy, state, action):
    """log pi(action|state) recomputed via the entropy-free loss."""
    saved = policy.entropy_coeff
    policy.entropy_coeff = 0.0
    try:
        loss, _ = expert_loss(policy, state, action, advantage=1.0)
    finally:
        policy.entropy_coeff = saved
    return action, -loss, None


class TestCritic:
    def test_zero_weight_value_is_zero(self, spec):
        policy = _expert(spec, zero=True)
        state = random_expert_state(spec, np.random.default_rng(9))
        assert critic_value(policy, state) == 0.0

    def test_target_equal_value_gives_zero_loss(self, spec):
        policy = _expert(spec, seed=10)
        state = random_expert_state(spec, np.random.default_rng(10))
        v = critic_value(policy, state)
        loss, grad = critic_loss(policy, state, target=v)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        policy = _expert(spec, seed=11)
        state = random_expert_state(spec, rng)
        _, grad = critic_loss(policy, state, target=0.37)

        def f(params):
            old = policy.critic.get_params()
            policy.critic.set_params(params)
            val = critic_loss(policy, state, 0.37)[0]
            policy.critic.set_params(old)
            return val

        fd = central_difference_grad(f, policy.critic.get_params())
        assert max_rel_error(grad, fd) < 1e-4


class TestCsaAct:
    def test_uniform_per_token_entropy(self, spec):
        policy = _csa(spec, zero=True)
        state = random_csa_state(spec, np.random.default_rng(12))
        _, _, entropies = csa_act(policy, state, np.random.default_rng(13))
        expected = math.log(spec.vocab_size + 1)
        assert all(e == pytest.approx(expected, abs=1e-9) for e in entropies)

    def test_greedy_deterministic(self, spec):
        policy = _csa(spec, seed=14)
        state = random_csa_state(spec, np.random.default_rng(14))
        r1, lp1, _ = csa_act(policy, state, None, greedy=True)
        r2, lp2, _ = csa_act(policy, state, np.random.default_rng(5), greedy=True)
        assert r1 == r2 and lp1 == lp2

    def test_length_cap(self, spec):
        policy = _csa(spec, seed=15)
        rng = np.random.default_rng(15)
        for _ in range(500):
            state = random_csa_state(spec, rng)
            resp, _, _ = csa_act(policy, state, rng)
            assert 1 <= len(resp.tokens) <= spec.max_response_len

    def test_markers_consistent_with_tokens(self, spec):
        from gopo.core import response_markers

        policy = _csa(spec, seed=16)
        rng = np.random.default_rng(16)
        state = random_csa_state(spec, rng)
        resp, _, _ = csa_act(policy, state, rng)
        assert resp.markers == response_markers(resp.tokens, spec.token_markers)


class TestCsaLoss:
    def test_all_terms_vanish(self, spec):
        policy = _csa(spec, weights=(1.0, 0.0, 0.0), seed=17)
        rng = np.random.default_rng(17)
        state = random_csa_state(spec, rng)
        resp = random_response(spec, rng)
        loss, grad, comps = csa_loss(policy, state, resp, r_a=0.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_near_deterministic_distributions_have_no_entropy(self, spec):
        policy = _csa(spec, weights=(0.0, 0.0, 1.0), seed=18)
        # huge bias on one token makes every step's distribution one-hot
        policy.generator.set_params(np.zeros(policy.generator.n_params))
        policy.generator.biases[-1][3] = 60.0
        state = random_csa_state(spec, np.random.default_rng(18))
        resp, _, _ = csa_act(policy, state, None, greedy=True)
        _, _, comps = csa_loss(policy, state, resp, r_a=0.0)
        assert abs(comps["L_d"]) < 1e-4

    def test_coverage_bounds(self, spec):
        state = CsaState(
            utterance=(0,),
            constraint=SkillSequence((0,)),  # required markers {0, 5}
            business_ctx=BusinessContext(0, 0),
        )
        policy = _csa(spec, zero=True)
        # concentrate all mass on a token carrying marker 0 and one carrying 5
        policy.generator.biases[-1][0] = 60.0  # token 0 carries marker 0
        from gopo.core import Response

        resp = Response(tokens=(0, 5), markers=frozenset({0, 5}))
        # token 5 carries marker 5 in the tiny config
        _, _, comps = csa_loss(policy, state, resp, r_a=0.0)
        assert 0.0 <= comps["L_s"] <= 1.0

    def test_full_expected_coverage_gives_zero_distance(self, spec):
        # alternate huge biases so step parity picks carriers of both markers
        policy = _csa(spec, weights=(0.0, 1.0, 0.0), seed=19)
        policy.generator.set_params(np.zeros(policy.generator.n_params))
        # prev-token feature flips the favored output between carriers 0 and 5
        d = spec.csa_dim
        w_in = policy.generator.weights[0]
        # bias output towards token 0 always; towards token 5 when prev == 0
        policy.generator.biases[-1][0] = 30.0
        state = CsaState((0,), SkillSequence((0,)), BusinessContext(0, 0))
        from gopo.core import Response

        resp = Response(tokens=(0, 5), markers=frozenset({0, 5}))
        _, _, comps = csa_loss(policy, state, resp, r_a=0.0)
        # step distributions put ~all mass on token 0 (marker 0): marker 5
        # stays uncovered, so the distance is the mean of one covered and one
        # uncovered marker
        assert comps["L_s"] == pytest.approx(0.5, abs=1e-6)

    def test_zero_coverage_gives_unit_distance(self, spec):
        policy = _csa(spec, zero=True)
        policy.generator.biases[-1][9] = 60.0  # token 9 carries no marker
        state = CsaState((0,), SkillSequence((1,)), BusinessContext(0, 0))
        from gopo.core import Response

        resp = Response(tokens=(9, 9), markers=frozenset())
        _, _, comps = csa_loss(policy, state, resp, r_a=0.0)
        assert comps["L_s"] == pytest.approx(1.0, abs=1e-6)

    def test_null_constraint_zero_distance(self, spec):
        policy = _csa(spec, seed=20)
        rng = np.random.default_rng(20)
        state = random_csa_state(spec, rng, allow_null_constraint=True)
        state = CsaState(state.utterance, None, state.business_ctx)
        resp = random_response(spec, rng)
        _, _, comps = csa_loss(policy, state, resp, r_a=0.3)
        assert comps["L_s"] == 0.0

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(21)
        for trial in range(5):
            policy = _csa(spec, seed=30 + trial, weights=(1.0, 0.5, 0.02))
            policy.generator.set_params(rng.normal(0, 0.3, policy.generator.n_params))
            state = random_csa_state(spec, rng)
            resp = random_response(spec, rng)
            r_a = float(rng.normal(0, 1))
            _, grad, _ = csa_loss(policy, state, resp, r_a)

            def f(params):
                old = policy.generator.get_params()
                policy.generator.set_params(params)
                val = csa_loss(policy, state, resp, r_a)[0]
                policy.generator.set_params(old)
                return val

            fd = central_difference_grad(f, policy.generator.get_params())
            assert max_rel_error(grad, fd) < 1e-4

    def test_log_prob_matches_act(self, spec):
        policy = _csa(spec, seed=22, weights=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(22)
        state = random_csa_state(spec, rng)
        resp, log_prob, _ = csa_act(policy, state, rng)
        _, _, comps = csa_loss(policy, state, resp, r_a=1.0)
        assert comps["L_p"] == pytest.approx(-log_prob, abs=1e-12)


class TestBatchedLossesMatchOracles:
    """The one-pass losses against their term-by-term, per-step oracles;
    batched and per-row products round differently, so within 1e-12."""

    TOL = 1e-12

    def _check_expert(self, policy, state, action, adv):
        loss, grad = expert_loss(policy, state, action, adv)
        want_loss, want_grad = oracle_expert_loss(policy, state, action, adv)
        assert loss == pytest.approx(want_loss, rel=self.TOL, abs=self.TOL)
        assert scaled_diff(grad, want_grad) <= self.TOL

    def test_expert_random_instances(self, spec):
        rng = np.random.default_rng(31)
        for trial in range(20):
            policy = _expert(spec, seed=200 + trial, entropy_coeff=float(rng.uniform(0, 0.1)))
            policy.actor.set_params(rng.normal(0, 0.5, policy.actor.n_params))
            state = random_expert_state(spec, rng)
            action, _, _ = expert_act(policy, state, rng)
            self._check_expert(policy, state, action, float(rng.normal(0, 1)))

    def test_expert_single_skill_and_full_length(self, spec):
        rng = np.random.default_rng(32)
        policy = _expert(spec, seed=210, entropy_coeff=0.05)
        policy.actor.set_params(rng.normal(0, 0.5, policy.actor.n_params))
        state = random_expert_state(spec, rng)
        # one skill then STOP; five skills and no STOP slot
        for action in (SkillSequence((2,)), SkillSequence((0, 1, 2, 3, 1))):
            self._check_expert(policy, state, action, -0.8)

    def _check_csa(self, policy, state, action, r_a):
        loss, grad, comps = csa_loss(policy, state, action, r_a)
        want_loss, want_grad, want_comps = oracle_csa_loss(policy, state, action, r_a)
        assert loss == pytest.approx(want_loss, rel=self.TOL, abs=self.TOL)
        for key in ("L_p", "L_s", "L_d"):
            assert comps[key] == pytest.approx(want_comps[key], rel=self.TOL, abs=self.TOL)
        assert scaled_diff(grad, want_grad) <= self.TOL

    def _csa_instance(self, spec, rng, seed, constraint):
        policy = _csa(spec, seed=seed, weights=(1.0, 1.5, 0.05))
        policy.generator.set_params(rng.normal(0, 0.4, policy.generator.n_params))
        state = random_csa_state(spec, rng)
        return policy, CsaState(state.utterance, constraint, state.business_ctx)

    @pytest.mark.parametrize("constrained", [True, False])
    def test_csa_random_instances(self, spec, constrained):
        rng = np.random.default_rng(33 + constrained)
        for trial in range(20):
            constraint = SkillSequence((0, 3)) if constrained else None
            policy, state = self._csa_instance(spec, rng, 220 + trial, constraint)
            self._check_csa(policy, state, random_response(spec, rng), float(rng.normal(0, 1)))

    @pytest.mark.parametrize("constrained", [True, False])
    def test_csa_one_token_and_full_length_without_end(self, spec, constrained):
        from gopo.core import Response, response_markers

        rng = np.random.default_rng(35 + constrained)
        constraint = SkillSequence((1, 0)) if constrained else None
        policy, state = self._csa_instance(spec, rng, 240, constraint)
        full = tuple(int(t) for t in rng.integers(0, spec.vocab_size, spec.max_response_len))
        for tokens in ((5,), full):
            resp = Response(tokens, response_markers(tokens, spec.token_markers))
            self._check_csa(policy, state, resp, 0.6)


class TestDiversityDirection:
    def test_entropy_rises_under_diversity_only_updates(self, spec):
        # with only the diversity term active, minimizing the loss should
        # push per-step distributions toward uniform
        policy = _csa(spec, seed=23, weights=(0.0, 0.0, 1.0))
        rng = np.random.default_rng(23)
        policy.generator.set_params(rng.normal(0, 1.0, policy.generator.n_params))
        state = random_csa_state(spec, rng)
        resp = random_response(spec, rng)
        n_steps = len(resp.tokens) + (1 if len(resp.tokens) < spec.max_response_len else 0)

        def mean_step_entropy():
            _, _, comps = csa_loss(policy, state, resp, r_a=0.0)
            return -comps["L_d"] / n_steps

        before = mean_step_entropy()
        adam = AdamState.zeros(policy.generator.n_params)
        for _ in range(300):
            _, grad, _ = csa_loss(policy, state, resp, r_a=0.0)
            params, adam = adam_step(policy.generator.get_params(), grad, adam, lr=0.02)
            policy.generator.set_params(params)
        after = mean_step_entropy()
        assert after > before
        assert after == pytest.approx(math.log(spec.vocab_size + 1), rel=0.05)
