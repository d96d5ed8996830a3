import dataclasses
import math
import warnings

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
    expert_rows,
)
from gopo.core import (
    MAX_SKILL_SEQUENCE_LEN,
    BusinessContext,
    CsaState,
    Response,
    SkillSequence,
    response_markers,
)
import gopo.neural
from gopo.neural import AdamState, adam_step, softmax_weights, stable_softmax
from gopo.simenv import draw
from conftest import random_csa_state, random_expert_state, random_response
from oracles import (
    central_difference_grad,
    max_rel_error,
    oracle_csa_act,
    oracle_csa_loss,
    oracle_expert_act,
    oracle_expert_loss,
    oracle_slot_input,
    oracle_step_input,
    scaled_diff,
)


@pytest.fixture(scope="module")
def spec(tiny_env_cfg):
    return FeatureSpec.from_env_config(tiny_env_cfg)


def _expert(spec, seed=0, entropy_coeff=0.01, zero=False):
    p = ExpertPolicy(spec, hidden=8, entropy_coeff=entropy_coeff, seed=seed)
    if zero:
        p.net.set_params(np.zeros(p.net.n_params))
        p.critic.set_params(np.zeros(p.critic.n_params))
    return p


def _csa(spec, seed=0, weights=(1.0, 0.5, 0.01), zero=False):
    p = CsaPolicy(spec, hidden=8, loss_weights=weights, seed=seed)
    if zero:
        p.net.set_params(np.zeros(p.net.n_params))
    return p


def _expert_terms(policy, state, action):
    """The log-probability and entropy of a planner action, from the loss
    pass: with unit advantage and no entropy bonus the loss is minus the
    log-probability; with zero advantage and unit coefficient, minus the
    entropy."""
    rows = expert_rows(policy, [state])
    saved = policy.entropy_coeff
    try:
        policy.entropy_coeff = 0.0
        log_prob = -expert_loss(policy, rows, [action], [1.0])[0]
        policy.entropy_coeff = 1.0
        entropy = -expert_loss(policy, rows, [action], [0.0])[0]
    finally:
        policy.entropy_coeff = saved
    return log_prob, entropy


def _csa_terms(policy, state, response):
    """The log-probability and summed entropy of a response, from the loss
    pass: ``L_p`` at unit reward and ``L_d`` are their negatives."""
    _, _, comps = csa_loss(policy, [state], [response], [1.0])
    return -comps["L_p"], -comps["L_d"]


def _critic_loss(policy, rows, targets):
    """``critic_loss`` at the values of the critic's current parameters."""
    return critic_loss(policy, rows, targets, critic_value(policy, rows))


def _acted_log_prob(net, act):
    """Run ``act()`` with ``net.forward`` recorded and return its result and
    the log-probability, under the distributions the act drew from (the
    ``stable_softmax`` of each step's logits, the first one with its stop
    symbol, the last output, masked), of the symbols it realized: the
    emitted ones and the closing stop, absent at the cap."""
    dists = []
    forward = net.forward

    def recorder(x, **kwargs):
        out = forward(x, **kwargs)
        # a single act feeds a one-row block
        dists.append(stable_softmax(out[0]))
        return out

    net.forward = recorder
    try:
        (result,) = act()
    finally:
        del net.forward
    symbols = result.skills if isinstance(result, SkillSequence) else result.tokens
    stop = len(dists[0]) - 1
    realized = list(symbols) + [stop] * (len(dists) - len(symbols))
    first = dists[0].copy()
    first[stop] = 0.0
    log_prob = math.log(first[realized[0]] / first.sum())
    for p, sym in zip(dists[1:], realized[1:]):
        log_prob += math.log(p[sym])
    return result, log_prob


class TestExpertAct:
    def test_uniform_first_slot_entropy_is_ln5(self, spec):
        # 4 skills + STOP: the raw per-slot distribution is uniform over 5
        policy = _expert(spec, zero=True)
        state = random_expert_state(spec, np.random.default_rng(0))
        (seq,) = expert_act(policy, state, np.random.default_rng(1))
        _, entropy = _expert_terms(policy, state, seq)
        slots = len(seq) + (1 if len(seq) < 5 else 0)
        assert entropy == pytest.approx(slots * math.log(5), abs=1e-9)

    def test_greedy_is_deterministic_and_rng_free(self, spec):
        policy = _expert(spec, seed=4)
        state = random_expert_state(spec, np.random.default_rng(2))
        (a1,) = expert_act(policy, state, None)
        (a2,) = expert_act(policy, state, None)
        assert a1 == a2

    def test_length_cap_over_many_draws(self, spec):
        policy = _expert(spec, seed=5)
        rng = np.random.default_rng(3)
        state = random_expert_state(spec, rng)
        for _ in range(10_000):
            (seq,) = expert_act(policy, state, rng)
            assert 1 <= len(seq) <= 5

    def test_log_prob_matches_loss_recomputation(self, spec):
        policy = _expert(spec, seed=6, entropy_coeff=0.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_expert_state(spec, rng)
            action, log_prob = _acted_log_prob(
                policy.net, lambda: expert_act(policy, state, rng)
            )
            loss, _ = expert_loss(policy, expert_rows(policy, [state]), [action], [1.0])
            assert loss == pytest.approx(-log_prob, abs=1e-12)


class TestExpertLoss:
    def test_zero_advantage_zero_entropy_coeff(self, spec):
        policy = _expert(spec, seed=7, entropy_coeff=0.0)
        state = random_expert_state(spec, np.random.default_rng(5))
        rows = expert_rows(policy, [state])
        loss, grad = expert_loss(policy, rows, [SkillSequence((1, 2))], [0.0])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_positive_advantage_step_raises_log_prob(self, spec):
        policy = _expert(spec, seed=8, entropy_coeff=0.0)
        rng = np.random.default_rng(6)
        state = random_expert_state(spec, rng)
        (action,) = expert_act(policy, state, rng)
        log_prob_before, _ = _expert_terms(policy, state, action)
        _, grad = expert_loss(policy, expert_rows(policy, [state]), [action], [1.0])
        policy.net.set_params(policy.net.get_params() - 1e-3 * grad)
        log_prob_after, _ = _expert_terms(policy, state, action)
        assert log_prob_after > log_prob_before

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(7)
        for trial in range(5):
            policy = _expert(spec, seed=20 + trial, entropy_coeff=0.05)
            policy.net.set_params(rng.normal(0, 0.4, policy.net.n_params))
            state = random_expert_state(spec, rng)
            (action,) = expert_act(policy, state, rng)
            rows, actions, advs = expert_rows(policy, [state]), [action], [rng.normal(0, 1)]
            _, grad = expert_loss(policy, rows, actions, advs)

            def f(params):
                old = policy.net.get_params()
                policy.net.set_params(params)
                val = expert_loss(policy, rows, actions, advs)[0]
                policy.net.set_params(old)
                return val

            fd = central_difference_grad(f, policy.net.get_params())
            assert max_rel_error(grad, fd) < 1e-4

    def test_logit_shift_invariance(self, spec):
        policy = _expert(spec, seed=9)
        state = random_expert_state(spec, np.random.default_rng(8))
        rows = expert_rows(policy, [state])
        (action,) = expert_act(policy, state, None)
        lp, ent = _expert_terms(policy, state, action)
        loss, _ = expert_loss(policy, rows, [action], [0.7])
        # add a constant to every output logit via the last-layer bias
        policy.net.biases[-1] = policy.net.biases[-1] + 3.7
        (action2,) = expert_act(policy, state, None)
        lp2, ent2 = _expert_terms(policy, state, action2)
        loss2, _ = expert_loss(policy, rows, [action2], [0.7])
        assert action2 == action
        assert lp2 == pytest.approx(lp, abs=1e-9)
        assert ent2 == pytest.approx(ent, abs=1e-9)
        assert loss2 == pytest.approx(loss, abs=1e-9)


class TestCritic:
    def test_zero_weight_value_is_zero(self, spec):
        policy = _expert(spec, zero=True)
        rows = expert_rows(policy, [random_expert_state(spec, np.random.default_rng(9))])
        assert critic_value(policy, rows).tolist() == [0.0]

    def test_target_equal_value_gives_zero_loss(self, spec):
        policy = _expert(spec, seed=10)
        rows = expert_rows(policy, [random_expert_state(spec, np.random.default_rng(10))])
        v = critic_value(policy, rows)
        loss, grad = critic_loss(policy, rows, v, v)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        policy = _expert(spec, seed=11)
        rows = expert_rows(policy, [random_expert_state(spec, rng)])
        _, grad = _critic_loss(policy, rows, [0.37])

        def f(params):
            old = policy.critic.get_params()
            policy.critic.set_params(params)
            val = _critic_loss(policy, rows, [0.37])[0]
            policy.critic.set_params(old)
            return val

        fd = central_difference_grad(f, policy.critic.get_params())
        assert max_rel_error(grad, fd) < 1e-4


class TestCsaAct:
    def test_uniform_per_token_entropy(self, spec):
        policy = _csa(spec, zero=True)
        state = random_csa_state(spec, np.random.default_rng(12))
        (resp,) = csa_act(policy, state, np.random.default_rng(13))
        _, entropy = _csa_terms(policy, state, resp)
        # no step's entropy exceeds ln(V + 1), so the sum reaches n * ln(V + 1)
        # only if every step is uniform
        n_steps = min(len(resp.tokens) + 1, spec.max_response_len)
        assert entropy == pytest.approx(n_steps * math.log(spec.vocab_size + 1), abs=1e-9)

    def test_greedy_deterministic(self, spec):
        policy = _csa(spec, seed=14)
        state = random_csa_state(spec, np.random.default_rng(14))
        (r1,) = csa_act(policy, state, None)
        (r2,) = csa_act(policy, state, None)
        assert r1 == r2

    def test_length_cap(self, spec):
        policy = _csa(spec, seed=15)
        rng = np.random.default_rng(15)
        for _ in range(500):
            state = random_csa_state(spec, rng)
            (resp,) = csa_act(policy, state, rng)
            assert 1 <= len(resp.tokens) <= spec.max_response_len

    def test_markers_consistent_with_tokens(self, spec):
        from gopo.core import response_markers

        policy = _csa(spec, seed=16)
        rng = np.random.default_rng(16)
        state = random_csa_state(spec, rng)
        (resp,) = csa_act(policy, state, rng)
        assert resp.markers == response_markers(resp.tokens, spec.token_markers)


class TestCsaLoss:
    def test_all_terms_vanish(self, spec):
        policy = _csa(spec, weights=(1.0, 0.0, 0.0), seed=17)
        rng = np.random.default_rng(17)
        state = random_csa_state(spec, rng)
        resp = random_response(spec, rng)
        loss, grad, comps = csa_loss(policy, [state], [resp], [0.0])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_near_deterministic_distributions_have_no_entropy(self, spec):
        policy = _csa(spec, weights=(0.0, 0.0, 1.0), seed=18)
        # huge bias on one token makes every step's distribution one-hot
        policy.net.set_params(np.zeros(policy.net.n_params))
        policy.net.biases[-1][3] = 60.0
        state = random_csa_state(spec, np.random.default_rng(18))
        (resp,) = csa_act(policy, state, None)
        _, _, comps = csa_loss(policy, [state], [resp], [0.0])
        assert abs(comps["L_d"]) < 1e-4

    def test_coverage_bounds(self, spec):
        state = CsaState(
            utterance=(0,),
            constraint=SkillSequence((0,)),  # required markers {0, 5}
            business_ctx=BusinessContext(0, 0),
        )
        policy = _csa(spec, zero=True)
        # concentrate all mass on a token carrying marker 0 and one carrying 5
        policy.net.biases[-1][0] = 60.0  # token 0 carries marker 0
        from gopo.core import Response

        resp = Response(tokens=(0, 5), markers=frozenset({0, 5}))
        # token 5 carries marker 5 in the tiny config
        _, _, comps = csa_loss(policy, [state], [resp], [0.0])
        assert 0.0 <= comps["L_s"] <= 1.0

    def test_full_expected_coverage_gives_zero_distance(self, spec):
        # alternate huge biases so step parity picks carriers of both markers
        policy = _csa(spec, weights=(0.0, 1.0, 0.0), seed=19)
        policy.net.set_params(np.zeros(policy.net.n_params))
        # prev-token feature flips the favored output between carriers 0 and 5
        d = spec.csa_dim
        w_in = policy.net.weights[0]
        # bias output towards token 0 always; towards token 5 when prev == 0
        policy.net.biases[-1][0] = 30.0
        state = CsaState((0,), SkillSequence((0,)), BusinessContext(0, 0))
        from gopo.core import Response

        resp = Response(tokens=(0, 5), markers=frozenset({0, 5}))
        _, _, comps = csa_loss(policy, [state], [resp], [0.0])
        # step distributions put ~all mass on token 0 (marker 0): marker 5
        # stays uncovered, so the distance is the mean of one covered and one
        # uncovered marker
        assert comps["L_s"] == pytest.approx(0.5, abs=1e-6)

    def test_zero_coverage_gives_unit_distance(self, spec):
        policy = _csa(spec, zero=True)
        policy.net.biases[-1][9] = 60.0  # token 9 carries no marker
        state = CsaState((0,), SkillSequence((1,)), BusinessContext(0, 0))
        from gopo.core import Response

        resp = Response(tokens=(9, 9), markers=frozenset())
        _, _, comps = csa_loss(policy, [state], [resp], [0.0])
        assert comps["L_s"] == pytest.approx(1.0, abs=1e-6)

    def test_null_constraint_zero_distance(self, spec):
        policy = _csa(spec, seed=20)
        rng = np.random.default_rng(20)
        state = random_csa_state(spec, rng, allow_null_constraint=True)
        state = CsaState(state.utterance, None, state.business_ctx)
        resp = random_response(spec, rng)
        _, _, comps = csa_loss(policy, [state], [resp], [0.3])
        assert comps["L_s"] == 0.0

    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(21)
        for trial in range(5):
            policy = _csa(spec, seed=30 + trial, weights=(1.0, 0.5, 0.02))
            policy.net.set_params(rng.normal(0, 0.3, policy.net.n_params))
            state = random_csa_state(spec, rng)
            resp = random_response(spec, rng)
            r_a = [rng.normal(0, 1)]
            _, grad, _ = csa_loss(policy, [state], [resp], r_a)

            def f(params):
                old = policy.net.get_params()
                policy.net.set_params(params)
                val = csa_loss(policy, [state], [resp], r_a)[0]
                policy.net.set_params(old)
                return val

            fd = central_difference_grad(f, policy.net.get_params())
            assert max_rel_error(grad, fd) < 1e-4

    def test_log_prob_matches_act(self, spec):
        policy = _csa(spec, seed=22, weights=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(22)
        state = random_csa_state(spec, rng)
        resp, log_prob = _acted_log_prob(policy.net, lambda: csa_act(policy, state, rng))
        _, _, comps = csa_loss(policy, [state], [resp], [1.0])
        assert comps["L_p"] == pytest.approx(-log_prob, abs=1e-12)


class TestBatchedLossesMatchOracles:
    """The one-pass losses against their term-by-term, per-step oracles;
    batched and per-row products round differently, so within 1e-12."""

    TOL = 1e-12

    def _check_expert(self, policy, state, action, adv):
        loss, grad = expert_loss(policy, expert_rows(policy, [state]), [action], [adv])
        want_loss, want_grad = oracle_expert_loss(policy, state, action, adv)
        assert loss == pytest.approx(want_loss, rel=self.TOL, abs=self.TOL)
        assert scaled_diff(grad, want_grad) <= self.TOL

    def test_expert_random_instances(self, spec):
        rng = np.random.default_rng(31)
        for trial in range(20):
            policy = _expert(spec, seed=200 + trial, entropy_coeff=float(rng.uniform(0, 0.1)))
            policy.net.set_params(rng.normal(0, 0.5, policy.net.n_params))
            state = random_expert_state(spec, rng)
            (action,) = expert_act(policy, state, rng)
            self._check_expert(policy, state, action, float(rng.normal(0, 1)))

    def test_expert_single_skill_and_full_length(self, spec):
        rng = np.random.default_rng(32)
        policy = _expert(spec, seed=210, entropy_coeff=0.05)
        policy.net.set_params(rng.normal(0, 0.5, policy.net.n_params))
        state = random_expert_state(spec, rng)
        # one skill then STOP; five skills and no STOP slot
        for action in (SkillSequence((2,)), SkillSequence((0, 1, 2, 3, 1))):
            self._check_expert(policy, state, action, -0.8)

    def _check_csa(self, policy, state, action, r_a):
        loss, grad, comps = csa_loss(policy, [state], [action], [r_a])
        want_loss, want_grad, want_comps = oracle_csa_loss(policy, state, action, r_a)
        assert loss == pytest.approx(want_loss, rel=self.TOL, abs=self.TOL)
        for key in ("L_p", "L_s", "L_d"):
            assert comps[key] == pytest.approx(want_comps[key], rel=self.TOL, abs=self.TOL)
        assert scaled_diff(grad, want_grad) <= self.TOL

    def _csa_instance(self, spec, rng, seed, constraint):
        policy = _csa(spec, seed=seed, weights=(1.0, 1.5, 0.05))
        policy.net.set_params(rng.normal(0, 0.4, policy.net.n_params))
        state = random_csa_state(spec, rng)
        return policy, CsaState(state.utterance, constraint, state.business_ctx)

    @pytest.mark.parametrize("constrained", [True, False])
    def test_csa_random_instances(self, spec, constrained):
        rng = np.random.default_rng(33 + constrained)
        for trial in range(20):
            constraint = SkillSequence((0, 3)) if constrained else None
            policy, state = self._csa_instance(spec, rng, 220 + trial, constraint)
            self._check_csa(policy, state, random_response(spec, rng), float(rng.normal(0, 1)))

    def test_csa_with_a_cap_far_above_every_response(self, spec):
        """The loss pads to the longest realized response, not to the
        length cap: at a cap of 10**9 it allocates what the tiny cap needs
        and still matches the oracle."""
        far = dataclasses.replace(spec, max_response_len=10**9)
        rng = np.random.default_rng(37)
        for trial in range(5):
            policy, state = self._csa_instance(far, rng, 260 + trial, SkillSequence((0, 3)))
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


def _set_params(net, kind, rng, hot):
    """``random``, all-``zero``, or zero with one ``saturated`` output logit
    on symbol ``hot``."""
    if kind == "random":
        net.set_params(rng.normal(0, 0.5, net.n_params))
    else:
        net.set_params(np.zeros(net.n_params))
        if kind == "saturated":
            net.biases[-1][hot] = 60.0


def _recording(net):
    """Wrap ``net.forward`` so every input row it receives is kept."""
    rows = []
    forward = net.forward

    def recorder(x, **kwargs):
        rows.append(np.array(x, copy=True))
        return forward(x, **kwargs)

    net.forward = recorder
    return rows


def test_greedy_step_is_the_argmax_of_the_logits(spec):
    """Two top logits one ulp apart give the same probability after the
    softmax and its floor; greedy acting takes the larger logit, and an
    exact tie goes to the lower index."""
    state = random_expert_state(spec, np.random.default_rng(0))
    for z1, z3, want in ((0.0, np.nextafter(0.0, 1.0), 3), (0.0, 0.0, 1)):
        policy = _expert(spec, zero=True)
        # zero weights: every slot's logits are the output biases
        logits = policy.net.biases[-1]
        logits[:] = -10.0
        logits[1], logits[3] = z1, z3
        p = policy.net.forward(np.zeros((1, policy.net.layer_sizes[0])))[0]
        assert p[1] == p[3]
        (action,) = expert_act(policy, state, None)
        assert action.skills == (want,) * MAX_SKILL_SEQUENCE_LEN


@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("policy_kind", ["expert", "csa"])
def test_act_runs_one_forward_per_step_and_greedy_no_softmax(
    spec, monkeypatch, policy_kind, greedy
):
    """Acting runs one ``Mlp.forward(x, logits=True)`` per realized step,
    greedy or sampled, each over one ``(1, d)`` row, and no act runs the
    softmax."""
    def no_softmax(*args, **kwargs):
        raise AssertionError("an act ran the softmax")

    monkeypatch.setattr(gopo.neural, "stable_softmax", no_softmax)
    monkeypatch.setattr(gopo.neural, "_softmax_raw", no_softmax)
    rng = np.random.default_rng(61)
    for trial in range(10):
        if policy_kind == "expert":
            policy = _expert(spec, seed=800 + trial)
            net, act, cap = policy.net, expert_act, MAX_SKILL_SEQUENCE_LEN
            state = random_expert_state(spec, rng)
        else:
            policy = _csa(spec, seed=820 + trial)
            net, act, cap = policy.net, csa_act, spec.max_response_len
            state = random_csa_state(spec, rng)
        calls = []
        forward = net.forward
        monkeypatch.setattr(
            net,
            "forward",
            lambda x, **kwargs: calls.append((x.shape, kwargs)) or forward(x, **kwargs),
        )
        (result,) = act(policy, state, None if greedy else rng)
        symbols = result.skills if policy_kind == "expert" else result.tokens
        assert len(calls) == min(len(symbols) + 1, cap)
        assert all(kwargs == {"logits": True} for _, kwargs in calls)
        # a single act runs its state's one row
        assert all(shape == (1, net.layer_sizes[0]) for shape, _ in calls)


class TestActMatchesOracle:
    """The in-place, inverse-CDF act path against the per-step reference
    loops: same action and draws, network inputs equal to the oracle
    builders' rows for the same prefix and to the teacher-forced rows the
    loss feeds the network for the acted turn, and the oracle's
    log-probability and entropies equal to the loss pass's within 1e-12
    (batched and per-row products round differently), widened only where
    the first step's stop probability nears 1 (``_first_step_slack``)."""

    TOL = 1e-12

    @staticmethod
    def _first_step_slack(net, row, stop):
        """The loss pass normalizes the first step by ``1 - p(stop)``, the
        oracle by the sum of the other probabilities: as ``p(stop)`` nears
        1 the former keeps only ``eps / (1 - p(stop))`` of relative
        precision, so a saturated stop symbol widens the log-probability
        comparison by a few of those units."""
        return 2 * np.finfo(float).eps / (1.0 - net.forward(row[None])[0, stop])

    KINDS = ("random", "zero", "saturated")

    @staticmethod
    def _twins(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_expert(self, spec, kind, greedy):
        rng = np.random.default_rng(41)
        # saturating STOP tests the masked first slot; saturating a skill
        # gives a five-skill plan
        for trial, hot in enumerate([spec.n_skills, 2] * 6):
            policy = _expert(spec, seed=300 + trial)
            _set_params(policy.net, kind, rng, hot)
            state = random_expert_state(spec, rng)
            mine, theirs = self._twins(500 + trial)
            rows = _recording(policy.net)
            (action,) = expert_act(policy, state, None if greedy else mine)
            # a single act feeds a one-row block
            rows = [row[0] for row in rows]
            del policy.net.forward
            want, want_lp, want_ent = oracle_expert_act(policy, state, theirs, greedy=greedy)
            assert action.skills == want
            assert mine.random() == theirs.random()
            log_prob, entropy = _expert_terms(policy, state, action)
            slack = self._first_step_slack(policy.net, rows[0], policy.stop)
            assert log_prob == pytest.approx(want_lp, rel=self.TOL, abs=self.TOL + slack)
            assert entropy == pytest.approx(want_ent, rel=self.TOL, abs=self.TOL)
            if kind == "saturated" and hot != spec.n_skills:
                assert len(action.skills) == MAX_SKILL_SEQUENCE_LEN
            feat = spec.expert_features(state)
            chosen = np.zeros(spec.n_skills)
            assert len(rows) == min(len(want) + 1, MAX_SKILL_SEQUENCE_LEN)
            for slot, row in enumerate(rows):
                assert np.array_equal(row, oracle_slot_input(policy, feat, chosen, slot))
                if slot < len(want):
                    chosen[want[slot]] = 1.0
            _, forced = _recorded_input(
                policy.net,
                lambda: expert_loss(policy, expert_rows(policy, [state]), [action], [1.0]),
            )
            assert np.array_equal(np.stack(rows), forced)

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_csa(self, spec, kind, greedy, constrained):
        rng = np.random.default_rng(42)
        # saturating END tests the masked first step; saturating a token
        # gives a full-length response
        for trial, hot in enumerate([spec.vocab_size, 3] * 6):
            policy = _csa(spec, seed=320 + trial)
            _set_params(policy.net, kind, rng, hot)
            state = random_csa_state(spec, rng, allow_null_constraint=False)
            if not constrained:
                state = CsaState(state.utterance, None, state.business_ctx)
            mine, theirs = self._twins(600 + trial)
            rows = _recording(policy.net)
            (resp,) = csa_act(policy, state, None if greedy else mine)
            # a single act feeds a one-row block
            rows = [row[0] for row in rows]
            del policy.net.forward
            want, want_lp, want_ents = oracle_csa_act(policy, state, theirs, greedy=greedy)
            assert resp.tokens == want
            assert mine.random() == theirs.random()
            log_prob, entropy = _csa_terms(policy, state, resp)
            slack = self._first_step_slack(policy.net, rows[0], policy.stop)
            assert log_prob == pytest.approx(want_lp, rel=self.TOL, abs=self.TOL + slack)
            assert entropy == pytest.approx(sum(want_ents), rel=self.TOL, abs=self.TOL)
            if kind == "saturated" and hot != spec.vocab_size:
                assert len(resp.tokens) == spec.max_response_len
            feat = spec.csa_features(state)
            emitted = np.zeros(spec.n_markers)
            prev = None
            assert len(rows) == min(len(want) + 1, spec.max_response_len)
            for step, row in enumerate(rows):
                assert np.array_equal(row, oracle_step_input(policy, feat, prev, emitted, step))
                if step < len(want):
                    prev = want[step]
                    emitted[sorted(spec.token_markers[prev])] = 1.0
            _, forced = _recorded_input(
                policy.net, lambda: csa_loss(policy, [state], [resp], [1.0])
            )
            assert np.array_equal(np.stack(rows), forced)


def _sampled_step(logits, banned, rng):
    """A sampled act step as ``agents._block_act`` makes it for one row:
    the cumulative ``softmax_weights`` of the logits, ``banned`` (if any)
    zeroed, one ``draw``."""
    w = softmax_weights(logits)
    if banned is not None:
        w[banned] = 0.0
    return draw(np.add.accumulate(w), rng)


class TestDraw:
    def test_picks_the_index_choice_picks(self):
        """On the floored softmax law, masked and renormalised on half the
        trials (a first step), the sampled step picks the index
        ``rng.choice`` picks, with the same one ``random()``."""
        gen = np.random.default_rng(51)
        mine, theirs = np.random.default_rng(52), np.random.default_rng(52)
        for trial in range(20_000):
            logits = gen.normal(0.0, gen.uniform(0.1, 20.0), int(gen.integers(2, 70)))
            q = stable_softmax(logits)
            banned = None
            if trial % 2 == 0:
                banned = int(gen.integers(q.size))
                q[banned] = 0.0
                q /= q.sum()
            assert _sampled_step(logits, banned, mine) == int(theirs.choice(q.size, p=q))
        assert mine.random() == theirs.random()

    def test_nan_distribution_raises_like_choice(self):
        """Non-finite logits raise before any ``random()`` is drawn, masked
        or not."""
        mine, fresh = np.random.default_rng(53), np.random.default_rng(53)
        for logits in (
            [0.25, np.nan, 0.75], [1.0, np.inf, 0.0], [np.inf, np.inf, 0.0], [-np.inf] * 3
        ):
            for banned in (None, 2):
                # the weights raise before ``inf - inf`` could warn
                with pytest.raises(ValueError, match="logits are not finite"):
                    _sampled_step(np.array(logits), banned, mine)
        assert mine.random() == fresh.random()

    def test_sampled_csa_act_with_nan_parameters_raises(self, spec):
        policy = _csa(spec, seed=54)
        policy.net.set_params(np.full(policy.net.n_params, np.nan))
        state = random_csa_state(spec, np.random.default_rng(54))
        mine, fresh = np.random.default_rng(55), np.random.default_rng(55)
        with pytest.raises(ValueError):
            csa_act(policy, state, mine)
        assert mine.random() == fresh.random()

    def test_greedy_act_on_nan_network_raises(self, spec):
        """``argmax`` of an all-NaN row is 0, so a greedy step would
        otherwise pick symbol 0 on every step."""
        rng = np.random.default_rng(56)
        csa, expert = _csa(spec, seed=56), _expert(spec, seed=56)
        for net in (csa.net, expert.net):
            net.set_params(np.full(net.n_params, np.nan))
        with pytest.raises(ValueError, match="logits are not finite"):
            csa_act(csa, random_csa_state(spec, rng), None)
        with pytest.raises(ValueError, match="logits are not finite"):
            expert_act(expert, random_expert_state(spec, rng), None)

    def test_greedy_act_on_infinite_maximum_raises(self, spec):
        rng = np.random.default_rng(57)
        csa = _csa(spec, seed=57)
        csa.net.biases[-1][0] = np.inf
        with pytest.raises(ValueError, match="logits are not finite"):
            csa_act(csa, random_csa_state(spec, rng), None)

    @pytest.mark.parametrize("policy_kind", ["expert", "csa"])
    def test_sampled_act_on_infinite_maximum_raises(self, spec, policy_kind):
        """An infinite logit raises before any ``random()`` is drawn and
        without a warning (``inf - inf`` would warn), in either policy's
        single act."""
        rng = np.random.default_rng(58)
        mine, fresh = np.random.default_rng(59), np.random.default_rng(59)
        if policy_kind == "csa":
            policy, act, state = _csa(spec, seed=58), csa_act, random_csa_state(spec, rng)
            net = policy.net
        else:
            policy, act = _expert(spec, seed=58), expert_act
            state, net = random_expert_state(spec, rng), policy.net
        net.biases[-1][0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="logits are not finite"):
                act(policy, state, mine)
        assert mine.random() == fresh.random()


class TestDiversityDirection:
    def test_entropy_rises_under_diversity_only_updates(self, spec):
        # with only the diversity term active, minimizing the loss should
        # push per-step distributions toward uniform
        policy = _csa(spec, seed=23, weights=(0.0, 0.0, 1.0))
        rng = np.random.default_rng(23)
        policy.net.set_params(rng.normal(0, 1.0, policy.net.n_params))
        state = random_csa_state(spec, rng)
        resp = random_response(spec, rng)
        n_steps = len(resp.tokens) + (1 if len(resp.tokens) < spec.max_response_len else 0)

        def mean_step_entropy():
            _, _, comps = csa_loss(policy, [state], [resp], [0.0])
            return -comps["L_d"] / n_steps

        before = mean_step_entropy()
        adam = AdamState.zeros(policy.net.n_params)
        for _ in range(300):
            _, grad, _ = csa_loss(policy, [state], [resp], [0.0])
            params, adam = adam_step(policy.net.get_params(), grad, adam, lr=0.02)
            policy.net.set_params(params)
        after = mean_step_entropy()
        assert after > before
        assert after == pytest.approx(math.log(spec.vocab_size + 1), rel=0.05)


def _expert_episode(spec, rng):
    """Six planner turns: one-skill and five-skill plans among sampled ones."""
    states = [random_expert_state(spec, rng) for _ in range(6)]
    actions = [
        SkillSequence((2,)),
        SkillSequence((0, 1, 2, 3, 1)),
        SkillSequence(tuple(int(s) for s in rng.integers(0, spec.n_skills, 3))),
        SkillSequence((3, 2, 1, 0, 0)),
        SkillSequence((1,)),
        SkillSequence(tuple(int(s) for s in rng.integers(0, spec.n_skills, 2))),
    ]
    return states, actions, rng.normal(0, 1, len(states))


def _csa_episode(spec, rng, n_turns=6):
    """Responder turns alternating null and non-null constraints, so turns
    without required markers sit between turns with some, with one-token,
    full-length (no END) and sampled-length responses under both."""
    states, actions = [], []
    for i in range(n_turns):
        state = random_csa_state(spec, rng, allow_null_constraint=False)
        if i % 2 == 1:
            state = CsaState(state.utterance, None, state.business_ctx)
        n = (1, spec.max_response_len, spec.max_response_len, 1)[i] if i < 4 else int(
            rng.integers(1, spec.max_response_len)
        )
        tokens = tuple(int(t) for t in rng.integers(0, spec.vocab_size, n))
        states.append(state)
        actions.append(Response(tokens, response_markers(tokens, spec.token_markers)))
    return states, actions, rng.normal(0, 1, n_turns)


def _recorded_input(net, fn):
    """``fn()``'s result and the one input batch it gave ``net.forward``."""
    rows = _recording(net)
    try:
        out = fn()
    finally:
        del net.forward
    assert len(rows) == 1
    return out, rows[0]


class TestEpisodeLossesEqualTurnSums:
    """An episode's one-pass loss and gradient against the sum of its
    one-turn losses and of its turns' oracles; the stacked products round
    differently, so within 1e-12 relative."""

    TOL = 1e-12

    def test_expert(self, spec):
        rng = np.random.default_rng(51)
        for trial in range(5):
            policy = _expert(spec, seed=700 + trial, entropy_coeff=float(rng.uniform(0, 0.1)))
            policy.net.set_params(rng.normal(0, 0.5, policy.net.n_params))
            states, actions, advs = _expert_episode(spec, rng)
            loss, grad = expert_loss(policy, expert_rows(policy, states), actions, advs)
            one_turn = [
                expert_loss(policy, expert_rows(policy, [s]), [a], [adv])
                for s, a, adv in zip(states, actions, advs)
            ]
            oracle = [oracle_expert_loss(policy, *turn) for turn in zip(states, actions, advs)]
            for turns in (one_turn, oracle):
                assert loss == pytest.approx(sum(t[0] for t in turns), rel=self.TOL, abs=self.TOL)
                assert scaled_diff(grad, sum(t[1] for t in turns)) <= self.TOL

    def test_critic(self, spec):
        rng = np.random.default_rng(52)
        for trial in range(5):
            policy = _expert(spec, seed=720 + trial)
            policy.critic.set_params(rng.normal(0, 0.5, policy.critic.n_params))
            states = [random_expert_state(spec, rng) for _ in range(7)]
            targets = rng.normal(0, 1, len(states))
            loss, grad = _critic_loss(policy, expert_rows(policy, states), targets)
            turns = [
                _critic_loss(policy, expert_rows(policy, [s]), [t])
                for s, t in zip(states, targets)
            ]
            assert loss == pytest.approx(sum(t[0] for t in turns), rel=self.TOL, abs=self.TOL)
            assert scaled_diff(grad, sum(t[1] for t in turns)) <= self.TOL

    def test_csa(self, spec):
        rng = np.random.default_rng(53)
        for trial in range(5):
            policy = _csa(spec, seed=740 + trial, weights=(1.0, 1.5, 0.05))
            policy.net.set_params(rng.normal(0, 0.4, policy.net.n_params))
            states, actions, r_as = _csa_episode(spec, rng)
            loss, grad, comps = csa_loss(policy, states, actions, r_as)
            one_turn = [csa_loss(policy, [s], [a], [r]) for s, a, r in zip(states, actions, r_as)]
            oracle = [oracle_csa_loss(policy, *turn) for turn in zip(states, actions, r_as)]
            for turns in (one_turn, oracle):
                assert loss == pytest.approx(sum(t[0] for t in turns), rel=self.TOL, abs=self.TOL)
                for key in ("L_p", "L_s", "L_d"):
                    want = sum(t[2][key] for t in turns)
                    assert comps[key] == pytest.approx(want, rel=self.TOL, abs=self.TOL)
                assert scaled_diff(grad, sum(t[1] for t in turns)) <= self.TOL
            assert comps["L_s"] > 0.0

    def test_expert_rows_are_the_slot_builders(self, spec):
        rng = np.random.default_rng(54)
        policy = _expert(spec, seed=760)
        states, actions, advs = _expert_episode(spec, rng)
        _, x = _recorded_input(
            policy.net, lambda: expert_loss(policy, expert_rows(policy, states), actions, advs)
        )
        want = []
        for state, action in zip(states, actions):
            chosen = np.zeros(spec.n_skills)
            feat = spec.expert_features(state)
            for slot in range(min(len(action) + 1, MAX_SKILL_SEQUENCE_LEN)):
                want.append(oracle_slot_input(policy, feat, chosen, slot))
                if slot < len(action):
                    chosen[action.skills[slot]] = 1.0
        assert np.array_equal(x, np.stack(want))

    def test_csa_rows_are_the_step_builders(self, spec):
        rng = np.random.default_rng(55)
        policy = _csa(spec, seed=761)
        states, actions, r_as = _csa_episode(spec, rng)
        _, x = _recorded_input(
            policy.net, lambda: csa_loss(policy, states, actions, r_as)
        )
        want = []
        for state, action in zip(states, actions):
            feat = spec.csa_features(state)
            emitted = np.zeros(spec.n_markers)
            prev = None
            for step in range(min(len(action.tokens) + 1, spec.max_response_len)):
                want.append(oracle_step_input(policy, feat, prev, emitted, step))
                if step < len(action.tokens):
                    prev = action.tokens[step]
                    emitted[sorted(spec.token_markers[prev])] = 1.0
        assert np.array_equal(x, np.stack(want))


class TestEpisodeLossGradients:
    """Central differences of each episode loss on a three-turn episode of
    hidden-8 networks, at the gradient suite's 1e-4."""

    def _check(self, net, loss, grad):
        def f(params):
            old = net.get_params()
            net.set_params(params)
            try:
                return loss()
            finally:
                net.set_params(old)

        fd = central_difference_grad(f, net.get_params())
        assert max_rel_error(grad, fd) < 1e-4

    def test_expert(self, spec):
        rng = np.random.default_rng(56)
        policy = _expert(spec, seed=780, entropy_coeff=0.05)
        policy.net.set_params(rng.normal(0, 0.4, policy.net.n_params))
        states, actions, advs = (v[:3] for v in _expert_episode(spec, rng))
        rows = expert_rows(policy, states)
        _, grad = expert_loss(policy, rows, actions, advs)
        self._check(policy.net, lambda: expert_loss(policy, rows, actions, advs)[0], grad)

    def test_critic(self, spec):
        rng = np.random.default_rng(57)
        policy = _expert(spec, seed=781)
        policy.critic.set_params(rng.normal(0, 0.5, policy.critic.n_params))
        rows = expert_rows(policy, [random_expert_state(spec, rng) for _ in range(3)])
        targets = rng.normal(0, 1, 3)
        _, grad = _critic_loss(policy, rows, targets)
        self._check(policy.critic, lambda: _critic_loss(policy, rows, targets)[0], grad)

    def test_csa(self, spec):
        rng = np.random.default_rng(58)
        policy = _csa(spec, seed=782, weights=(1.0, 1.5, 0.05))
        policy.net.set_params(rng.normal(0, 0.3, policy.net.n_params))
        # constrained one-token, null full-length, constrained full-length
        states, actions, r_as = _csa_episode(spec, rng, n_turns=3)
        _, grad, _ = csa_loss(policy, states, actions, r_as)
        self._check(
            policy.net, lambda: csa_loss(policy, states, actions, r_as)[0], grad
        )
