"""Independent brute-force oracles the implementation is checked against.

Deliberately written as literal, term-by-term evaluations with their own
code paths (two-argument log, slice-based duplicate detection, explicit
index search) so they share no structure with the package implementation.
The loss and act oracles build every network-input row from scratch with
their own builders (``oracle_slot_input``, ``oracle_step_input``), not with
the policies' ``first_rows``/``advance``, and reuse only the network, called
on one-row batches; every loss term, upstream gradient, draw and entropy is
evaluated one step at a time.  ``oracle_bleu`` counts n-grams with
``Counter``s, pair by pair, and ``ChoiceDialogueEnv`` draws every user state
with ``rng.choice``.
``validate_trajectory`` checks every invariant a trajectory the environment
plays must hold.
"""

import math
from collections import Counter

import numpy as np

from gopo.core import (
    MAX_SKILL_SEQUENCE_LEN,
    NUM_MILESTONES,
    BusinessContext,
    RewardBreakdown,
)
from gopo.rewards import csa_reward, joint_reward, joint_weights
from gopo.simenv import TERMINAL_ALL_MILESTONES, TERMINAL_HORIZON, DialogueEnv


def oracle_relevance(s, teacher):
    if s in teacher:
        idx = list(teacher).index(s) + 1  # 1-based first occurrence
        return len(teacher) - idx + 1
    return 0


def oracle_dcg(pred, teacher):
    total = 0.0
    for i in range(1, len(pred) + 1):
        p = pred[i - 1]
        # a repeated prediction scores relevance 0
        rel = 0 if p in pred[: i - 1] else oracle_relevance(p, teacher)
        total += (2**rel - 1) / math.log(i + 1, 2)
    return total


def oracle_esndcg(pred, teacher):
    return oracle_dcg(pred, teacher) / oracle_dcg(teacher, teacher)


def validate_trajectory(traj, pool_size, horizon):
    """Check every trajectory invariant; return None if all hold, otherwise a
    description of the first violated one."""
    if len(traj.turns) > horizon:
        return f"turn count {len(traj.turns)} exceeds horizon {horizon}"
    for i, turn in enumerate(traj.turns):
        if turn.csa_state.constraint is not None:
            for s in turn.csa_state.constraint:
                if s >= pool_size:
                    return (
                        f"skill id range: turn {i + 1} uses skill {s} "
                        f"outside pool of size {pool_size}"
                    )
        r = turn.reward
        if not 0.0 <= r.r_expert <= 1.0:
            return f"r_expert out of [0,1] at turn {i + 1}: {r.r_expert}"
        if not 0.0 <= r.r_csa <= 1.0:
            return f"r_csa out of [0,1] at turn {i + 1}: {r.r_csa}"
        if any(not 0.0 <= s <= 1.0 for s in r.dim_scores):
            return f"dim score out of [0,1] at turn {i + 1}: {r.dim_scores}"
        if r.joint != r.w_expert * r.r_expert + r.w_csa * r.r_csa:
            return f"joint reward inconsistent at turn {i + 1}"
    m = traj.milestones
    prev_turn = 0
    for i in range(NUM_MILESTONES):
        if m.completed[i] != (m.turns[i] is not None):
            return f"milestone turn defined iff completed violated at index {i}"
        t = m.turns[i]
        if t is not None:
            if t < 1:
                return f"milestone turn must be positive at index {i}: {t}"
            if t <= prev_turn:
                return (
                    f"milestone order: turn {t} of milestone {i + 1} not after "
                    f"turn {prev_turn} of the previous completed milestone"
                )
            prev_turn = t
    return None


def central_difference_grad(fn, params, step=1e-5):
    """Central finite-difference gradient of fn(params) -> scalar."""
    base = np.asarray(params, dtype=float)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += step
        down = base.copy()
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


def max_rel_error(a, b, floor=1e-4):
    """Elementwise relative error with an absolute floor on the denominator,
    so near-zero coordinates are compared absolutely at floor scale."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def scaled_diff(a, b):
    """Largest absolute difference over the largest magnitude of ``b``: the
    check for results that differ only by summation order."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def oracle_discounted_returns(rewards, gamma):
    """Suffix-summed discounted returns, innermost-first."""
    out = []
    acc = 0.0
    for r in reversed(rewards):
        acc = r + gamma * acc
        out.append(acc)
    return list(reversed(out))


def oracle_slot_input(policy, features, chosen, slot):
    """A planner actor row from scratch: the features, the chosen-skill
    multi-hot and the slot one-hot."""
    x = np.zeros(policy.net.layer_sizes[0])
    d = features.size
    x[:d] = features
    x[d : d + policy.spec.n_skills] = chosen
    x[d + policy.spec.n_skills + slot] = 1.0
    return x


def oracle_step_input(policy, features, prev_token, emitted_markers, step):
    """A responder generator row from scratch: the features, the
    previous-token one-hot, the emitted-marker multi-hot, the required
    markers not yet emitted, and the position."""
    spec = policy.spec
    x = np.zeros(policy.net.layer_sizes[0])
    d = features.size
    x[:d] = features
    if prev_token is not None:
        x[d + prev_token] = 1.0
    d += spec.vocab_size + 1
    nm = spec.n_markers
    x[d : d + nm] = emitted_markers
    required = features[spec.n_skills : spec.n_skills + nm]
    x[d + nm : d + 2 * nm] = required * (1.0 - emitted_markers)
    x[-1] = step / spec.max_response_len
    return x


def oracle_required_markers(spec, constraint):
    """The union of the required markers of a constraint's skills."""
    if constraint is None:
        return frozenset()
    out = set()
    for s in constraint:
        out |= spec.skill_required[s]
    return frozenset(out)


def oracle_expert_loss(policy, state, action, advantage):
    """Planner loss and gradient term by term: one actor forward and one
    backward per slot, summed in slot order."""
    feat = policy.spec.expert_features(state)
    alpha = policy.entropy_coeff
    stop = policy.stop
    symbols = list(action.skills)
    if len(symbols) < MAX_SKILL_SEQUENCE_LEN:
        symbols.append(stop)
    chosen = np.zeros(policy.spec.n_skills)
    loss = 0.0
    grad = np.zeros(policy.net.n_params)
    for slot, sym in enumerate(symbols):
        x = oracle_slot_input(policy, feat, chosen, slot)
        p = policy.net.forward(x[None])[0]
        if slot == 0:
            log_q = math.log(p[sym]) - math.log(1.0 - p[stop])
        else:
            log_q = math.log(p[sym])
        h = -sum(float(pk) * math.log(pk) for pk in p)
        loss += -advantage * log_q - alpha * h
        u = np.array([alpha * (math.log(pk) + 1.0) for pk in p])
        u[sym] += -advantage / p[sym]
        if slot == 0:
            u[stop] += -advantage / (1.0 - p[stop])
        grad += policy.net.backward(x[None], u[None])
        if sym != stop:
            chosen[sym] = 1.0
    return loss, grad


def oracle_csa_loss(policy, state, action, r_a):
    """Responder loss, components and gradient term by term: one generator
    forward and one backward per step, coverage by explicit carrier search
    and explicit prefix/suffix products."""
    spec = policy.spec
    feat = spec.csa_features(state)
    end = policy.stop
    tokens = list(action.tokens)
    symbols = tokens + ([end] if len(tokens) < spec.max_response_len else [])

    inputs, probs = [], []
    emitted = np.zeros(spec.n_markers)
    prev = None
    for step, sym in enumerate(symbols):
        x = oracle_step_input(policy, feat, prev, emitted, step)
        inputs.append(x)
        probs.append(policy.net.forward(x[None])[0])
        if sym != end:
            for m in spec.token_markers[sym]:
                emitted[m] = 1.0
            prev = sym

    log_pi = 0.0
    for step, sym in enumerate(symbols):
        p = probs[step]
        log_pi += math.log(p[sym])
        if step == 0:
            log_pi -= math.log(1.0 - p[end])
    loss_pg = -r_a * log_pi
    loss_div = sum(float(pk) * math.log(pk) for p in probs for pk in p)

    required = sorted(oracle_required_markers(spec, state.constraint))
    n_tok = len(tokens)
    if required and n_tok > 0:
        carriers = [
            [w for w in range(spec.vocab_size) if m in spec.token_markers[w]]
            for m in required
        ]
        miss = [
            [1.0 - sum(probs[t][w] for w in carrier) for carrier in carriers]
            for t in range(n_tok)
        ]

        def prod(values):
            out = 1.0
            for v in values:
                out *= v
            return out

        n_req = len(required)
        prefix = [
            [prod(miss[s][j] for s in range(t)) for j in range(n_req)]
            for t in range(n_tok + 1)
        ]
        suffix = [
            [prod(miss[s][j] for s in range(t, n_tok)) for j in range(n_req)]
            for t in range(n_tok + 1)
        ]
        loss_skill = sum(prefix[n_tok]) / len(required)
    else:
        loss_skill = 0.0

    grad = np.zeros(policy.net.n_params)
    lam_p, lam_s, lam_d = policy.lambda_pg, policy.lambda_skill, policy.lambda_div
    for step, sym in enumerate(symbols):
        p = probs[step]
        u = np.array([lam_d * (math.log(pk) + 1.0) for pk in p])
        u[sym] += lam_p * (-r_a / p[sym])
        if step == 0:
            u[end] += lam_p * (-r_a / (1.0 - p[end]))
        if required and step < n_tok:
            for j, carrier in enumerate(carriers):
                g_q = -(prefix[step][j] * suffix[step + 1][j]) / len(required)
                for w in carrier:
                    u[w] += lam_s * g_q
        grad += policy.net.backward(inputs[step][None], u[None])

    total = lam_p * loss_pg + lam_s * loss_skill + lam_d * loss_div
    return total, grad, {"L_p": loss_pg, "L_s": loss_skill, "L_d": loss_div}


def _oracle_masked(p, banned):
    q = p.copy()
    q[banned] = 0.0
    return q / q.sum()


def oracle_expert_act(policy, state, rng, greedy=False):
    """Planner act as a per-slot loop: a fresh slot input per slot, one
    ``rng.choice`` per sampled slot, a per-slot entropy."""
    feat = policy.spec.expert_features(state)
    chosen = np.zeros(policy.spec.n_skills)
    skills = []
    log_prob = 0.0
    entropy = 0.0
    for slot in range(MAX_SKILL_SEQUENCE_LEN):
        p = policy.net.forward(oracle_slot_input(policy, feat, chosen, slot)[None])[0]
        entropy += float(-np.sum(p * np.log(p)))
        q = _oracle_masked(p, policy.stop) if slot == 0 else p
        if greedy:
            sym = int(np.argmax(q))
        else:
            sym = int(rng.choice(q.size, p=q / q.sum()))
        log_prob += float(np.log(q[sym]))
        if sym == policy.stop:
            break
        skills.append(sym)
        chosen[sym] = 1.0
    return tuple(skills), log_prob, entropy


def oracle_csa_act(policy, state, rng, greedy=False):
    """Responder act as a per-step loop: a fresh step input per step, one
    ``rng.choice`` per sampled step, a per-step entropy."""
    feat = policy.spec.csa_features(state)
    tokens = []
    emitted = np.zeros(policy.spec.n_markers)
    prev = None
    log_prob = 0.0
    entropies = []
    for step in range(policy.spec.max_response_len):
        p = policy.net.forward(oracle_step_input(policy, feat, prev, emitted, step)[None])[0]
        entropies.append(float(-np.sum(p * np.log(p))))
        q = _oracle_masked(p, policy.stop) if step == 0 else p
        if greedy:
            sym = int(np.argmax(q))
        else:
            sym = int(rng.choice(q.size, p=q / q.sum()))
        log_prob += float(np.log(q[sym]))
        if sym == policy.stop:
            break
        tokens.append(sym)
        for m in policy.spec.token_markers[sym]:
            emitted[m] = 1.0
        prev = sym
    return tuple(tokens), log_prob, entropies


def _oracle_ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def oracle_bleu(candidates, references, max_n=4):
    """Corpus BLEU with ``Counter`` n-gram counts, pair by pair: the clipped
    count of a pair sums ``min(candidate count, reference count)`` over its
    distinct candidate n-grams; smoothing, dropped orders and brevity
    penalty as ``gopo.metrics.bleu`` documents them."""
    cands = [tuple(c) for c in candidates]
    refs = [tuple(r) for r in references]
    log_precisions = []
    for n in range(1, max_n + 1):
        clipped = 0
        total = 0
        for cand, ref in zip(cands, refs):
            cand_counts = _oracle_ngrams(cand, n)
            if not cand_counts:
                continue
            ref_counts = _oracle_ngrams(ref, n)
            total += sum(cand_counts.values())
            clipped += sum(
                min(count, ref_counts[gram]) for gram, count in cand_counts.items()
            )
        if total == 0:
            continue
        if clipped == 0:
            if n == 1:
                return 0.0
            p_n = 1.0 / (total + 1.0)
        else:
            p_n = clipped / total
        log_precisions.append(math.log(p_n))
    if not log_precisions:
        return 0.0
    cand_len = sum(len(c) for c in cands)
    ref_len = sum(len(r) for r in refs)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


class ChoiceDialogueEnv(DialogueEnv):
    """The environment with every user-state draw made by ``rng.choice``
    over row-normalized probabilities, on each call, in place of a search
    in cumulative distributions built once.  The judge, the planner reward,
    milestones and observations are the environment's own; ``step`` repeats
    the environment's turn scoring and state update with its own draws."""

    def _choice(self, probs, i=None):
        a = np.asarray(probs, dtype=float)
        a = a / a.sum(axis=-1, keepdims=True)
        p = a if i is None else a[i]
        return int(self._rng.choice(len(p), p=p))

    def reset(self, seed):
        cfg = self.cfg
        super().reset(seed)
        self._rng = np.random.default_rng(seed)
        self._intent_idx = self._choice(cfg.initial_intent_dist)
        self._emotion_idx = self._choice(cfg.initial_emotion_dist)
        self._business = BusinessContext(
            order_status=int(self._rng.integers(0, 3)),
            stock_level=int(self._rng.integers(0, 3)),
        )
        self._obs = self._build_observation()
        return self._obs

    def step(self, skills, response):
        cfg = self.cfg
        if self._done:
            raise RuntimeError("step() after the episode ended")
        r_e = 0.0 if skills is None else self.planner_reward(self._obs.expert_state, skills)
        scores = self.judge(skills, response)
        turn_no = self._turn + 1
        r_a = csa_reward(scores, self.reward_cfg)
        weights = joint_weights(turn_no, cfg.horizon, self.reward_cfg)
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
        compliant = scores[1] >= cfg.compliance_threshold
        key = "compliant" if compliant else "noncompliant"
        self._emotion_idx = self._choice(cfg.emotion_transition[key], self._emotion_idx)
        self._intent_idx = self._choice(
            cfg.intent_transition[self._phase - 1], self._intent_idx
        )
        self._history = (self._history + (response.markers,))[-cfg.history_window :]
        self._prev_skills = skills
        self._turn = turn_no
        if all(self._completed):
            self._done = True
            self._terminal_reason = TERMINAL_ALL_MILESTONES
        elif turn_no >= cfg.horizon:
            self._done = True
            self._terminal_reason = TERMINAL_HORIZON
        self._obs = self._build_observation()
        return self._obs, reward, self._done
