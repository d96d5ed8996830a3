"""Independent brute-force oracles the implementation is checked against.

Deliberately written as literal, term-by-term evaluations with their own
code paths (two-argument log, slice-based duplicate detection, explicit
index search) so they share no structure with the package implementation.
The loss oracles reuse only the policies' input builders and per-row network
calls; every loss term and its upstream gradient is evaluated one step at a
time.
"""

import math

import numpy as np

from gopo.core import MAX_SKILL_SEQUENCE_LEN


def oracle_relevance(s, teacher):
    if s in teacher:
        idx = list(teacher).index(s) + 1  # 1-based first occurrence
        return len(teacher) - idx + 1
    return 0


def oracle_dcg(pred, teacher, dedupe):
    total = 0.0
    for i in range(1, len(pred) + 1):
        p = pred[i - 1]
        if dedupe and p in pred[: i - 1]:
            rel = 0
        else:
            rel = oracle_relevance(p, teacher)
        total += (2**rel - 1) / math.log(i + 1, 2)
    return total


def oracle_esndcg(pred, teacher, dedupe):
    if len(teacher) == 0:
        return 1.0 if len(pred) == 0 else 0.0
    ideal = oracle_dcg(teacher, teacher, True)
    if ideal == 0:
        return 1.0 if len(pred) == 0 else 0.0
    return oracle_dcg(pred, teacher, dedupe) / ideal


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


def oracle_expert_loss(policy, state, action, advantage):
    """Planner loss and gradient term by term: one actor forward and one
    backward per slot, summed in slot order."""
    feat = policy.spec.expert_features(state)
    alpha = policy.entropy_coeff
    stop = policy.stop_index
    symbols = list(action.skills)
    if len(symbols) < MAX_SKILL_SEQUENCE_LEN:
        symbols.append(stop)
    chosen = np.zeros(policy.spec.n_skills)
    loss = 0.0
    grad = np.zeros(policy.actor.n_params)
    for slot, sym in enumerate(symbols):
        x = policy.slot_input(feat, chosen, slot)
        p = policy.actor.forward(x)
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
        grad += policy.actor.backward(x, u)
        if sym != stop:
            chosen[sym] = 1.0
    return loss, grad


def oracle_csa_loss(policy, state, action, r_a):
    """Responder loss, components and gradient term by term: one generator
    forward and one backward per step, coverage by explicit carrier search
    and explicit prefix/suffix products."""
    spec = policy.spec
    feat = spec.csa_features(state)
    end = policy.end_index
    tokens = list(action.tokens)
    symbols = tokens + ([end] if len(tokens) < spec.max_response_len else [])

    inputs, probs = [], []
    emitted = np.zeros(spec.n_markers)
    prev = None
    for step, sym in enumerate(symbols):
        x = policy.step_input(feat, prev, emitted, step)
        inputs.append(x)
        probs.append(policy.generator.forward(x))
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

    required = sorted(spec.required_markers(state.constraint))
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

    grad = np.zeros(policy.generator.n_params)
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
        grad += policy.generator.backward(inputs[step], u)

    total = lam_p * loss_pg + lam_s * loss_skill + lam_d * loss_div
    return total, grad, {"L_p": loss_pg, "L_s": loss_skill, "L_d": loss_div}
