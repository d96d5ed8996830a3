"""The two policies and their losses.

The planner is an actor-critic over skill sequences: the actor emits up to
five skills autoregressively with a STOP symbol and trains on a policy
gradient with entropy regularization; the critic is a scalar value head over
planner states.  The responder generates token sequences autoregressively
under the skill constraint and trains on a composite loss: policy gradient,
a differentiable marker-coverage distance to the constraint, and a
negative-entropy diversity term.

Constraints enter the responder only through its features; compliance is
learned through the coverage loss and the judge reward, not enforced by
decoding-time masking.

Sampling conventions: the first slot/step masks STOP/END so emitted
sequences are never empty; reported log-probabilities follow the actual
(masked, renormalized) sampling law, while reported entropies are those of
the raw per-slot distributions including the stop symbol.  Every loss here
is a deterministic function of (parameters, state, action), so all gradients
are checkable against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CsaState,
    ExpertState,
    MAX_SKILL_SEQUENCE_LEN,
    Response,
    SkillSequence,
    response_markers,
)
from .neural import Mlp
from .simenv import EnvConfig

N_PHASES = 3
_BUSINESS_DIM = 6  # order status one-hot (3) + stock level one-hot (3)


@dataclass(frozen=True)
class FeatureSpec:
    """Fixed encoding of environment states into dense feature vectors."""

    intents: tuple[str, ...]
    emotions: tuple[str, ...]
    n_skills: int
    n_markers: int
    history_window: int
    horizon: int
    vocab_size: int
    max_response_len: int
    token_markers: tuple[frozenset[int], ...]
    skill_required: tuple[frozenset[int], ...]

    @classmethod
    def from_env_config(cls, cfg: EnvConfig) -> "FeatureSpec":
        return cls(
            intents=cfg.intents,
            emotions=cfg.emotions,
            n_skills=len(cfg.skill_pool),
            n_markers=cfg.marker_count,
            history_window=cfg.history_window,
            horizon=cfg.horizon,
            vocab_size=cfg.vocab_size,
            max_response_len=cfg.max_response_len,
            token_markers=cfg.token_markers,
            skill_required=tuple(s.required_markers for s in cfg.skill_pool),
        )

    @property
    def expert_dim(self) -> int:
        # intent + emotion one-hots, previous-skill multi-hot, marker
        # histogram of the history window, phase one-hot, turn position
        return (
            len(self.intents)
            + len(self.emotions)
            + self.n_skills
            + self.n_markers
            + N_PHASES
            + 1
        )

    @property
    def csa_dim(self) -> int:
        # constraint multi-hot, required-marker multi-hot, utterance marker
        # multi-hot, business context one-hots
        return self.n_skills + 2 * self.n_markers + _BUSINESS_DIM

    def expert_features(self, state: ExpertState) -> np.ndarray:
        f = np.zeros(self.expert_dim)
        ni, ne = len(self.intents), len(self.emotions)
        f[self.intents.index(state.intent)] = 1.0
        f[ni + self.emotions.index(state.emotion)] = 1.0
        off = ni + ne
        if state.prev_skills is not None:
            for s in state.prev_skills:
                f[off + s] = 1.0
        off += self.n_skills
        for turn in state.history:
            for m in turn.markers:
                f[off + m] += 1.0
        f[off : off + self.n_markers] /= max(self.history_window, 1)
        off += self.n_markers
        f[off + min(state.phase, N_PHASES) - 1] = 1.0
        off += N_PHASES
        f[off] = min((state.turn - 1) / max(self.horizon - 1, 1), 1.0)
        return f

    def csa_features(self, state: CsaState) -> np.ndarray:
        f = np.zeros(self.csa_dim)
        if state.constraint is not None:
            for s in state.constraint:
                f[s] = 1.0
                for m in self.skill_required[s]:
                    f[self.n_skills + m] = 1.0
        off = self.n_skills + self.n_markers
        for t in state.utterance:
            for m in self.token_markers[t]:
                f[off + m] = 1.0
        off += self.n_markers
        f[off + state.business_ctx.order_status] = 1.0
        f[off + 3 + state.business_ctx.stock_level] = 1.0
        return f

    def required_markers(self, constraint: SkillSequence | None) -> frozenset[int]:
        if constraint is None:
            return frozenset()
        out: set[int] = set()
        for s in constraint:
            out |= self.skill_required[s]
        return frozenset(out)


def _entropy(p: np.ndarray) -> float:
    return float(-np.sum(p * np.log(p)))


def _masked(p: np.ndarray, banned: int) -> np.ndarray:
    q = p.copy()
    q[banned] = 0.0
    return q / q.sum()


def _sequence_terms(
    p: np.ndarray,
    symbols: list[int],
    banned: int,
    pg_coeff: float,
    entropy_coeff: float,
) -> tuple[float, float, np.ndarray]:
    """Teacher-forced terms shared by both policies' losses.

    ``p`` holds one distribution per step of a realized symbol sequence.
    Returns the sequence's log-probability under the sampling law (``banned``
    masked on the first step), the summed raw per-step entropies, and the
    gradient of ``-pg_coeff * log_prob - entropy_coeff * entropy`` with
    respect to ``p``."""
    steps = np.arange(len(symbols))
    log_p = np.log(p)
    p_sym = p[steps, symbols]
    log_prob = float(np.sum(log_p[steps, symbols]) - np.log(1.0 - p[0, banned]))
    entropy = float(-np.sum(p * log_p))
    u = entropy_coeff * (log_p + 1.0)
    u[steps, symbols] -= pg_coeff / p_sym
    u[0, banned] -= pg_coeff / (1.0 - p[0, banned])
    return log_prob, entropy, u


# --- planner ------------------------------------------------------------------


class ExpertPolicy:
    """Skill-sequence actor plus state-value critic."""

    def __init__(
        self,
        spec: FeatureSpec,
        hidden: int = 64,
        entropy_coeff: float = 0.01,
        seed=0,
    ):
        self.spec = spec
        self.entropy_coeff = float(entropy_coeff)
        self.stop_index = spec.n_skills
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        actor_seed, critic_seed = ss.spawn(2)
        in_dim = spec.expert_dim + spec.n_skills + MAX_SKILL_SEQUENCE_LEN
        self.actor = Mlp([in_dim, hidden, spec.n_skills + 1], head="softmax", seed=actor_seed)
        self.critic = Mlp([spec.expert_dim, hidden, 1], head="linear", seed=critic_seed)

    def slot_input(
        self, features: np.ndarray, chosen: np.ndarray, slot: int
    ) -> np.ndarray:
        x = np.zeros(self.actor.layer_sizes[0])
        d = features.size
        x[:d] = features
        x[d : d + self.spec.n_skills] = chosen
        x[d + self.spec.n_skills + slot] = 1.0
        return x


def expert_act(
    policy: ExpertPolicy,
    state: ExpertState,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> tuple[SkillSequence, float, float]:
    """Sample (or argmax) a skill sequence.

    Returns the sequence, the log-probability of the realized choices under
    the sampling law, and the summed raw per-slot distribution entropies.
    STOP is masked on the first slot, so sequences are never empty.
    """
    feat = policy.spec.expert_features(state)
    chosen = np.zeros(policy.spec.n_skills)
    skills: list[int] = []
    log_prob = 0.0
    entropy = 0.0
    for slot in range(MAX_SKILL_SEQUENCE_LEN):
        p = policy.actor.forward(policy.slot_input(feat, chosen, slot))
        entropy += _entropy(p)
        q = _masked(p, policy.stop_index) if slot == 0 else p
        if greedy:
            sym = int(np.argmax(q))
        else:
            sym = int(rng.choice(q.size, p=q / q.sum()))
        log_prob += float(np.log(q[sym]))
        if sym == policy.stop_index:
            break
        skills.append(sym)
        chosen[sym] = 1.0
    return SkillSequence(tuple(skills)), log_prob, entropy


def expert_loss(
    policy: ExpertPolicy,
    state: ExpertState,
    action: SkillSequence,
    advantage: float,
) -> tuple[float, np.ndarray]:
    """Entropy-regularized policy-gradient loss for one decision:
    ``-advantage * log pi(action|state) - entropy_coeff * H(pi(.|state))``,
    with its analytic gradient over the actor parameters.

    Teacher-forced: the slot inputs along the realized sequence are stacked
    into one batch, so the actor runs one forward and one backward pass."""
    feat = policy.spec.expert_features(state)
    alpha = policy.entropy_coeff
    stop = policy.stop_index
    symbols = list(action.skills)
    if len(symbols) < MAX_SKILL_SEQUENCE_LEN:
        symbols.append(stop)
    chosen = np.zeros(policy.spec.n_skills)
    rows = []
    for slot, sym in enumerate(symbols):
        rows.append(policy.slot_input(feat, chosen, slot))
        if sym != stop:
            chosen[sym] = 1.0
    x = np.stack(rows)
    p = policy.actor.forward(x)
    log_q, entropy, u = _sequence_terms(p, symbols, stop, advantage, alpha)
    loss = -advantage * log_q - alpha * entropy
    return loss, policy.actor.backward(x, u)


def critic_value(policy: ExpertPolicy, state: ExpertState) -> float:
    return float(policy.critic.forward(policy.spec.expert_features(state))[0])


def critic_loss(
    policy: ExpertPolicy, state: ExpertState, target: float
) -> tuple[float, np.ndarray]:
    """Squared error of the critic's value estimate against a fixed target,
    with its analytic gradient over the critic parameters."""
    feat = policy.spec.expert_features(state)
    v = float(policy.critic.forward(feat)[0])
    loss = (v - target) ** 2
    grad = policy.critic.backward(feat, np.array([2.0 * (v - target)]))
    return loss, grad


# --- responder ------------------------------------------------------------------


class CsaPolicy:
    """Constrained autoregressive response generator."""

    def __init__(
        self,
        spec: FeatureSpec,
        hidden: int = 64,
        loss_weights: tuple[float, float, float] = (1.0, 0.5, 0.01),
        seed=0,
    ):
        self.spec = spec
        self.lambda_pg, self.lambda_skill, self.lambda_div = (
            float(loss_weights[0]),
            float(loss_weights[1]),
            float(loss_weights[2]),
        )
        self.end_index = spec.vocab_size
        # static features + previous-token one-hot + emitted and missing
        # marker multi-hots + position
        in_dim = spec.csa_dim + (spec.vocab_size + 1) + 2 * spec.n_markers + 1
        self.generator = Mlp(
            [in_dim, hidden, spec.vocab_size + 1], head="softmax", seed=seed
        )
        # carriers[w, m] = 1 if output symbol w emits marker m (END emits none)
        self.carriers = np.zeros((spec.vocab_size + 1, spec.n_markers))
        for t, markers in enumerate(spec.token_markers):
            self.carriers[t, sorted(markers)] = 1.0

    def step_input(
        self,
        features: np.ndarray,
        prev_token: int | None,
        emitted_markers: np.ndarray,
        step: int,
    ) -> np.ndarray:
        x = np.zeros(self.generator.layer_sizes[0])
        d = features.size
        x[:d] = features
        if prev_token is not None:
            x[d + prev_token] = 1.0
        d += self.spec.vocab_size + 1
        x[d : d + self.spec.n_markers] = emitted_markers
        # still-missing required markers: the coverage target at this step
        nm = self.spec.n_markers
        required = features[self.spec.n_skills : self.spec.n_skills + nm]
        x[d + nm : d + 2 * nm] = required * (1.0 - emitted_markers)
        x[-1] = step / self.spec.max_response_len
        return x


def csa_act(
    policy: CsaPolicy,
    state: CsaState,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> tuple[Response, float, list[float]]:
    """Generate a response autoregressively until END or the length cap.

    Returns the response, the log-probability of the realized tokens under
    the sampling law (END masked on the first step), and the raw per-step
    distribution entropies."""
    feat = policy.spec.csa_features(state)
    tokens: list[int] = []
    emitted = np.zeros(policy.spec.n_markers)
    prev: int | None = None
    log_prob = 0.0
    entropies: list[float] = []
    for step in range(policy.spec.max_response_len):
        p = policy.generator.forward(policy.step_input(feat, prev, emitted, step))
        entropies.append(_entropy(p))
        q = _masked(p, policy.end_index) if step == 0 else p
        if greedy:
            sym = int(np.argmax(q))
        else:
            sym = int(rng.choice(q.size, p=q / q.sum()))
        log_prob += float(np.log(q[sym]))
        if sym == policy.end_index:
            break
        tokens.append(sym)
        for m in policy.spec.token_markers[sym]:
            emitted[m] = 1.0
        prev = sym
    response = Response(
        tokens=tuple(tokens),
        markers=response_markers(tokens, policy.spec.token_markers),
    )
    return response, log_prob, entropies


def csa_loss(
    policy: CsaPolicy,
    state: CsaState,
    action: Response,
    r_a: float,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Composite responder loss and its analytic gradient.

    ``L_p`` is the policy-gradient term ``-r_a * log pi(action|state)``;
    ``L_s`` is the marker-coverage distance to the constraint, made
    differentiable as one minus the mean probability (under the per-step
    token distributions) that each required marker is emitted at least once;
    ``L_d`` is the negative entropy summed over generation steps, so a
    positive diversity weight pushes the per-step distributions toward
    uniform.  Total is the weighted sum; the per-component values are
    returned unweighted.
    """
    spec = policy.spec
    feat = spec.csa_features(state)
    end = policy.end_index
    tokens = list(action.tokens)
    symbols = tokens + ([end] if len(tokens) < spec.max_response_len else [])

    # Teacher forcing: the step inputs along the realized response form one
    # batch, so the generator runs one forward and one backward pass.
    rows = []
    emitted = np.zeros(spec.n_markers)
    prev: int | None = None
    for step, sym in enumerate(symbols):
        rows.append(policy.step_input(feat, prev, emitted, step))
        if sym != end:
            for m in spec.token_markers[sym]:
                emitted[m] = 1.0
            prev = sym
    x = np.stack(rows)
    p = policy.generator.forward(x)
    lam_p, lam_s, lam_d = policy.lambda_pg, policy.lambda_skill, policy.lambda_div
    log_pi, entropy, u = _sequence_terms(p, symbols, end, lam_p * r_a, lam_d)
    loss_pg = -r_a * log_pi
    loss_div = -entropy

    required = sorted(spec.required_markers(state.constraint))
    n_tok = len(tokens)
    if required and n_tok > 0:
        carriers = policy.carriers[:, required]
        # miss[t, j]: probability step t does not emit a carrier of marker j
        miss = 1.0 - p[:n_tok] @ carriers
        ones = np.ones((1, len(required)))
        prefix = np.concatenate([ones, np.cumprod(miss, axis=0)])
        suffix = np.concatenate([np.cumprod(miss[::-1], axis=0)[::-1], ones])
        loss_skill = float(np.mean(prefix[n_tok]))
        # d(mean_j prod_t miss)/d q_t(m_j), with q = 1 - miss
        g_q = -(prefix[:-1] * suffix[1:]) / len(required)
        u[:n_tok] += lam_s * (g_q @ carriers.T)
    else:
        loss_skill = 0.0

    grad = policy.generator.backward(x, u)
    total = lam_p * loss_pg + lam_s * loss_skill + lam_d * loss_div
    components = {"L_p": loss_pg, "L_s": loss_skill, "L_d": loss_div}
    return total, grad, components
