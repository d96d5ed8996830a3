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

Sampling conventions: acting returns only the symbols it chose.  The
first slot/step masks STOP/END so emitted sequences are never empty.  A
sampled step draws by the package's one draw rule, the environment's
(``simenv.cumulative`` and ``simenv.draw``): ``Generator.choice``'s own
inverse-CDF rule, one ``random()`` searched in the cumulative distribution
(``_draw``), so it picks the index ``rng.choice(q.size, p=q / q.sum())``
would.  A greedy step takes the argmax of the network's logits
(``Mlp.forward(x, logits=True)``), the lowest index on a tie, and runs no
softmax.  Log-probabilities and entropies exist only in the teacher-forced
loss pass (``_sequence_terms``): a sequence's log-probability follows the
sampling law (masked, renormalized first step), while its entropy is that
of the raw per-step distributions including the stop symbol.  Every loss
here is a deterministic function of (parameters, state, action), so all
gradients are checkable against central finite differences.

Each policy defines its network-input row once: ``first_rows`` builds the
step-0 rows of stacked feature rows, and ``advance`` turns one row, in
place, into the next step's row after an emitted symbol.  Acting (``_act``,
the one loop both policies share) advances its one row after each draw;
teacher forcing (``_forced_rows``) replays ``advance`` over each realized
sequence.  So the losses train on exactly the rows acting fed the network.

The losses are teacher-forced over a whole episode: the input rows of every
realized step of every turn are stacked in turn and step order, so each
network runs one forward and one backward pass per episode.  A loss
returns the sum of its turns' losses and gradients.  Called with one turn,
it is the per-turn loss; that case is one line into the episode code, which
the gradient checks therefore exercise.  The planner's losses take the
episode's stacked feature rows (``expert_rows``), computed once per turn
and shared by the critic and the actor.
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
from .simenv import EnvConfig, cumulative, draw

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


def _draw(q: np.ndarray, rng: np.random.Generator) -> int:
    """One draw from ``q / q.sum()`` exactly as ``rng.choice(q.size, p=q /
    q.sum())`` makes it, by the environment's rule (``simenv.draw``): the
    same cumulative distribution, one ``random()``, the same index.  Like
    ``choice``, it raises before drawing when the distribution is not
    finite."""
    return draw(cumulative(q / q.sum()), rng)


def _masked(p: np.ndarray, banned: int) -> np.ndarray:
    q = p.copy()
    q[banned] = 0.0
    return q / q.sum()


def _sequence_terms(
    p: np.ndarray,
    symbols: np.ndarray,
    lengths: np.ndarray,
    banned: int,
    pg_coeffs: np.ndarray,
    entropy_coeff: float,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Teacher-forced terms shared by both policies' losses.

    ``p`` holds one distribution per step of one or more realized symbol
    sequences, stacked in order; sequence ``k`` has ``lengths[k]`` steps and
    ``symbols`` is the realized symbol of every step.  Returns each
    sequence's log-probability under the sampling law (``banned`` masked on
    its first step), the summed raw per-step entropies, and the gradient of
    ``-sum_k pg_coeffs[k] * log_prob[k] - entropy_coeff * entropy`` with
    respect to ``p``."""
    steps = np.arange(len(symbols))
    starts = np.cumsum(lengths) - lengths
    log_p = np.log(p)
    p_sym = p[steps, symbols]
    p_banned = p[starts, banned]
    log_probs = np.add.reduceat(log_p[steps, symbols], starts) - np.log(1.0 - p_banned)
    entropy = float(-np.sum(p * log_p))
    u = entropy_coeff * (log_p + 1.0)
    u[steps, symbols] -= np.repeat(pg_coeffs, lengths) / p_sym
    u[starts, banned] -= pg_coeffs / (1.0 - p_banned)
    return log_probs, entropy, u


def _padded_symbols(
    sequences: list[tuple[int, ...]], cap: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each realized sequence with its closing ``stop`` (absent at the cap),
    padded with ``stop`` to ``cap`` steps: the ``(turns, cap)`` symbol
    matrix, the number of emitted symbols per turn, and the mask of realized
    steps."""
    n_emitted = np.array([len(seq) for seq in sequences])
    symbols = np.full((len(sequences), cap), stop)
    for i, seq in enumerate(sequences):
        symbols[i, : len(seq)] = seq
    realized = np.arange(cap) < (n_emitted + (n_emitted < cap))[:, None]
    return symbols, n_emitted, realized


def _act(policy, net: Mlp, x: np.ndarray, cap: int, stop: int, rng, greedy: bool) -> list[int]:
    """The autoregressive loop both policies act with: from the step-0 row
    ``x``, pick the step's symbol with ``stop`` masked on the first step,
    and advance ``x`` in place, until ``stop`` or ``cap`` steps; one
    ``forward`` per step.  A sampled step runs the network's distribution
    and draws from it.  A greedy step takes the argmax of the logits
    (``forward(x, logits=True)``), the lowest index on a tie.  Returns the
    emitted symbols only: their log-probability and entropies are the loss
    pass's (``_sequence_terms``)."""
    symbols: list[int] = []
    prev = None
    for step in range(cap):
        if greedy:
            z = net.forward(x, logits=True)
            if step == 0:
                # forward returns a fresh array, so the mask goes in place
                z[stop] = -np.inf
            sym = int(z.argmax())
        else:
            p = net.forward(x)
            sym = _draw(_masked(p, stop) if step == 0 else p, rng)
        if sym == stop:
            break
        symbols.append(sym)
        if step < cap - 1:
            policy.advance(x, step, sym, prev)
        prev = sym
    return symbols


def _forced_rows(
    policy, first_rows: np.ndarray, sequences: list[tuple[int, ...]], cap: int
) -> np.ndarray:
    """The teacher-forced input rows of realized sequences: each sequence's
    step-0 row (one row of ``first_rows`` per sequence), then ``advance``
    replayed over its symbols, one row per realized step (the emitted
    symbols and the closing stop, absent at the cap), stacked in sequence
    and step order: the rows acting fed the network."""
    lengths = [min(len(seq) + 1, cap) for seq in sequences]
    x = np.empty((sum(lengths), first_rows.shape[1]))
    i = 0
    for row, seq, n in zip(first_rows, sequences, lengths):
        x[i] = row
        prev = None
        for step in range(n - 1):
            x[i + 1] = x[i]
            i += 1
            policy.advance(x[i], step, seq[step], prev)
            prev = seq[step]
        i += 1
    return x


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

    def first_rows(self, features: np.ndarray) -> np.ndarray:
        """The slot-0 actor rows of stacked feature rows.  An actor row holds
        the planner features, the chosen-skill multi-hot and the slot
        one-hot; at slot 0 no skill is chosen."""
        x = np.zeros((len(features), self.actor.layer_sizes[0]))
        x[:, : self.spec.expert_dim] = features
        x[:, self.spec.expert_dim + self.spec.n_skills] = 1.0
        return x

    def advance(self, x: np.ndarray, slot: int, skill: int, prev: int | None) -> None:
        """Turn the row of ``slot`` into the next slot's row, in place, after
        ``skill`` was chosen at ``slot``.  ``prev``, the skill chosen at the
        slot before, is not needed here; it is the responder's argument."""
        chosen_at = self.spec.expert_dim
        slot_at = chosen_at + self.spec.n_skills
        x[chosen_at + skill] = 1.0
        x[slot_at + slot] = 0.0
        x[slot_at + slot + 1] = 1.0


def expert_act(
    policy: ExpertPolicy,
    state: ExpertState,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> tuple[SkillSequence]:
    """Sample (or argmax) a skill sequence.  STOP is masked on the first
    slot, so sequences are never empty.

    Returns the one-element tuple ``(SkillSequence,)``: the tuple is kept
    only because the benchmark's traced step counter reads the sequence as
    ``result[0]``.  The sequence's log-probability and entropy come from
    ``expert_loss``.
    """
    x = policy.first_rows(policy.spec.expert_features(state)[None])[0]
    skills = _act(policy, policy.actor, x, MAX_SKILL_SEQUENCE_LEN, policy.stop_index, rng, greedy)
    return (SkillSequence(tuple(skills)),)


def expert_rows(policy: ExpertPolicy, states) -> np.ndarray:
    """The feature row of each planner state, stacked (one row for one
    state): the critic's input and the head of every actor slot row."""
    if isinstance(states, ExpertState):
        states = (states,)
    return np.stack([policy.spec.expert_features(s) for s in states])


def expert_loss(
    policy: ExpertPolicy,
    state,
    action,
    advantage,
) -> tuple[float, np.ndarray]:
    """Entropy-regularized policy-gradient loss of planner decisions:
    ``-advantage * log pi(action|state) - entropy_coeff * H(pi(.|state))``,
    with its analytic gradient over the actor parameters.

    ``state``, ``action`` and ``advantage`` are one decision's, or an
    episode's: its stacked feature rows (``expert_rows``) with one action
    and one advantage per row, whose losses and gradients are summed.  The
    slot rows of every realized sequence are stacked, so the actor runs one
    forward and one backward pass."""
    if isinstance(state, ExpertState):
        return expert_loss(policy, expert_rows(policy, state), [action], [advantage])
    cap = MAX_SKILL_SEQUENCE_LEN
    sequences = [a.skills for a in action]
    symbols, _, realized = _padded_symbols(sequences, cap, policy.stop_index)
    x = _forced_rows(policy, policy.first_rows(state), sequences, cap)
    p = policy.actor.forward(x)
    advantage = np.asarray(advantage, dtype=float)
    alpha = policy.entropy_coeff
    log_q, entropy, u = _sequence_terms(
        p, symbols[realized], realized.sum(axis=1), policy.stop_index, advantage, alpha
    )
    loss = float(-(advantage @ log_q) - alpha * entropy)
    return loss, policy.actor.backward(x, u)


def critic_value(policy: ExpertPolicy, state):
    """The critic's value of one planner state, or the array of values of
    stacked feature rows (``expert_rows``) from one forward pass."""
    if isinstance(state, ExpertState):
        return float(critic_value(policy, expert_rows(policy, state))[0])
    return policy.critic.forward(state)[:, 0]


def critic_loss(
    policy: ExpertPolicy, state, target, values: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Squared error of the critic's value estimates against fixed targets,
    with its analytic gradient over the critic parameters.

    ``state`` and ``target`` are one state's, or an episode's stacked
    feature rows (``expert_rows``) and one target per row, whose losses and
    gradients are summed.  ``values`` are the critic's values of those rows
    when the caller already has them from its forward pass; otherwise one
    forward computes them."""
    if isinstance(state, ExpertState):
        return critic_loss(policy, expert_rows(policy, state), [target])
    if values is None:
        values = critic_value(policy, state)
    err = values - np.asarray(target, dtype=float)
    return float(err @ err), policy.critic.backward(state, 2.0 * err[:, None])


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

    def first_rows(self, features: np.ndarray) -> np.ndarray:
        """The step-0 generator rows of stacked feature rows.  A generator
        row holds the responder features, the previous-token one-hot, the
        markers emitted so far, the required markers still missing (the
        coverage target at this step) and the position; at step 0 there is
        no previous token, nothing is emitted and every required marker is
        missing."""
        spec = self.spec
        x = np.zeros((len(features), self.generator.layer_sizes[0]))
        x[:, : spec.csa_dim] = features
        missing_at = spec.csa_dim + spec.vocab_size + 1 + spec.n_markers
        required = features[:, spec.n_skills : spec.n_skills + spec.n_markers]
        x[:, missing_at : missing_at + spec.n_markers] = required
        return x

    def advance(self, x: np.ndarray, step: int, token: int, prev: int | None) -> None:
        """Turn the row of ``step`` into the next step's row, in place, after
        ``token`` was emitted at ``step`` (``prev`` at the step before)."""
        spec = self.spec
        prev_at = spec.csa_dim
        emitted_at = prev_at + spec.vocab_size + 1
        missing_at = emitted_at + spec.n_markers
        if prev is not None:
            x[prev_at + prev] = 0.0
        x[prev_at + token] = 1.0
        for m in spec.token_markers[token]:
            x[emitted_at + m] = 1.0
            x[missing_at + m] = 0.0
        x[-1] = (step + 1) / spec.max_response_len


def csa_act(
    policy: CsaPolicy,
    state: CsaState,
    rng: np.random.Generator | None,
    greedy: bool = False,
) -> tuple[Response]:
    """Generate a response autoregressively until END or the length cap;
    END is masked on the first step.

    Returns the one-element tuple ``(Response,)``: the tuple is kept only
    because the benchmark's traced step counter reads the response as
    ``result[0]``.  The response's log-probability and entropies come from
    ``csa_loss`` (``L_p`` and ``L_d``)."""
    spec = policy.spec
    x = policy.first_rows(spec.csa_features(state)[None])[0]
    tokens = _act(
        policy, policy.generator, x, spec.max_response_len, policy.end_index, rng, greedy
    )
    response = Response(
        tokens=tuple(tokens),
        markers=response_markers(tokens, spec.token_markers),
    )
    return (response,)


def csa_loss(
    policy: CsaPolicy,
    state,
    action,
    r_a,
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

    ``state``, ``action`` and ``r_a`` are one turn's, or equal-length
    sequences over an episode's turns, whose losses, components and
    gradients are summed.
    """
    if isinstance(state, CsaState):
        return csa_loss(policy, [state], [action], [r_a])
    spec = policy.spec
    cap, nm = spec.max_response_len, spec.n_markers
    sequences = [a.tokens for a in action]
    symbols, n_tok, realized = _padded_symbols(sequences, cap, policy.end_index)

    # Teacher forcing: the step rows of every realized response form one
    # batch, so the generator runs one forward and one backward pass.
    feats = np.stack([spec.csa_features(s) for s in state])
    x = _forced_rows(policy, policy.first_rows(feats), sequences, cap)
    p = policy.generator.forward(x)
    required = feats[:, spec.n_skills : spec.n_skills + nm]
    lam_p, lam_s, lam_d = policy.lambda_pg, policy.lambda_skill, policy.lambda_div
    r_a = np.asarray(r_a, dtype=float)
    log_pi, entropy, u = _sequence_terms(
        p, symbols[realized], realized.sum(axis=1), policy.end_index, lam_p * r_a, lam_d
    )
    loss_pg = float(-(r_a @ log_pi))
    loss_div = -entropy

    # Coverage per turn over its token steps: miss[i, t, m] is the
    # probability that step t of turn i emits no carrier of marker m, set to
    # 1 on the END step and past it; a turn without tokens or required
    # markers has zero weight.
    n_req = required.sum(axis=1, keepdims=True)
    weight = np.where((n_req > 0) & (n_tok[:, None] > 0), required / np.maximum(n_req, 1), 0.0)
    on_token = np.arange(cap) < n_tok[:, None]
    miss = np.ones((len(state), cap, nm))
    miss[on_token] = 1.0 - p[on_token[realized]] @ policy.carriers
    ones = np.ones((len(state), 1, nm))
    prefix = np.concatenate([ones, np.cumprod(miss, axis=1)], axis=1)
    suffix = np.concatenate([np.cumprod(miss[:, ::-1], axis=1)[:, ::-1], ones], axis=1)
    loss_skill = float(np.sum(prefix[:, -1] * weight))
    # d(weighted sum_m prod_t miss)/d q_t(m), with q = 1 - miss
    g_q = -(prefix[:, :-1] * suffix[:, 1:]) * weight[:, None, :] * on_token[:, :, None]
    u += lam_s * (g_q[realized] @ policy.carriers.T)

    grad = policy.generator.backward(x, u)
    total = lam_p * loss_pg + lam_s * loss_skill + lam_d * loss_div
    components = {"L_p": loss_pg, "L_s": loss_skill, "L_d": loss_div}
    return total, grad, components
