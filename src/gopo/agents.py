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

Sampling conventions: acting returns only the symbols it chose.  Every
step reads the network's logits (``Mlp.forward(x, logits=True)``) and
runs no softmax.  The first slot/step masks STOP/END so emitted sequences
are never empty.  A sampled step draws from the law of ``stable_softmax``,
the floored softmax the loss pass uses, masked and renormalised on the
first step: it takes that law's unnormalised weights
(``neural.softmax_weights``, row by row), zeroes STOP/END on the first
step, and makes one draw from their cumulative sum by the package's one
draw rule (``simenv.draw``: one ``random()`` scaled by the total and
searched from the right).  The index is the one ``rng.choice(q.size,
p=q)`` picks on the normalised law ``q``, from the same one ``random()``,
except when that ``random()`` falls within rounding of a boundary.
Non-finite logits raise ``NonFiniteLogits`` (a ``ValueError``) before any
draw, sampled or greedy.  Both policies act in one loop, ``_block_act``:
every step is one ``forward(X, logits=True)`` over a block of rows; a
greedy live row takes the argmax of its logits, the lowest index on a tie,
and a sampled live row makes one draw from its own generator.  A block act
(``block_act``, for either policy) runs ``BLOCK`` rows, padded with
finished and unused rows, so every logit comes from a ``BLOCK``-row
product and (on every OpenBLAS kernel checked, see ``BLOCK``) a row's
symbols and draws depend neither on its position nor on the other rows.
A single act (``expert_act``, ``csa_act``) runs its state's one row,
greedy when given no generator; a one-row product's bits, which the
oracles share, are not a block row's bits.  Training samples the planner
with single acts, so a traced training run still sees its act spans.
Log-probabilities and entropies exist only in the teacher-forced loss pass
(``_sequence_terms``): a sequence's log-probability follows the sampling
law (masked, renormalized first step), while its entropy is that of the
raw per-step distributions including the stop symbol.  Every loss here is
a deterministic function of (parameters, state, action), so all gradients
are checkable against central finite differences.

Both policies are sequence policies with one interface, which the act
loop, the block act and teacher forcing use alike: ``net``, the sequence
network (the planner's actor, the responder's generator); ``cap``, the
most symbols a sequence holds; ``stop``, the symbol that ends it early
(STOP or END); ``features``, a state's feature row; ``action``, the act's
value (``SkillSequence`` or ``Response``) of the emitted symbols; and the
network-input row, defined once: ``first_rows`` builds the step-0 rows of
stacked feature rows, and ``advance`` turns one row, in place, into the
next step's row after an emitted symbol.  Acting (``_block_act``)
advances each live row after each step; teacher forcing (``_forced_rows``)
replays ``advance`` over each realized sequence.  So the losses train on
exactly the rows acting fed the network.

The losses are teacher-forced over a whole episode: the input rows of every
realized step of every turn are stacked in turn and step order, so each
network runs one forward and one backward pass per episode.  A loss
returns the sum of its turns' losses and gradients.  The planner's losses
take the episode's stacked feature rows (``expert_rows``), computed once
per turn and shared by the critic and the actor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CsaState,
    ExpertState,
    MAX_SKILL_SEQUENCE_LEN,
    NUM_MILESTONES,
    Response,
    SkillSequence,
    response_markers,
)
from .neural import Mlp, NonFiniteLogits, softmax_weights
from .simenv import EnvConfig, draw

_BUSINESS_DIM = 6  # order status one-hot (3) + stock level one-hot (3)

# Rows of every block act, greedy or sampled.  A multiple of 4 below 256: a
# row's bits in such a product depend neither on its position nor on the
# other rows, so neither do its symbols or its generator's draws.  Checked
# on each OpenBLAS 0.3.31 kernel the CPU runs, SkylakeX, Haswell,
# Sandybridge, Nehalem and Katmai on an AVX-512 CPU (tests/test_invariance.py);
# other kernels (ARM) are unchecked.  The bits themselves differ between
# kernels, so checkpoints are byte-identical per kernel only.  They are not
# a one-row product's bits (on the trained checkpoints every row's logits
# differed, by up to 3.6e-15), so a single act of a state can differ from
# its block row at a tie or a draw's boundary.
BLOCK = 8
_BLOCK_ROWS = np.arange(BLOCK)
# a sampled step's live rows passed ``softmax_weights``'s finiteness check
_ALL_FINITE = (True,) * BLOCK


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
            + NUM_MILESTONES
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
        for markers in state.history:
            for m in markers:
                f[off + m] += 1.0
        f[off : off + self.n_markers] /= max(self.history_window, 1)
        off += self.n_markers
        f[off + state.phase - 1] = 1.0
        off += NUM_MILESTONES
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
    policy, sequences: list[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each realized sequence with its closing stop symbol (absent at the
    cap), padded with the stop symbol to the longest one's steps, at most
    the cap: the ``(turns, steps)`` symbol matrix, the number of emitted
    symbols per turn, and the mask of realized steps."""
    n_emitted = np.array([len(seq) for seq in sequences])
    n_steps = n_emitted + (n_emitted < policy.cap)
    symbols = np.full((len(sequences), n_steps.max()), policy.stop)
    for i, seq in enumerate(sequences):
        symbols[i, : len(seq)] = seq
    realized = np.arange(symbols.shape[1]) < n_steps[:, None]
    return symbols, n_emitted, realized


def _block_act(policy, x: np.ndarray, rows, rngs=None) -> list[list[int]]:
    """The one act loop of both policies: ``x`` holds a block of step-0
    rows (``BLOCK`` for a block act, one for a single act), of which
    ``rows`` are live.  Each step is one ``forward(x, logits=True)`` of the
    policy's ``net`` over the whole block, with its ``stop`` symbol masked
    on the first step; each live row picks a symbol and is advanced in
    place, until it picks ``stop`` or reaches ``cap`` steps.  Greedy
    (``rngs`` None), a row takes the argmax of its logits, the lowest index
    on a tie, and a live row whose chosen logit is not finite raises
    ``NonFiniteLogits`` (``argmax`` picks the first NaN if there is one).
    Sampled, the live rows' ``softmax_weights`` are cumulated row-wise and
    live row ``r`` makes one ``simenv.draw`` from ``rngs[r]``; only live
    rows are weighed, so a padding row neither raises nor warns, and a live
    row's non-finite logits raise before any draw.  Finished and unused
    rows stay in ``x`` (padding, never compaction), so a row's symbols do
    not depend on its position or on the other rows.  Returns each live
    row's emitted symbols, in the order of ``rows``."""
    forward, advance = policy.net.forward, policy.advance
    cap, stop = policy.cap, policy.stop
    block_rows = _BLOCK_ROWS[: len(x)]
    symbols: list[list[int]] = [[] for _ in range(len(x))]
    live = list(rows)
    last = cap - 1
    for step in range(cap):
        # forward and softmax_weights return fresh arrays, so the step-0
        # mask goes in place
        z = forward(x, logits=True)
        if rngs is None:
            if step == 0:
                z[:, stop] = -np.inf
            picks = z.argmax(axis=1)
            finite = np.isfinite(z[block_rows, picks]).tolist()
            picks = picks.tolist()
        else:
            w = softmax_weights(z[live])
            if step == 0:
                w[:, stop] = 0.0
            cdfs = np.add.accumulate(w, axis=1)
            picks = {r: draw(cdf, rngs[r]) for r, cdf in zip(live, cdfs)}
            finite = _ALL_FINITE
        still = []
        for r in live:
            if not finite[r]:
                raise NonFiniteLogits("logits are not finite")
            sym = picks[r]
            if sym != stop:
                seq = symbols[r]
                if step < last:
                    advance(x[r], step, sym, seq[-1] if seq else None)
                seq.append(sym)
                still.append(r)
        if not still:
            break
        live = still
    return [symbols[r] for r in rows]


def _one_act(policy, state, rng: np.random.Generator | None) -> tuple:
    """A single act: ``_block_act`` over the state's one step-0 row, a
    ``(1, d)`` product, greedy when ``rng`` is None.  Returns the
    one-element tuple of the act's action."""
    x = policy.first_rows(policy.features(state)[None])
    (symbols,) = _block_act(policy, x, [0], None if rng is None else [rng])
    return (policy.action(symbols),)


def block_act(policy, rows, states, rngs=None) -> list:
    """The actions of up to ``BLOCK`` states of either policy, state ``k``
    at block row ``rows[k]``, in one ``_block_act`` loop; the other rows
    are padding (the step-0 rows of zero features).  Greedy without
    ``rngs``; otherwise sampled, block row ``r`` drawing from ``rngs[r]``."""
    feats = np.stack([policy.features(s) for s in states])
    block = np.zeros((BLOCK, feats.shape[1]))
    block[rows] = feats
    symbols = _block_act(policy, policy.first_rows(block), rows, rngs)
    return [policy.action(s) for s in symbols]


def _forced_rows(
    policy, first_rows: np.ndarray, sequences: list[tuple[int, ...]]
) -> np.ndarray:
    """The teacher-forced input rows of realized sequences: each sequence's
    step-0 row (one row of ``first_rows`` per sequence), then ``advance``
    replayed over its symbols, one row per realized step (the emitted
    symbols and the closing stop, absent at the cap), stacked in sequence
    and step order: the rows acting fed the network."""
    lengths = [min(len(seq) + 1, policy.cap) for seq in sequences]
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
    """Skill-sequence actor (``net``) plus state-value critic."""

    def __init__(
        self,
        spec: FeatureSpec,
        hidden: int,
        entropy_coeff: float,
        seed,
    ):
        self.spec = spec
        self.entropy_coeff = float(entropy_coeff)
        self.cap = MAX_SKILL_SEQUENCE_LEN
        self.stop = spec.n_skills
        actor_seed, critic_seed = np.random.SeedSequence(seed).spawn(2)
        in_dim = spec.expert_dim + spec.n_skills + self.cap
        self.net = Mlp([in_dim, hidden, spec.n_skills + 1], head="softmax", seed=actor_seed)
        self.critic = Mlp([spec.expert_dim, hidden, 1], head="linear", seed=critic_seed)
        # where the chosen-skill multi-hot and the slot one-hot start in an
        # actor row
        self._chosen_at = spec.expert_dim
        self._slot_at = spec.expert_dim + spec.n_skills

    def features(self, state: ExpertState) -> np.ndarray:
        return self.spec.expert_features(state)

    def action(self, skills: list[int]) -> SkillSequence:
        return SkillSequence(tuple(skills))

    def first_rows(self, features: np.ndarray) -> np.ndarray:
        """The slot-0 actor rows of stacked feature rows.  An actor row holds
        the planner features, the chosen-skill multi-hot and the slot
        one-hot; at slot 0 no skill is chosen."""
        x = np.zeros((len(features), self.net.layer_sizes[0]))
        x[:, : self._chosen_at] = features
        x[:, self._slot_at] = 1.0
        return x

    def advance(self, x: np.ndarray, slot: int, skill: int, prev: int | None) -> None:
        """Turn the row of ``slot`` into the next slot's row, in place, after
        ``skill`` was chosen at ``slot``.  ``prev``, the skill chosen at the
        slot before, is not needed here; it is the responder's argument."""
        x[self._chosen_at + skill] = 1.0
        x[self._slot_at + slot] = 0.0
        x[self._slot_at + slot + 1] = 1.0


def expert_act(
    policy: ExpertPolicy, state: ExpertState, rng: np.random.Generator | None
) -> tuple[SkillSequence]:
    """A skill sequence sampled from ``rng``, or the greedy one when ``rng``
    is None: a single act (``_one_act``).  STOP is masked on the first
    slot, so sequences are never empty.

    Returns the one-element tuple ``(SkillSequence,)``: the tuple is kept
    only because the benchmark's traced step counter reads the sequence as
    ``result[0]``.  The sequence's log-probability and entropy come from
    ``expert_loss``.
    """
    return _one_act(policy, state, rng)


def expert_rows(policy: ExpertPolicy, states) -> np.ndarray:
    """The feature rows of a sequence of planner states, stacked: the
    critic's input and the head of every actor slot row."""
    return np.stack([policy.features(s) for s in states])


def expert_loss(
    policy: ExpertPolicy,
    rows: np.ndarray,
    actions,
    advantages,
) -> tuple[float, np.ndarray]:
    """Entropy-regularized policy-gradient loss of an episode's planner
    decisions: ``-advantage * log pi(action|state) - entropy_coeff *
    H(pi(.|state))`` summed over the turns, with its analytic gradient over
    the actor parameters.

    ``rows`` are the episode's stacked feature rows (``expert_rows``), with
    one action and one advantage per row.  The slot rows of every realized
    sequence are stacked, so the actor runs one forward and one backward
    pass."""
    sequences = [a.skills for a in actions]
    symbols, _, realized = _padded_symbols(policy, sequences)
    x = _forced_rows(policy, policy.first_rows(rows), sequences)
    p = policy.net.forward(x)
    advantages = np.asarray(advantages, dtype=float)
    alpha = policy.entropy_coeff
    log_q, entropy, u = _sequence_terms(
        p, symbols[realized], realized.sum(axis=1), policy.stop, advantages, alpha
    )
    loss = float(-(advantages @ log_q) - alpha * entropy)
    return loss, policy.net.backward(x, u)


def critic_value(policy: ExpertPolicy, rows: np.ndarray) -> np.ndarray:
    """The critic's values of stacked feature rows (``expert_rows``), from
    one forward pass."""
    return policy.critic.forward(rows)[:, 0]


def critic_loss(
    policy: ExpertPolicy, rows: np.ndarray, targets, values: np.ndarray
) -> tuple[float, np.ndarray]:
    """Squared error of the critic's values of an episode's stacked feature
    rows (``expert_rows``) against fixed targets, one per row, summed, with
    its analytic gradient over the critic parameters.  ``values`` are the
    critic's values of those rows (``critic_value``), which the caller
    already has from its forward pass."""
    err = values - np.asarray(targets, dtype=float)
    return float(err @ err), policy.critic.backward(rows, 2.0 * err[:, None])


# --- responder ------------------------------------------------------------------


class CsaPolicy:
    """Constrained autoregressive response generator (``net``)."""

    def __init__(
        self,
        spec: FeatureSpec,
        hidden: int,
        loss_weights: tuple[float, float, float],
        seed,
    ):
        self.spec = spec
        self.lambda_pg, self.lambda_skill, self.lambda_div = map(float, loss_weights)
        self.cap = spec.max_response_len
        self.stop = spec.vocab_size
        # static features + previous-token one-hot + emitted and missing
        # marker multi-hots + position
        in_dim = spec.csa_dim + (spec.vocab_size + 1) + 2 * spec.n_markers + 1
        self.net = Mlp([in_dim, hidden, spec.vocab_size + 1], head="softmax", seed=seed)
        # where the previous-token one-hot and the emitted and missing marker
        # multi-hots start in a generator row
        self._prev_at = spec.csa_dim
        self._emitted_at = self._prev_at + spec.vocab_size + 1
        self._missing_at = self._emitted_at + spec.n_markers
        # carriers[w, m] = 1 if output symbol w emits marker m (END emits none)
        self.carriers = np.zeros((spec.vocab_size + 1, spec.n_markers))
        for t, markers in enumerate(spec.token_markers):
            self.carriers[t, sorted(markers)] = 1.0
        # per token, the (emitted, missing) row positions of each marker it
        # carries: what ``advance`` sets and clears
        self._marker_slots = tuple(
            tuple((self._emitted_at + m, self._missing_at + m) for m in sorted(markers))
            for markers in spec.token_markers
        )

    def features(self, state: CsaState) -> np.ndarray:
        return self.spec.csa_features(state)

    def action(self, tokens: list[int]) -> Response:
        markers = response_markers(tokens, self.spec.token_markers)
        return Response(tokens=tuple(tokens), markers=markers)

    def first_rows(self, features: np.ndarray) -> np.ndarray:
        """The step-0 generator rows of stacked feature rows.  A generator
        row holds the responder features, the previous-token one-hot, the
        markers emitted so far, the required markers still missing (the
        coverage target at this step) and the position; at step 0 there is
        no previous token, nothing is emitted and every required marker is
        missing."""
        spec = self.spec
        x = np.zeros((len(features), self.net.layer_sizes[0]))
        x[:, : self._prev_at] = features
        required = features[:, spec.n_skills : spec.n_skills + spec.n_markers]
        x[:, self._missing_at : self._missing_at + spec.n_markers] = required
        return x

    def advance(self, x: np.ndarray, step: int, token: int, prev: int | None) -> None:
        """Turn the row of ``step`` into the next step's row, in place, after
        ``token`` was emitted at ``step`` (``prev`` at the step before)."""
        if prev is not None:
            x[self._prev_at + prev] = 0.0
        x[self._prev_at + token] = 1.0
        for emitted, missing in self._marker_slots[token]:
            x[emitted] = 1.0
            x[missing] = 0.0
        x[-1] = (step + 1) / self.cap


def csa_act(
    policy: CsaPolicy, state: CsaState, rng: np.random.Generator | None
) -> tuple[Response]:
    """A response sampled from ``rng``, or the greedy one when ``rng`` is
    None: a single act (``_one_act``), emitting tokens until END or the
    length cap, END masked on the first step.

    Returns the one-element tuple ``(Response,)``: the tuple is kept only
    because the benchmark's traced step counter reads the response as
    ``result[0]``.  The response's log-probability and entropies come from
    ``csa_loss`` (``L_p`` and ``L_d``)."""
    return _one_act(policy, state, rng)


def csa_loss(
    policy: CsaPolicy,
    states,
    actions,
    r_a,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Composite responder loss of an episode's turns and its analytic
    gradient.

    ``L_p`` is the policy-gradient term ``-r_a * log pi(action|state)``;
    ``L_s`` is the marker-coverage distance to the constraint, made
    differentiable as one minus the mean probability (under the per-step
    token distributions) that each required marker is emitted at least once;
    ``L_d`` is the negative entropy summed over generation steps, so a
    positive diversity weight pushes the per-step distributions toward
    uniform.  Total is the weighted sum; the per-component values are
    returned unweighted.

    ``states``, ``actions`` and ``r_a`` are equal-length sequences over the
    episode's turns, whose losses, components and gradients are summed.
    """
    spec = policy.spec
    nm = spec.n_markers
    sequences = [a.tokens for a in actions]
    symbols, n_tok, realized = _padded_symbols(policy, sequences)

    # Teacher forcing: the step rows of every realized response form one
    # batch, so the generator runs one forward and one backward pass.
    feats = np.stack([policy.features(s) for s in states])
    x = _forced_rows(policy, policy.first_rows(feats), sequences)
    p = policy.net.forward(x)
    required = feats[:, spec.n_skills : spec.n_skills + nm]
    lam_p, lam_s, lam_d = policy.lambda_pg, policy.lambda_skill, policy.lambda_div
    r_a = np.asarray(r_a, dtype=float)
    log_pi, entropy, u = _sequence_terms(
        p, symbols[realized], realized.sum(axis=1), policy.stop, lam_p * r_a, lam_d
    )
    loss_pg = float(-(r_a @ log_pi))
    loss_div = -entropy

    # Coverage per turn over its token steps: miss[i, t, m] is the
    # probability that step t of turn i emits no carrier of marker m, set to
    # 1 on the END step and past it; a turn without tokens or required
    # markers has zero weight.  Steps past the longest realized response
    # would only multiply by exact ones, so the cap does not size ``miss``.
    n_req = required.sum(axis=1, keepdims=True)
    weight = np.where((n_req > 0) & (n_tok[:, None] > 0), required / np.maximum(n_req, 1), 0.0)
    on_token = np.arange(realized.shape[1]) < n_tok[:, None]
    miss = np.ones((len(states), realized.shape[1], nm))
    miss[on_token] = 1.0 - p[on_token[realized]] @ policy.carriers
    ones = np.ones((len(states), 1, nm))
    prefix = np.concatenate([ones, np.cumprod(miss, axis=1)], axis=1)
    suffix = np.concatenate([np.cumprod(miss[:, ::-1], axis=1)[:, ::-1], ones], axis=1)
    loss_skill = float(np.sum(prefix[:, -1] * weight))
    # d(weighted sum_m prod_t miss)/d q_t(m), with q = 1 - miss
    g_q = -(prefix[:, :-1] * suffix[:, 1:]) * weight[:, None, :] * on_token[:, :, None]
    u += lam_s * (g_q[realized] @ policy.carriers.T)

    grad = policy.net.backward(x, u)
    total = lam_p * loss_pg + lam_s * loss_skill + lam_d * loss_div
    components = {"L_p": loss_pg, "L_s": loss_skill, "L_d": loss_div}
    return total, grad, components
