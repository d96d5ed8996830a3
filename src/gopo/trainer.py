"""Hierarchical rollout and optimization loop.

Per turn of a rollout the planner picks a skill sequence, the responder
generates under that constraint, and the environment scores the turn
(``DialogueEnv.step``: the plan by its normalized ranking gain against the
scenario entry's reference sequence, the response by the judge, and the two
mixed by the turn-indexed schedule into the joint reward); the player only
acts and records.  ``_play`` draws every trajectory with one ``rollout``
pull, in episode order.  Episodes, sampled for training or greedy for
evaluation, are played in lockstep blocks of ``agents.BLOCK`` consecutive
ids (``_play_block``), each on its own environment, the first pull of a
block playing all of it.  Every turn of a block is one responder block act
(``agents.block_act``) over all live episodes; the planner acts in one
block act when greedy and in one single act (``agents.expert_act``) per
live episode when sampled.  A sampled episode draws from its own
generator, in the same order as when it is played alone.  Blocks are
padded, never compacted, so an episode's bytes do not depend on the
episodes it is played with.

The planner learns from the joint reward: a TD(0) advantage drives its
policy gradient and the critic regresses the TD target.  The responder
learns from its own judge reward: its policy-gradient coefficient is
``r_csa`` minus a running baseline, an exponential moving average (decay
0.99, starting at 0.5) updated turn by turn in rollout order.  The baseline
lives only for the duration of ``train`` and is not checkpointed.  In the
no-planner ablation the responder conditions on a null constraint.

An update takes one teacher-forced pass per network per episode
(``episode_gradients``): the planner's feature rows are built once per
turn, one critic forward over them gives the values behind both the
advantages and the critic loss, and the actor, critic and responder each run
one forward and one backward over all of the episode's rows.  The
responder's coefficients come first, from one scalar loop over the batch's
turns in rollout order (``responder_coefficients``).

Reference sequences shape rewards only; they are never supervised targets.
Milestone and task-efficiency signals are never read during training, so
evaluation gains are attributable to the reward stack.

All randomness derives from the training seed: episode i uses generators
seeded from (seed, i), evaluation episodes from a disjoint stream shared
across variants, so identical configurations reproduce byte-identical run
directories.

Run directory layout::

    config.copy                          the run's config as parsed, as JSON
    trajectories.jsonl                   every training rollout, in order
    metrics.csv                          periodic greedy evaluation rows
    curves.csv                           step,mean_joint_reward,expert_loss,csa_loss
    checkpoints/{expert,critic,csa}-{step}.ckpt   each network's parameters
    final_report.csv                     final evaluation row

``config.copy`` is ``simenv.to_json`` of the parsed config, which parses
back to the same config.  A checkpoint holds one network's architecture and
parameters only; the Adam moments, like the responder's baseline, live only
for the duration of ``train``.  ``gopo eval`` rebuilds the policies with
``build_policies`` and reads the latest step saved for every network back
with ``load_checkpoints``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .agents import (
    BLOCK,
    CsaPolicy,
    ExpertPolicy,
    FeatureSpec,
    block_act,
    critic_loss,
    critic_value,
    csa_loss,
    expert_act,
    expert_loss,
    expert_rows,
)
from .core import CsaState, Trajectory, TurnRecord, trajectory_to_json
from .metrics import METRIC_CSV_HEADER, MetricReport, TseConfig, aggregate
from .neural import AdamState, Mlp, NonFiniteLogits, adam_step, clip_grad_norm
from .neural import load_checkpoint, save_checkpoint
from .rewards import RewardConfig
from .simenv import (
    ConfigError,
    DialogueEnv,
    EnvConfig,
    parse_fields,
    reference_responses,
    to_json,
)

VARIANTS = ("full", "no-expert", "untrained")

CURVES_CSV_HEADER = "step,mean_joint_reward,expert_loss,csa_loss"

GRAD_CLIP_NORM = 5.0

# Stream tags keeping per-episode, evaluation, and initialization seeds disjoint.
_STREAM_TRAIN = 0x0
_STREAM_EVAL = 0x5EED
_STREAM_EXPERT_INIT = 0xE1
_STREAM_CSA_INIT = 0xC5


class TrainingDiverged(RuntimeError):
    """Raised when a loss or an act's logits go non-finite; diagnostics first."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and run-control parameters; no field has a default."""

    episodes: int
    discount: float
    batch_size: int
    lr_expert_actor: float
    lr_expert_critic: float
    lr_csa: float
    entropy_coeff: float
    lambda_pg: float
    lambda_skill: float
    lambda_diversity: float
    hidden_size: int
    critic_warmup: int
    eval_every: int
    eval_episodes: int
    seed: int
    variant: str

    def __post_init__(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError(f"train.discount must be in (0, 1], got {self.discount}")
        for name in ("lr_expert_actor", "lr_expert_critic", "lr_csa"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"train.{name} must be positive")
        for name in ("entropy_coeff", "lambda_pg", "lambda_skill", "lambda_diversity"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be non-negative")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"train.variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.episodes < 0:
            raise ConfigError("train.episodes must be non-negative")
        if self.batch_size < 1 or self.eval_every < 1 or self.eval_episodes < 1:
            raise ConfigError("train batch/eval sizes must be positive")
        if self.critic_warmup < 0:
            raise ConfigError("train.critic_warmup must be non-negative")
        if self.seed < 0:
            raise ConfigError("train.seed must be non-negative")
        if self.hidden_size < 1:
            raise ConfigError("train.hidden_size must be positive")


@dataclass(frozen=True)
class GlobalConfig:
    """The four config sections and the output directory: one config file."""

    env: EnvConfig
    reward: RewardConfig
    tse: TseConfig
    train: TrainConfig
    output_dir: str

    @classmethod
    def from_dict(cls, data) -> "GlobalConfig":
        """Strict parse of a whole config file's JSON value (see
        ``parse_fields``)."""
        return parse_fields(cls, data, "")


def episode_seeds(base_seed: int, stream: int, episode_id: int) -> tuple[int, int]:
    """Deterministic (environment seed, agent-sampling seed) pair for one
    episode, derived from the run seed."""
    ss = np.random.SeedSequence((base_seed, stream, episode_id))
    env_ss, agent_ss = ss.spawn(2)
    return int(env_ss.generate_state(1)[0]), int(agent_ss.generate_state(1)[0])


def rollout(episodes: Iterator[Trajectory]) -> Trajectory:
    """The next trajectory of ``episodes``: the one call per played episode,
    in episode order, through which ``_play`` draws every trajectory.
    Whether that episode is played by this pull or was already played with
    its block is the iterator's business."""
    return next(episodes)


def _play_block(
    envs: Sequence[DialogueEnv],
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    env_seeds: Sequence[int],
    episode_ids: Sequence[int],
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[Trajectory]:
    """Play up to ``BLOCK`` episodes in lockstep, episode ``k`` on
    ``envs[k]`` from ``env_seeds[k]`` and at block row ``k``, and return
    their trajectories in order: greedy without ``rngs``, otherwise sampled,
    episode ``k`` drawing from ``rngs[k]``.  Every turn of the block is one
    responder ``block_act`` over the live episodes, after one planner
    ``block_act`` (greedy) or one single ``expert_act`` per live episode
    (sampled); then each live episode steps its own environment, which
    scores the turn, and records its turn.  A finished episode's row stays
    in the block as padding.  Acts, not scoring, run without overflow
    warnings; weights gone non-finite raise ``NonFiniteLogits`` there.

    With ``expert=None`` (the no-planner ablation) the responder receives a
    null constraint, which the environment scores with planner reward 0.
    """
    obs = {k: envs[k].reset(seed) for k, seed in enumerate(env_seeds)}
    turns: list[list[TurnRecord]] = [[] for _ in env_seeds]
    while obs:
        live = list(obs)
        states = [obs[k].expert_state for k in live]
        with np.errstate(over="ignore", invalid="ignore"):
            if expert is None:
                plans = [None] * len(live)
            elif rngs is None:
                plans = block_act(expert, live, states)
            else:
                plans = [expert_act(expert, s, rngs[k])[0] for k, s in zip(live, states)]
            csa_states = [
                CsaState(obs[k].csa_utterance, skills, obs[k].business_ctx)
                for k, skills in zip(live, plans)
            ]
            responses = block_act(csa, live, csa_states, rngs)
        for k, state, csa_state, response in zip(live, states, csa_states, responses):
            obs[k], reward, done = envs[k].step(csa_state.constraint, response)
            turns[k].append(TurnRecord(state, csa_state, response, reward))
            if done:
                del obs[k]
    return [
        _trajectory(env, i, seed, t)
        for env, i, seed, t in zip(envs, episode_ids, env_seeds, turns)
    ]


def _trajectory(
    env: DialogueEnv, episode_id: int, env_seed: int, turns: list[TurnRecord]
) -> Trajectory:
    """The trajectory of the episode ``env`` has just finished."""
    return Trajectory(
        episode_id=episode_id,
        turns=tuple(turns),
        milestones=env.milestone_record(),
        seed=env_seed,
        terminal_reason=env.terminal_reason,
    )


def compute_advantages(
    traj: Trajectory, values: np.ndarray, discount: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-step TD(0) targets on the joint reward, with terminal value 0,
    and the advantages ``target - value`` of every turn; ``values`` are the
    critic's values of the turns' planner states."""
    joint = np.array([t.reward.joint for t in traj.turns])
    targets = joint + discount * np.append(values[1:], 0.0)
    return targets, targets - values


def responder_coefficients(
    batch: list[Trajectory], baseline: float
) -> tuple[list[np.ndarray], float]:
    """The responder's policy-gradient coefficient of every turn, per
    episode, and the baseline after the batch: turn by turn in rollout
    order, the coefficient is ``r_csa`` minus the baseline, which then moves
    to ``0.99 * baseline + 0.01 * r_csa``."""
    coeffs = []
    for traj in batch:
        c = np.empty(len(traj.turns))
        for i, turn in enumerate(traj.turns):
            c[i] = turn.reward.r_csa - baseline
            baseline = 0.99 * baseline + 0.01 * turn.reward.r_csa
        coeffs.append(c)
    return coeffs, baseline


def episode_gradients(
    traj: Trajectory,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    csa_coeffs: np.ndarray,
    discount: float,
) -> dict[str, tuple[float, np.ndarray]]:
    """Loss and gradient, each summed over the episode's turns, of every
    network the policies hold, by checkpoint name.

    Each network runs one forward and one backward pass over the episode.
    The planner's feature rows are built once per turn; the critic's one
    forward over them gives both the advantages and the critic loss."""
    turns = traj.turns
    out = {}
    if expert is not None:
        feats = expert_rows(expert, [t.expert_state for t in turns])
        values = critic_value(expert, feats)
        targets, advantages = compute_advantages(traj, values, discount)
        skills = [t.csa_state.constraint for t in turns]
        out["expert"] = expert_loss(expert, feats, skills, advantages)
        out["critic"] = critic_loss(expert, feats, targets, values)
    loss, grad, _ = csa_loss(
        csa, [t.csa_state for t in turns], [t.response for t in turns], csa_coeffs
    )
    out["csa"] = (loss, grad)
    return out


def _play(
    envs: Sequence[DialogueEnv],
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    base_seed: int,
    stream: int,
    episode_ids: Sequence[int],
    greedy: bool,
) -> list[Trajectory]:
    """Play the given episodes of one seed stream, in order, drawing each
    trajectory with one ``rollout`` pull.  Episodes play in lockstep blocks
    of ``BLOCK`` consecutive ids (``_play_block``) on ``envs``, which holds
    at least as many environments as the largest block; the first pull of
    a block plays all of it."""
    episodes = _episodes(envs, expert, csa, base_seed, stream, episode_ids, greedy)
    # ``rollout`` is looked up on every pull, so a wrapper bound to the
    # module sees one call per episode
    return [rollout(episodes) for _ in episode_ids]


def _episodes(envs, expert, csa, base_seed, stream, episode_ids, greedy) -> Iterator[Trajectory]:
    for start in range(0, len(episode_ids), BLOCK):
        ids = episode_ids[start : start + BLOCK]
        seeds = [episode_seeds(base_seed, stream, i) for i in ids]
        rngs = None if greedy else [np.random.default_rng(agent) for _, agent in seeds]
        yield from _play_block(envs, expert, csa, [env for env, _ in seeds], ids, rngs)


def _block_envs(cfg: GlobalConfig, n_episodes: int) -> list[DialogueEnv]:
    """The environments of blocks of up to ``n_episodes`` episodes."""
    return [DialogueEnv(cfg.env, cfg.reward) for _ in range(min(BLOCK, n_episodes))]


def _evaluate(
    cfg: GlobalConfig,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    n_episodes: int,
    base_seed: int,
) -> tuple[MetricReport, list[Trajectory]]:
    """Greedy evaluation over fresh episodes from the shared eval stream;
    returns the report row (labelled with ``cfg.train.variant``) and the
    evaluated trajectories."""
    envs = _block_envs(cfg, n_episodes)
    trajs = _play(envs, expert, csa, base_seed, _STREAM_EVAL, range(n_episodes), True)
    refs = reference_responses(trajs, cfg.env)
    return aggregate(trajs, cfg.tse, refs, variant=cfg.train.variant), trajs


def build_policies(
    env_cfg: EnvConfig, train_cfg: TrainConfig
) -> tuple[ExpertPolicy | None, CsaPolicy]:
    """The policies of ``train_cfg.variant``, initialised from its seed: a
    planner for ``full`` and ``untrained`` (None for ``no-expert``) and the
    responder.  Networks too large for numpy to allocate raise
    ``ConfigError`` naming ``train.hidden_size``."""
    spec = FeatureSpec.from_env_config(env_cfg)
    expert = None
    try:
        if train_cfg.variant != "no-expert":
            expert = ExpertPolicy(
                spec,
                hidden=train_cfg.hidden_size,
                entropy_coeff=train_cfg.entropy_coeff,
                seed=(train_cfg.seed, _STREAM_EXPERT_INIT),
            )
        csa = CsaPolicy(
            spec,
            hidden=train_cfg.hidden_size,
            loss_weights=(
                train_cfg.lambda_pg,
                train_cfg.lambda_skill,
                train_cfg.lambda_diversity,
            ),
            seed=(train_cfg.seed, _STREAM_CSA_INIT),
        )
    # numpy raises MemoryError when the allocation fails and ValueError when
    # the weight shape exceeds the largest array it can describe
    except (MemoryError, ValueError) as exc:
        raise ConfigError(
            f"train.hidden_size {train_cfg.hidden_size} gives networks too large "
            f"to allocate: {exc}"
        ) from exc
    return expert, csa


def _networks(expert: ExpertPolicy | None, csa: CsaPolicy) -> dict[str, Mlp]:
    """The networks of a run by checkpoint name, in saving order."""
    nets = {} if expert is None else {"expert": expert.net, "critic": expert.critic}
    nets["csa"] = csa.net
    return nets


def load_checkpoints(ckpt_dir, expert: ExpertPolicy | None, csa: CsaPolicy) -> int:
    """Load the latest step at which every network of ``expert`` and ``csa``
    has a checkpoint in ``ckpt_dir`` into those networks; returns the step.

    A missing directory or common step, an unreadable file, or a saved
    network whose layer sizes or head differ from the built one raises
    ``ConfigError`` naming the directory or file."""
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        raise ConfigError(f"checkpoint directory not found: {ckpt_dir}")
    nets = _networks(expert, csa)
    files = [p.name for p in ckpt_dir.iterdir()]
    # only the names ``train`` writes: a step has no leading zero, so every
    # step found opens as ``{name}-{step}.ckpt``
    steps = set.intersection(*(
        {
            int(m[1])
            for f in files
            if (m := re.fullmatch(rf"{name}-(0|[1-9][0-9]*)\.ckpt", f))
        }
        for name in nets
    ))
    if not steps:
        raise ConfigError(
            f"no step in {ckpt_dir} has a checkpoint of each of {', '.join(nets)}"
        )
    step = max(steps)
    for name, net in nets.items():
        path = ckpt_dir / f"{name}-{step}.ckpt"
        try:
            saved_net, _ = load_checkpoint(path)
        except (
            OSError, EOFError, ValueError, LookupError, TypeError, zipfile.BadZipFile
        ) as exc:
            raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
        if (saved_net.layer_sizes, saved_net.head) != (net.layer_sizes, net.head):
            raise ConfigError(
                f"{name} checkpoint shape {saved_net.layer_sizes} ({saved_net.head} "
                f"head) in {path} does not match config shape {net.layer_sizes} "
                f"({net.head} head)"
            )
        net.set_params(saved_net.get_params())
    return step


def _diverged(run_dir: Path, diag: dict, message: str) -> TrainingDiverged:
    """Dump ``diag`` to ``diagnostics.json``; the error that ends the run."""
    (run_dir / "diagnostics.json").write_text(json.dumps(diag, indent=2, allow_nan=False))
    return TrainingDiverged(f"{message}; diagnostics dumped")


@contextlib.contextmanager
def _acting(run_dir: Path, what: str, **where):
    """Non-finite logits met while acting inside end the run as a divergence:
    ``diagnostics.json`` holds ``where`` and says that acting failed."""
    try:
        yield
    except NonFiniteLogits as exc:
        diag = {**where, "acting": str(exc)}
        raise _diverged(run_dir, diag, f"non-finite logits while acting in {what}") from exc


def train(cfg: GlobalConfig, out_dir=None) -> tuple[MetricReport, list[Trajectory]]:
    """Run one training job and populate its run directory, ``out_dir`` or
    else ``cfg.output_dir``; ``config.copy`` is ``cfg`` as given, so where a
    run is placed changes none of its files.

    Batches of rollouts are turned into accumulated gradients (mean over the
    batch's turns, clipped at global norm 5) and Adam steps, one per network
    the variant built.  Per update, the responder's coefficients are taken
    first, turn by turn in rollout order; then every episode, in order,
    adds one forward and one backward pass per network
    (``episode_gradients``).  Every ``eval_every`` updates, and once at the
    end, the greedy policies are evaluated and checkpointed.  The
    ``untrained`` variant skips the update loop entirely and just evaluates
    the random initialization.  Returns the final evaluation's report row
    and trajectories.

    A non-finite loss stops the run with ``TrainingDiverged`` after the
    update's losses are taken; ``diagnostics.json`` (strict JSON, null for
    a non-finite number) names the update, its episodes, the first episode
    and network whose loss is non-finite, and each network's mean loss.
    An act on non-finite logits stops it the same way (``_acting``).
    """
    train_cfg = cfg.train
    envs = _block_envs(cfg, train_cfg.batch_size)
    run_dir = Path(cfg.output_dir if out_dir is None else out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    (run_dir / "config.copy").write_text(
        json.dumps(to_json(cfg), indent=2) + "\n", encoding="utf-8"
    )

    expert, csa = build_policies(cfg.env, train_cfg)
    nets = _networks(expert, csa)
    lrs = dict(
        expert=train_cfg.lr_expert_actor, critic=train_cfg.lr_expert_critic, csa=train_cfg.lr_csa
    )
    adam = {name: AdamState.zeros(net.n_params) for name, net in nets.items()}

    episodes = 0 if train_cfg.variant == "untrained" else train_cfg.episodes
    batches: list[range] = [
        range(start, min(start + train_cfg.batch_size, episodes))
        for start in range(0, episodes, train_cfg.batch_size)
    ]

    def save_ckpts(step: int) -> None:
        for name, net in nets.items():
            save_checkpoint(ckpt_dir / f"{name}-{step}.ckpt", net)

    # Running-mean baseline for the responder's own reward; subtracting a
    # baseline leaves the policy-gradient expectation unchanged while
    # centering the coefficient, and keeps the responder's signal free of
    # planner and bootstrap noise.
    csa_baseline = 0.5
    # one statement, so a failed open closes the files opened before it
    with (
        open(run_dir / "trajectories.jsonl", "w", encoding="utf-8") as traj_fh,
        open(run_dir / "metrics.csv", "w", encoding="utf-8") as metrics_fh,
        open(run_dir / "curves.csv", "w", encoding="utf-8") as curves_fh,
    ):
        metrics_fh.write(METRIC_CSV_HEADER + "\n")
        curves_fh.write(CURVES_CSV_HEADER + "\n")
        for update, episode_ids in enumerate(batches):
            where = {"update": update, "episode_ids": list(episode_ids)}
            with _acting(run_dir, f"update {update}", **where):
                batch = _play(envs, expert, csa, train_cfg.seed, _STREAM_TRAIN, episode_ids, False)
            for traj in batch:
                traj_fh.write(trajectory_to_json(traj) + "\n")

            n_turns = sum(len(t.turns) for t in batch)
            coeffs, csa_baseline = responder_coefficients(batch, csa_baseline)
            grads = {name: np.zeros(net.n_params) for name, net in nets.items()}
            losses = dict.fromkeys(nets, 0.0)
            non_finite = None
            sum_joint = 0.0
            for traj, c in zip(batch, coeffs):
                for turn in traj.turns:
                    sum_joint += turn.reward.joint
                got = episode_gradients(traj, expert, csa, c, train_cfg.discount)
                for name, (loss, grad) in got.items():
                    grads[name] += grad
                    losses[name] += loss
                    if non_finite is None and not math.isfinite(loss):
                        non_finite = {"episode_id": traj.episode_id, "network": name}
            mean_loss = {name: loss / n_turns for name, loss in losses.items()}
            if non_finite is not None:
                diag = {
                    **where,
                    "first_non_finite": non_finite,
                    "mean_loss": {
                        name: loss if math.isfinite(loss) else None
                        for name, loss in mean_loss.items()
                    },
                }
                bad = f"{non_finite['network']} loss in episode {non_finite['episode_id']}"
                raise _diverged(run_dir, diag, f"non-finite {bad} at update {update}")

            for name, net in nets.items():
                # During warmup the planner's actor is frozen while the
                # critic fits the random-policy values and the responder
                # learns to comply with the diverse constraints random
                # planning produces; the actor then starts from centered
                # advantages against an already-compliant responder.
                if name == "expert" and update < train_cfg.critic_warmup:
                    continue
                g = clip_grad_norm(grads[name] / n_turns, GRAD_CLIP_NORM)
                params, adam[name] = adam_step(net.get_params(), g, adam[name], lrs[name])
                net.set_params(params)

            step = update + 1
            curves_fh.write(
                f"{step},{sum_joint / n_turns:.6f},"
                f"{mean_loss.get('expert', 0.0):.6f},{mean_loss['csa']:.6f}\n"
            )
            if step % train_cfg.eval_every == 0 and step < len(batches):
                with _acting(run_dir, f"the evaluation at step {step}", evaluation_step=step):
                    report, _ = _evaluate(cfg, expert, csa, train_cfg.eval_episodes, train_cfg.seed)
                metrics_fh.write(report.csv_row() + "\n")
                save_ckpts(step)

        with _acting(run_dir, "the final evaluation", evaluation_step=len(batches)):
            final_report, final_trajs = _evaluate(
                cfg, expert, csa, train_cfg.eval_episodes, train_cfg.seed
            )
        metrics_fh.write(final_report.csv_row() + "\n")
        save_ckpts(len(batches))

    (run_dir / "final_report.csv").write_text(
        METRIC_CSV_HEADER + "\n" + final_report.csv_row() + "\n", encoding="utf-8"
    )
    return final_report, final_trajs


def ablate(cfg: GlobalConfig, out_dir=None, seeds=None) -> list[MetricReport]:
    """Train and evaluate the three variants with shared seeds under
    ``out_dir`` (else ``cfg.output_dir``), one run directory
    ``{variant}-seed{seed}`` each, whose ``config.copy`` names it as
    ``output_dir``.

    Every variant sees the same seed list (hence the same evaluation episode
    stream); the final evaluation episodes of all seeds are pooled into one
    ``aggregate`` row per variant, written to ``ablation.csv`` in full /
    no-expert / untrained order."""
    out = Path(cfg.output_dir if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seeds is None:
        seeds = [cfg.train.seed]
    rows: list[MetricReport] = []
    for variant in VARIANTS:
        trajs: list[Trajectory] = []
        for seed in seeds:
            run_cfg = dataclasses.replace(
                cfg,
                train=dataclasses.replace(cfg.train, variant=variant, seed=seed),
                output_dir=str(out / f"{variant}-seed{seed}"),
            )
            _, final_trajs = train(run_cfg)
            trajs += final_trajs
        refs = reference_responses(trajs, cfg.env)
        rows.append(aggregate(trajs, cfg.tse, refs, variant=variant))
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write(METRIC_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    return rows
