"""Hierarchical rollout and optimization loop.

Per turn of a rollout the planner picks a skill sequence (scored against
the scenario entry's reference sequence by the normalized ranking gain,
``DialogueEnv.planner_reward``), the responder generates under that
constraint (scored by the judge),
and the two rewards are mixed by the turn-indexed schedule into the joint
reward.  The planner learns from the joint reward: a TD(0) advantage drives
its policy gradient and the critic regresses the TD target.  The responder
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

import dataclasses
import json
import math
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import (
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
from .core import (
    CsaState,
    RewardBreakdown,
    Trajectory,
    TurnRecord,
    trajectory_to_json,
)
from .metrics import METRIC_CSV_HEADER, MetricReport, TseConfig, aggregate
from .neural import AdamState, Mlp, adam_step, clip_grad_norm, load_checkpoint, save_checkpoint
from .rewards import RewardConfig, csa_reward, joint_reward, joint_weights
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
    """Raised when a loss goes non-finite; diagnostics are dumped first."""


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


def rollout(
    env: DialogueEnv,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
    *,
    env_seed: int,
    episode_id: int = 0,
    greedy: bool = False,
) -> Trajectory:
    """Play one full episode from ``env.reset(env_seed)`` and return the
    scored trajectory.

    With ``expert=None`` (the no-planner ablation) the responder receives a
    null constraint and the planner reward is fixed at 0.
    """
    obs = env.reset(env_seed)
    horizon = env.cfg.horizon
    turns: list[TurnRecord] = []
    for turn_no in range(1, horizon + 1):
        state = obs.expert_state
        if expert is not None:
            (skills,) = expert_act(expert, state, rng, greedy=greedy)
            r_e = env.planner_reward(state, skills)
        else:
            skills = None
            r_e = 0.0
        csa_state = CsaState(
            utterance=obs.csa_utterance,
            constraint=skills,
            business_ctx=obs.business_ctx,
        )
        (response,) = csa_act(csa, csa_state, rng, greedy=greedy)
        obs, dim_scores, done = env.step(skills, response)
        r_a = csa_reward(dim_scores, reward_cfg)
        weights = joint_weights(turn_no, horizon, reward_cfg)
        breakdown = RewardBreakdown(
            r_expert=r_e,
            r_csa=r_a,
            dim_scores=dim_scores,
            w_expert=weights[0],
            w_csa=weights[1],
            joint=joint_reward(r_e, r_a, weights),
        )
        turns.append(TurnRecord(state, csa_state, response, breakdown))
        if done:
            break
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
    env: DialogueEnv,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    reward_cfg: RewardConfig,
    base_seed: int,
    stream: int,
    episode_ids: range,
    greedy: bool,
) -> list[Trajectory]:
    """Play the given episodes of one seed stream on ``env``, in order."""
    trajs = []
    for i in episode_ids:
        env_seed, agent_seed = episode_seeds(base_seed, stream, i)
        rng = np.random.default_rng(agent_seed)
        trajs.append(
            rollout(
                env, expert, csa, reward_cfg, rng,
                episode_id=i, env_seed=env_seed, greedy=greedy,
            )
        )
    return trajs


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
    env = DialogueEnv(cfg.env)
    trajs = _play(
        env, expert, csa, cfg.reward, base_seed, _STREAM_EVAL, range(n_episodes), True
    )
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
    nets = {} if expert is None else {"expert": expert.actor, "critic": expert.critic}
    nets["csa"] = csa.generator
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
    steps = set.intersection(*(
        {int(m[1]) for f in files if (m := re.fullmatch(rf"{name}-([0-9]+)\.ckpt", f))}
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
    """
    train_cfg = cfg.train
    env = DialogueEnv(cfg.env)
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

    traj_fh = open(run_dir / "trajectories.jsonl", "w", encoding="utf-8")
    metrics_fh = open(run_dir / "metrics.csv", "w", encoding="utf-8")
    metrics_fh.write(METRIC_CSV_HEADER + "\n")
    curves_fh = open(run_dir / "curves.csv", "w", encoding="utf-8")
    curves_fh.write(CURVES_CSV_HEADER + "\n")

    def save_ckpts(step: int) -> None:
        for name, net in nets.items():
            save_checkpoint(ckpt_dir / f"{name}-{step}.ckpt", net)

    # Running-mean baseline for the responder's own reward; subtracting a
    # baseline leaves the policy-gradient expectation unchanged while
    # centering the coefficient, and keeps the responder's signal free of
    # planner and bootstrap noise.
    csa_baseline = 0.5
    try:
        for update, episode_ids in enumerate(batches):
            batch = _play(
                env, expert, csa, cfg.reward,
                train_cfg.seed, _STREAM_TRAIN, episode_ids, False,
            )
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
                    "update": update,
                    "episode_ids": list(episode_ids),
                    "first_non_finite": non_finite,
                    "mean_loss": {
                        name: loss if math.isfinite(loss) else None
                        for name, loss in mean_loss.items()
                    },
                }
                (run_dir / "diagnostics.json").write_text(
                    json.dumps(diag, indent=2, allow_nan=False)
                )
                raise TrainingDiverged(
                    f"non-finite {non_finite['network']} loss in episode "
                    f"{non_finite['episode_id']} at update {update}; diagnostics dumped"
                )

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
                report, _ = _evaluate(
                    cfg, expert, csa, train_cfg.eval_episodes, train_cfg.seed
                )
                metrics_fh.write(report.csv_row() + "\n")
                save_ckpts(step)

        final_report, final_trajs = _evaluate(
            cfg, expert, csa, train_cfg.eval_episodes, train_cfg.seed
        )
        metrics_fh.write(final_report.csv_row() + "\n")
        save_ckpts(len(batches))
    finally:
        traj_fh.close()
        metrics_fh.close()
        curves_fh.close()

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
