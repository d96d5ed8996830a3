"""Hierarchical rollout and optimization loop.

Per turn of a rollout the reference sequence is fetched, the planner picks a
skill sequence (scored against the reference by the normalized ranking
gain), the responder generates under that constraint (scored by the judge),
and the two rewards are mixed by the turn-indexed schedule into the joint
reward.  The planner learns from the joint reward: a TD(0) advantage drives
its policy gradient and the critic regresses the TD target.  The responder
learns from its own judge reward: its policy-gradient coefficient is
``r_csa`` minus a running baseline, an exponential moving average (decay
0.99, starting at 0.5) updated turn by turn in rollout order.  The baseline
lives only for the duration of ``train`` and is not checkpointed.  In the
no-planner ablation the responder conditions on a null constraint.

Reference sequences shape rewards only; they are never supervised targets.
Milestone and task-efficiency signals are never read during training, so
evaluation gains are attributable to the reward stack.

All randomness derives from the training seed: episode i uses generators
seeded from (seed, i), evaluation episodes from a disjoint stream shared
across variants, so identical configurations reproduce byte-identical run
directories.  Rollouts within a batch can run on parallel workers; results
are ordered by episode id, so parallelism never changes outputs.

Run directory layout::

    config.copy                          verbatim copy of the config
    trajectories.jsonl                   every training rollout, in order
    metrics.csv                          periodic greedy evaluation rows
    curves.csv                           step,mean_joint_reward,expert_loss,csa_loss
    checkpoints/{expert,critic,csa}-{step}.ckpt
    final_report.csv                     final evaluation row
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
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
)
from .core import (
    CsaState,
    RewardBreakdown,
    Trajectory,
    TurnRecord,
    trajectory_to_json,
)
from .metrics import (
    METRIC_CSV_HEADER,
    MetricReport,
    TseConfig,
    aggregate,
    bleu,
    gre,
    tse,
)
from .neural import AdamState, adam_step, clip_grad_norm, save_checkpoint
from .rewards import RewardConfig, csa_reward, esndcg, joint_reward, joint_weights
from .simenv import ConfigError, DialogueEnv, EnvConfig, reference_responses

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
    """Optimization and run-control parameters."""

    episodes: int = 2400
    horizon: int = 12
    discount: float = 0.5
    batch_size: int = 8
    lr_expert_actor: float = 0.015
    lr_expert_critic: float = 0.05
    lr_csa: float = 0.01
    entropy_coeff: float = 0.01
    lambda_pg: float = 1.0
    lambda_skill: float = 2.0
    lambda_diversity: float = 0.05
    hidden_size: int = 64
    critic_warmup: int = 60
    eval_every: int = 50
    eval_episodes: int = 200
    seed: int = 0
    variant: str = "full"
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError(f"train.discount must be in (0, 1], got {self.discount}")
        for name in ("lr_expert_actor", "lr_expert_critic", "lr_csa"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"train.{name} must be positive")
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
        if self.horizon < 1:
            raise ConfigError("train.horizon must be positive")
        if self.workers < 1:
            raise ConfigError("train.workers must be positive")


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
    episode_id: int = 0,
    env_seed: int | None = None,
    greedy: bool = False,
) -> Trajectory:
    """Play one full episode and return the scored trajectory.

    With ``expert=None`` (the no-planner ablation) the responder receives a
    null constraint and the planner reward is fixed at 0.
    """
    obs = env.reset(env_seed)
    horizon = env.cfg.horizon
    turns: list[TurnRecord] = []
    for turn_no in range(1, horizon + 1):
        state = obs.expert_state
        teacher = env.teacher_sequence(state)
        if expert is not None:
            skills, _, _ = expert_act(expert, state, rng, greedy=greedy)
            r_e = esndcg(
                skills.skills, teacher.skills, dedupe=reward_cfg.dedupe_predictions
            )
        else:
            skills = None
            r_e = 0.0
        csa_state = CsaState(
            utterance=obs.csa_utterance,
            constraint=skills,
            business_ctx=obs.business_ctx,
        )
        response, _, _ = csa_act(csa, csa_state, rng, greedy=greedy)
        obs, dim_scores, _, done = env.step(skills, response)
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
        turns.append(TurnRecord(state, skills, csa_state, response, breakdown))
        if done:
            break
    return Trajectory(
        episode_id=episode_id,
        turns=tuple(turns),
        milestones=env.milestone_record(),
        seed=env_seed if env_seed is not None else env.cfg.seed,
        terminal_reason=env.terminal_reason or "horizon",
    )


def compute_advantages(
    traj: Trajectory, policy: ExpertPolicy, discount: float
) -> np.ndarray:
    """One-step TD advantages on the joint reward, with terminal value 0."""
    values = [critic_value(policy, t.expert_state) for t in traj.turns] + [0.0]
    return np.array(
        [
            t.reward.joint + discount * values[i + 1] - values[i]
            for i, t in enumerate(traj.turns)
        ]
    )


def _rollout_task(
    env_cfg: EnvConfig,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    reward_cfg: RewardConfig,
    base_seed: int,
    stream: int,
    greedy: bool,
    episode_id: int,
) -> Trajectory:
    env = DialogueEnv(env_cfg)
    env_seed, agent_seed = episode_seeds(base_seed, stream, episode_id)
    rng = np.random.default_rng(agent_seed)
    return rollout(
        env, expert, csa, reward_cfg, rng,
        episode_id=episode_id, env_seed=env_seed, greedy=greedy,
    )


@dataclass
class TrainResult:
    """Everything a caller needs beyond the files on disk: the final report
    plus the per-episode evaluation values for cross-run pooling."""

    run_dir: Path
    final_report: MetricReport
    eval_tse: list[float]
    eval_gre: list[float]
    eval_joint: list[float]
    eval_candidates: list[tuple[int, ...]]
    eval_references: list[tuple[int, ...]]


def _evaluate(
    env_cfg: EnvConfig,
    expert: ExpertPolicy | None,
    csa: CsaPolicy,
    reward_cfg: RewardConfig,
    tse_cfg: TseConfig,
    variant: str,
    n_episodes: int,
    base_seed: int,
) -> tuple[MetricReport, TrainResult]:
    """Greedy evaluation over fresh episodes from the shared eval stream."""
    env = DialogueEnv(env_cfg)
    trajs: list[Trajectory] = []
    all_refs: list[list[tuple[int, ...]]] = []
    for i in range(n_episodes):
        env_seed, agent_seed = episode_seeds(base_seed, _STREAM_EVAL, i)
        rng = np.random.default_rng(agent_seed)
        traj = rollout(
            env, expert, csa, reward_cfg, rng,
            episode_id=i, env_seed=env_seed, greedy=True,
        )
        trajs.append(traj)
        all_refs.append(reference_responses(traj, env_cfg))
    report = aggregate(trajs, tse_cfg, all_refs, variant=variant)
    cands = [turn.response.tokens for t in trajs for turn in t.turns]
    refs = [tuple(r) for rs in all_refs for r in rs]
    result = TrainResult(
        run_dir=Path(),
        final_report=report,
        eval_tse=[tse(t.milestones, tse_cfg) for t in trajs],
        eval_gre=[gre(t) for t in trajs],
        eval_joint=[
            float(np.mean([turn.reward.joint for turn in t.turns])) for t in trajs
        ],
        eval_candidates=cands,
        eval_references=refs,
    )
    return report, result


def train(
    train_cfg: TrainConfig,
    env_cfg: EnvConfig,
    reward_cfg: RewardConfig,
    tse_cfg: TseConfig,
    out_dir,
    config_text: str | None = None,
) -> TrainResult:
    """Run one training job and populate its run directory.

    Batches of rollouts are turned into accumulated gradients (mean over the
    batch's turns, clipped at global norm 5) and Adam steps; every
    ``eval_every`` updates, and once at the end, the greedy policies are
    evaluated and checkpointed.  The ``untrained`` variant skips the update
    loop entirely and just evaluates the random initialization.
    """
    if train_cfg.horizon != env_cfg.horizon:
        raise ConfigError(
            f"train.horizon {train_cfg.horizon} != env.horizon {env_cfg.horizon}"
        )
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    if config_text is None:
        config_text = json.dumps(
            {
                "env": env_cfg.to_dict(),
                "reward": dataclasses.asdict(reward_cfg),
                "tse": dataclasses.asdict(tse_cfg),
                "train": dataclasses.asdict(train_cfg),
                "output_dir": str(run_dir),
            },
            indent=2,
        )
    (run_dir / "config.copy").write_text(config_text, encoding="utf-8")

    spec = FeatureSpec.from_env_config(env_cfg)
    variant = train_cfg.variant
    expert: ExpertPolicy | None = None
    if variant in ("full", "untrained"):
        expert = ExpertPolicy(
            spec,
            hidden=train_cfg.hidden_size,
            entropy_coeff=train_cfg.entropy_coeff,
            seed=np.random.SeedSequence((train_cfg.seed, _STREAM_EXPERT_INIT)),
        )
    csa = CsaPolicy(
        spec,
        hidden=train_cfg.hidden_size,
        loss_weights=(
            train_cfg.lambda_pg,
            train_cfg.lambda_skill,
            train_cfg.lambda_diversity,
        ),
        seed=np.random.SeedSequence((train_cfg.seed, _STREAM_CSA_INIT)),
    )

    actor_adam = AdamState.zeros(expert.actor.n_params) if expert else None
    critic_adam = AdamState.zeros(expert.critic.n_params) if expert else None
    csa_adam = AdamState.zeros(csa.generator.n_params)

    episodes = 0 if variant == "untrained" else train_cfg.episodes
    batches: list[list[int]] = [
        list(range(start, min(start + train_cfg.batch_size, episodes)))
        for start in range(0, episodes, train_cfg.batch_size)
    ]

    executor = None
    if train_cfg.workers > 1:
        import multiprocessing

        # fork keeps worker startup cheap and avoids re-importing __main__;
        # fall back to spawn where fork does not exist
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        executor = ProcessPoolExecutor(max_workers=train_cfg.workers, mp_context=ctx)

    traj_fh = open(run_dir / "trajectories.jsonl", "w", encoding="utf-8")
    metrics_fh = open(run_dir / "metrics.csv", "w", encoding="utf-8")
    metrics_fh.write(METRIC_CSV_HEADER + "\n")
    curves_fh = open(run_dir / "curves.csv", "w", encoding="utf-8")
    curves_fh.write(CURVES_CSV_HEADER + "\n")

    def save_ckpts(step: int) -> None:
        if expert is not None:
            save_checkpoint(ckpt_dir / f"expert-{step}.ckpt", expert.actor, actor_adam)
            save_checkpoint(ckpt_dir / f"critic-{step}.ckpt", expert.critic, critic_adam)
        save_checkpoint(ckpt_dir / f"csa-{step}.ckpt", csa.generator, csa_adam)

    train_expert = variant == "full"
    # Running-mean baseline for the responder's own reward; subtracting a
    # baseline leaves the policy-gradient expectation unchanged while
    # centering the coefficient, and keeps the responder's signal free of
    # planner and bootstrap noise.
    csa_baseline = 0.5
    final_report: MetricReport | None = None
    result: TrainResult | None = None
    try:
        for update, episode_ids in enumerate(batches):
            # During warmup the planner's actor is frozen while the critic
            # fits the random-policy values and the responder learns to
            # comply with the diverse constraints random planning produces;
            # the actor then starts from centered advantages against an
            # already-compliant responder.
            warm = update < train_cfg.critic_warmup
            task = partial(
                _rollout_task,
                env_cfg, expert, csa, reward_cfg,
                train_cfg.seed, _STREAM_TRAIN, False,
            )
            if executor is not None:
                batch = list(executor.map(task, episode_ids))
            else:
                batch = [task(i) for i in episode_ids]
            for traj in batch:
                traj_fh.write(trajectory_to_json(traj) + "\n")

            n_turns = sum(len(t.turns) for t in batch)
            actor_grad = np.zeros(expert.actor.n_params) if expert else None
            critic_grad = np.zeros(expert.critic.n_params) if expert else None
            csa_grad = np.zeros(csa.generator.n_params)
            sum_expert_loss = 0.0
            sum_csa_loss = 0.0
            sum_joint = 0.0
            for traj in batch:
                if train_expert:
                    values = [
                        critic_value(expert, t.expert_state) for t in traj.turns
                    ] + [0.0]
                for i, turn in enumerate(traj.turns):
                    sum_joint += turn.reward.joint
                    if train_expert:
                        target = turn.reward.joint + train_cfg.discount * values[i + 1]
                        advantage = target - values[i]
                        el, eg = expert_loss(expert, turn.expert_state, turn.skills, advantage)
                        cl, cg = critic_loss(expert, turn.expert_state, target)
                        actor_grad += eg
                        critic_grad += cg
                        sum_expert_loss += el
                    coeff = turn.reward.r_csa - csa_baseline
                    csa_baseline = 0.99 * csa_baseline + 0.01 * turn.reward.r_csa
                    sl, sg, _ = csa_loss(csa, turn.csa_state, turn.response, coeff)
                    csa_grad += sg
                    sum_csa_loss += sl

            mean_expert_loss = sum_expert_loss / n_turns if train_expert else 0.0
            mean_csa_loss = sum_csa_loss / n_turns
            if not (np.isfinite(mean_expert_loss) and np.isfinite(mean_csa_loss)):
                diag = {
                    "update": update,
                    "expert_loss": mean_expert_loss,
                    "csa_loss": mean_csa_loss,
                    "episode_ids": episode_ids,
                }
                (run_dir / "diagnostics.json").write_text(json.dumps(diag, indent=2))
                raise TrainingDiverged(
                    f"non-finite loss at update {update}; diagnostics dumped"
                )

            if train_expert:
                if not warm:
                    g = clip_grad_norm(actor_grad / n_turns, GRAD_CLIP_NORM)
                    new_params, actor_adam = adam_step(
                        expert.actor.get_params(), g, actor_adam, train_cfg.lr_expert_actor
                    )
                    expert.actor.set_params(new_params)
                g = clip_grad_norm(critic_grad / n_turns, GRAD_CLIP_NORM)
                new_params, critic_adam = adam_step(
                    expert.critic.get_params(), g, critic_adam, train_cfg.lr_expert_critic
                )
                expert.critic.set_params(new_params)
            g = clip_grad_norm(csa_grad / n_turns, GRAD_CLIP_NORM)
            new_params, csa_adam = adam_step(
                csa.generator.get_params(), g, csa_adam, train_cfg.lr_csa
            )
            csa.generator.set_params(new_params)

            step = update + 1
            curves_fh.write(
                f"{step},{sum_joint / n_turns:.6f},{mean_expert_loss:.6f},{mean_csa_loss:.6f}\n"
            )
            if step % train_cfg.eval_every == 0 and step < len(batches):
                report, _ = _evaluate(
                    env_cfg, expert, csa, reward_cfg, tse_cfg,
                    variant, train_cfg.eval_episodes, train_cfg.seed,
                )
                metrics_fh.write(report.csv_row() + "\n")
                save_ckpts(step)

        final_report, result = _evaluate(
            env_cfg, expert, csa, reward_cfg, tse_cfg,
            variant, train_cfg.eval_episodes, train_cfg.seed,
        )
        metrics_fh.write(final_report.csv_row() + "\n")
        save_ckpts(len(batches))
    finally:
        traj_fh.close()
        metrics_fh.close()
        curves_fh.close()
        if executor is not None:
            executor.shutdown()

    (run_dir / "final_report.csv").write_text(
        METRIC_CSV_HEADER + "\n" + final_report.csv_row() + "\n", encoding="utf-8"
    )
    result.run_dir = run_dir
    return result


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _std(xs) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return float(np.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1)))


def _pooled_report(variant: str, results: list[TrainResult]) -> MetricReport:
    tses = [x for r in results for x in r.eval_tse]
    gres = [x for r in results for x in r.eval_gre]
    joints = [x for r in results for x in r.eval_joint]
    cands = [c for r in results for c in r.eval_candidates]
    refs = [c for r in results for c in r.eval_references]
    return MetricReport(
        variant=variant,
        episodes=len(tses),
        tse_mean=_mean(tses),
        tse_std=_std(tses),
        gre_mean=_mean(gres),
        gre_std=_std(gres),
        bleu=bleu(cands, refs),
        joint_mean=_mean(joints),
    )


def ablate(
    train_cfg: TrainConfig,
    env_cfg: EnvConfig,
    reward_cfg: RewardConfig,
    tse_cfg: TseConfig,
    out_dir,
    seeds=None,
) -> list[MetricReport]:
    """Train and evaluate the three variants with shared seeds.

    Every variant sees the same seed list (hence the same evaluation episode
    stream); evaluation episodes are pooled across seeds into one row per
    variant, written to ``ablation.csv`` in full / no-expert / untrained
    order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seeds is None:
        seeds = [train_cfg.seed]
    rows: list[MetricReport] = []
    for variant in VARIANTS:
        results = []
        for seed in seeds:
            cfg = dataclasses.replace(train_cfg, variant=variant, seed=seed)
            results.append(
                train(cfg, env_cfg, reward_cfg, tse_cfg, out / f"{variant}-seed{seed}")
            )
        rows.append(_pooled_report(variant, results))
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write(METRIC_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    return rows
