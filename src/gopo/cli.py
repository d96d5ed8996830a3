"""Command-line surface: train, eval, ablate, report.

The configuration is one JSON file with four sections (env, reward, tse,
train) plus an output directory.  Parsing is strict both ways: an unknown
key fails fast naming the key, and every key must be present, so a config
file pins a run completely.  Exit codes: 0 success, 1 invalid
configuration/usage, 2 runtime failure.  Log verbosity comes from the
GOPO_LOG_LEVEL environment variable (error, info, or debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .metrics import METRIC_CSV_HEADER, TseConfig
from .rewards import RewardConfig
from .simenv import ConfigError, EnvConfig, check_scalar
from .trainer import CURVES_CSV_HEADER, TrainConfig, TrainingDiverged, ablate, train

log = logging.getLogger("gopo")

DEFAULT_CONFIG_RESOURCE = "default_config.json"


@dataclass(frozen=True)
class GlobalConfig:
    """The four config sections and the output directory."""

    env: EnvConfig
    reward: RewardConfig
    tse: TseConfig
    train: TrainConfig
    output_dir: str

    def to_dict(self) -> dict:
        return {
            "env": self.env.to_dict(),
            "reward": dataclasses.asdict(self.reward),
            "tse": dataclasses.asdict(self.tse),
            "train": dataclasses.asdict(self.train),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: dict, base_dir=None) -> "GlobalConfig":
        data = dict(data)
        for section in ("env", "reward", "tse", "train", "output_dir"):
            if section not in data:
                raise ConfigError(f"missing key {section}")
        env = EnvConfig.from_dict(data.pop("env"), path="env", base_dir=base_dir)
        reward = _reward_from_dict(data.pop("reward"))
        tse = _tse_from_dict(data.pop("tse"))
        train_cfg = _train_from_dict(data.pop("train"))
        output_dir = data.pop("output_dir")
        if data:
            raise ConfigError(f"unknown key {sorted(data)[0]}")
        return cls(env=env, reward=reward, tse=tse, train=train_cfg, output_dir=output_dir)


def _parse_flat_section(cls, data: dict, path: str, tuple_fields: set[str]):
    """Strict parse of a flat dataclass section: all keys required, unknown
    keys rejected, scalars checked against the type of the field's default,
    list-valued keys coerced to tuples."""
    data = dict(data)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{path}.{f.name}"
        if f.name not in data:
            raise ConfigError(f"missing key {key}")
        value = data.pop(f.name)
        if f.name in tuple_fields:
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            value = tuple(value)
        else:
            check_scalar(value, type(f.default), key)
        kwargs[f.name] = value
    if data:
        raise ConfigError(f"unknown key {path}.{sorted(data)[0]}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _reward_from_dict(data: dict) -> RewardConfig:
    return _parse_flat_section(RewardConfig, data, "reward", {"dim_weights"})


def _tse_from_dict(data: dict) -> TseConfig:
    return _parse_flat_section(TseConfig, data, "tse", {"task_weights"})


def _train_from_dict(data: dict) -> TrainConfig:
    return _parse_flat_section(TrainConfig, data, "train", set())


def load_config(path) -> tuple[GlobalConfig, str]:
    """Read and strictly parse a config file; returns the config and the raw
    file text (preserved verbatim in run directories)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return GlobalConfig.from_dict(data, base_dir=p.parent), text


def default_config_text() -> str:
    """The packaged default configuration, verbatim."""
    return (
        resources.files("gopo")
        .joinpath("data")
        .joinpath(DEFAULT_CONFIG_RESOURCE)
        .read_text(encoding="utf-8")
    )


def default_global_config() -> GlobalConfig:
    return GlobalConfig.from_dict(json.loads(default_config_text()))


def _apply_overrides(cfg: GlobalConfig, seed=None, out=None, workers=None) -> GlobalConfig:
    train_cfg = cfg.train
    if seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=seed)
    if workers is not None:
        train_cfg = dataclasses.replace(train_cfg, workers=workers)
    out_dir = out if out is not None else cfg.output_dir
    return dataclasses.replace(cfg, train=train_cfg, output_dir=str(out_dir))


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level_name = os.environ.get("GOPO_LOG_LEVEL", "info").lower()
    if level_name not in _LOG_LEVELS:
        raise ConfigError(
            f"GOPO_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}"
        )
    logging.basicConfig(level=_LOG_LEVELS[level_name], format="%(levelname)s %(message)s")


# --- subcommands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg, text = load_config(args.config)
    cfg = _apply_overrides(cfg, seed=args.seed, out=args.out, workers=args.workers)
    if args.seed is not None or args.workers is not None:
        text = json.dumps(cfg.to_dict(), indent=2)
    result = train(cfg.train, cfg.env, cfg.reward, cfg.tse, cfg.output_dir, config_text=text)
    log.info("run directory: %s", result.run_dir)
    log.info(METRIC_CSV_HEADER)
    log.info(result.final_report.csv_row())
    return 0


def _latest_step(ckpt_dir: Path, name: str) -> int | None:
    steps = []
    for p in ckpt_dir.glob(f"{name}-*.ckpt"):
        suffix = p.stem.split("-")[-1]
        if suffix.isdigit():
            steps.append(int(suffix))
    return max(steps) if steps else None


def cmd_eval(args) -> int:
    from .agents import CsaPolicy, ExpertPolicy, FeatureSpec
    from .neural import load_checkpoint
    from .trainer import _evaluate

    cfg, _ = load_config(args.config)
    ckpt_dir = Path(args.checkpoint_dir)
    if not ckpt_dir.is_dir():
        raise ConfigError(f"checkpoint directory not found: {ckpt_dir}")
    spec = FeatureSpec.from_env_config(cfg.env)
    variant = cfg.train.variant
    try:
        csa_step = _latest_step(ckpt_dir, "csa")
        if csa_step is None:
            raise ConfigError(f"no responder checkpoint in {ckpt_dir}")
        csa = CsaPolicy(
            spec,
            hidden=cfg.train.hidden_size,
            loss_weights=(
                cfg.train.lambda_pg,
                cfg.train.lambda_skill,
                cfg.train.lambda_diversity,
            ),
        )
        net, _ = load_checkpoint(ckpt_dir / f"csa-{csa_step}.ckpt")
        if net.layer_sizes != csa.generator.layer_sizes:
            raise ConfigError(
                f"responder checkpoint shape {net.layer_sizes} does not match "
                f"config shape {csa.generator.layer_sizes}"
            )
        csa.generator = net
        expert = None
        if variant != "no-expert":
            expert_step = _latest_step(ckpt_dir, "expert")
            if expert_step is None:
                raise ConfigError(
                    f"no planner checkpoint in {ckpt_dir} for variant {variant!r}"
                )
            expert = ExpertPolicy(
                spec, hidden=cfg.train.hidden_size, entropy_coeff=cfg.train.entropy_coeff
            )
            net, _ = load_checkpoint(ckpt_dir / f"expert-{expert_step}.ckpt")
            if net.layer_sizes != expert.actor.layer_sizes:
                raise ConfigError(
                    f"planner checkpoint shape {net.layer_sizes} does not match "
                    f"config shape {expert.actor.layer_sizes}"
                )
            expert.actor = net
            critic_net, _ = load_checkpoint(ckpt_dir / f"critic-{expert_step}.ckpt")
            expert.critic = critic_net
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot load checkpoints: {exc}") from exc

    seed = args.seed if args.seed is not None else cfg.train.seed
    report, _ = _evaluate(
        cfg.env, expert, csa, cfg.reward, cfg.tse, variant, args.episodes, seed
    )
    csv_text = METRIC_CSV_HEADER + "\n" + report.csv_row() + "\n"
    print(csv_text, end="")
    out = Path(args.out) if args.out else ckpt_dir.parent / "eval_report.csv"
    out.write_text(csv_text, encoding="utf-8")
    log.info("wrote %s", out)
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    seeds = None
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ConfigError(f"--seeds has no usable entries: {args.seeds!r}")
    rows = ablate(cfg.train, cfg.env, cfg.reward, cfg.tse, out_dir, seeds=seeds)
    print(METRIC_CSV_HEADER)
    for row in rows:
        print(row.csv_row())
    log.info("ablation table: %s", out_dir / "ablation.csv")
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.is_dir():
        raise ConfigError(f"runs directory not found: {runs_dir}")
    if args.format != "csv":
        raise ConfigError(f"unsupported report format {args.format!r}")
    run_dirs = sorted(
        p for p in runs_dir.iterdir() if p.is_dir() and (p / "metrics.csv").is_file()
    )
    if not run_dirs:
        raise ConfigError(f"no run directories with metrics.csv under {runs_dir}")
    merged_rows = ["run," + METRIC_CSV_HEADER]
    curve_rows = ["run," + CURVES_CSV_HEADER]
    for run in run_dirs:
        metric_lines = (run / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
        if metric_lines:
            merged_rows.append(f"{run.name},{metric_lines[-1]}")
        curves_file = run / "curves.csv"
        if curves_file.is_file():
            for line in curves_file.read_text(encoding="utf-8").strip().splitlines()[1:]:
                curve_rows.append(f"{run.name},{line}")
    merged = "\n".join(merged_rows) + "\n"
    curves = "\n".join(curve_rows) + "\n"
    print(merged, end="")
    (runs_dir / "report_metrics.csv").write_text(merged, encoding="utf-8")
    (runs_dir / "report_curves.csv").write_text(curves, encoding="utf-8")
    log.info("wrote %s and %s", runs_dir / "report_metrics.csv", runs_dir / "report_curves.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gopo",
        description="Hierarchical dialogue-policy lab: train, evaluate, ablate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant and populate a run directory")
    p.add_argument("config", help="path to the JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--workers", type=int, default=None, help="parallel rollout workers")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of saved checkpoints")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run full / no-expert / untrained with shared seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="merge run directories into report tables")
    p.add_argument("--runs", required=True)
    p.add_argument("--format", default="csv", choices=["csv"])
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
