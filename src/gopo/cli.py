"""Command-line surface: train, eval, ablate, report.

The configuration is one JSON file with four sections (env, reward, tse,
train) plus an output directory, parsed by ``GlobalConfig.from_dict``
through the one strict parser ``simenv.parse_fields``: every key must be
present, an unknown or repeated key fails naming the key, and every value
is read as its dataclass field's annotated type, so a config file pins a
run completely.  ``gopo train`` writes the parsed config back as the run
directory's ``config.copy`` (self-contained; ``--out`` places the run
directory and leaves the copy's ``output_dir`` as the file gave it), and
``gopo eval`` evaluates the latest step at which every network of the
variant has a checkpoint over ``train.eval_episodes`` episodes unless
``--episodes`` says otherwise, and prints its metrics row, which it writes
to a file only when given ``--out``; the trainer module lays out the run
directory.  ``gopo report`` merges the last metrics row and the curves of
each run directory; it rejects a non-UTF-8 file, a metrics row without the
header's columns or with a non-numeric field after the variant, and a
curves row without the header's columns or with a non-numeric field.  Exit
codes: 0 success; 1 invalid configuration, checkpoint, metrics or curves
file or command-line usage, reported as one ``error: ...`` line on stderr;
2 runtime failure (a diverged loss or an I/O error).  Log verbosity comes
from the GOPO_LOG_LEVEL environment variable (error, info, or debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .metrics import METRIC_CSV_HEADER
from .simenv import ConfigError
from .trainer import (
    CURVES_CSV_HEADER,
    GlobalConfig,
    TrainingDiverged,
    _evaluate,
    ablate,
    build_policies,
    load_checkpoints,
    train,
)

log = logging.getLogger("gopo")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r} in one object")
        obj[key] = value
    return obj


def load_config(path) -> tuple[GlobalConfig, str]:
    """Read and strictly parse a config file; returns the config and the raw
    file text.  A key repeated within one object is an error, not a silent
    override."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config file {p}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return GlobalConfig.from_dict(data), text


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
    cfg, _ = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=args.seed))
    out_dir = args.out if args.out is not None else cfg.output_dir
    report, _ = train(cfg, out_dir)
    log.info("run directory: %s", out_dir)
    log.info(METRIC_CSV_HEADER)
    log.info(report.csv_row())
    return 0


def cmd_eval(args) -> int:
    cfg, _ = load_config(args.config)
    expert, csa = build_policies(cfg.env, cfg.train)
    step = load_checkpoints(args.checkpoint_dir, expert, csa)
    log.info("evaluating the checkpoints of step %d in %s", step, args.checkpoint_dir)
    episodes = args.episodes if args.episodes is not None else cfg.train.eval_episodes
    seed = args.seed if args.seed is not None else cfg.train.seed
    report, _ = _evaluate(cfg, expert, csa, episodes, seed)
    csv_text = METRIC_CSV_HEADER + "\n" + report.csv_row() + "\n"
    print(csv_text, end="")
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        log.info("wrote %s", args.out)
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    rows = ablate(cfg, out_dir, seeds=args.seeds)
    print(METRIC_CSV_HEADER)
    for row in rows:
        print(row.csv_row())
    log.info("ablation table: %s", out_dir / "ablation.csv")
    return 0


def _is_row(line: str, header: str, first_number: int) -> bool:
    """Whether ``line`` has the columns of ``header``, with a number in every
    field from column ``first_number`` on."""
    fields = line.split(",")
    try:
        [float(x) for x in fields[first_number:]]
    except ValueError:
        return False
    return len(fields) == header.count(",") + 1


def _lines(path: Path) -> list[str]:
    """The stripped lines of a UTF-8 text file; other bytes raise ConfigError."""
    try:
        return path.read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.is_dir():
        raise ConfigError(f"runs directory not found: {runs_dir}")
    merged_rows = ["run," + METRIC_CSV_HEADER]
    curve_rows = ["run," + CURVES_CSV_HEADER]
    for run in sorted(p for p in runs_dir.iterdir() if (p / "metrics.csv").is_file()):
        metric_lines = _lines(run / "metrics.csv")
        if len(metric_lines) < 2:
            # header only: the run ended before its first evaluation
            log.info("skipping %s: no evaluation row in metrics.csv", run)
            continue
        if not _is_row(metric_lines[-1], METRIC_CSV_HEADER, 1):
            raise ConfigError(f"malformed last row in {run / 'metrics.csv'}")
        merged_rows.append(f"{run.name},{metric_lines[-1]}")
        curves_file = run / "curves.csv"
        if curves_file.is_file():
            for line in _lines(curves_file)[1:]:
                if not _is_row(line, CURVES_CSV_HEADER, 0):
                    raise ConfigError(f"malformed row in {curves_file}")
                curve_rows.append(f"{run.name},{line}")
    if len(merged_rows) == 1:
        raise ConfigError(f"no run directories with evaluation rows under {runs_dir}")
    merged = "\n".join(merged_rows) + "\n"
    curves = "\n".join(curve_rows) + "\n"
    print(merged, end="")
    (runs_dir / "report_metrics.csv").write_text(merged, encoding="utf-8")
    (runs_dir / "report_curves.csv").write_text(curves, encoding="utf-8")
    log.info("wrote %s and %s", runs_dir / "report_metrics.csv", runs_dir / "report_curves.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so they end
    like every other invalid input: one ``error:`` line and exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _seed_list(text: str) -> list[int]:
    """A comma-separated list of distinct non-negative seeds."""
    seeds = [_int_at_least(0)(s.strip()) for s in text.split(",") if s.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeated seed in {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gopo",
        description="Hierarchical dialogue-policy lab: train, evaluate, ablate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant and populate a run directory")
    p.add_argument("config", help="path to the JSON config file")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override train.seed")
    p.add_argument("--out", default=None, help="run directory (default: output_dir)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of saved checkpoints")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument(
        "--episodes", type=_int_at_least(1), default=None, help="override train.eval_episodes"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument(
        "--out", default=None, help="also write the CSV to this path (default: print only)"
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run full / no-expert / untrained with shared seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--seeds", type=_seed_list, default=None, help="comma-separated distinct seeds"
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="merge run directories into report tables")
    p.add_argument("--runs", required=True)
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
