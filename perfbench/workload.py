"""One iteration of one benchmark workload, in this process.

``run.py`` starts this script once per iteration, so each iteration measures a
fresh process: set-up is the time from the parent's spawn to the first
episode, covering interpreter start, imports, config parse and policy or
checkpoint load.  The workload is driven through ``gopo.cli.main`` and its
outputs are checked after the timed call.  The result goes to ``--result`` as
JSON.

Modes:
  plain   only ``trainer.rollout`` is wrapped: to count episodes and turns,
          to stamp the first episode, and to time the reference loop after
          every KERNEL_EVERY-th episode (see run.py); end-to-end numbers
          come from here
  traced  every target in ``LAYERS`` is wrapped; per-layer numbers come
          from here, and the spans are written beside the result
  probe   stops at the first episode; a set-up sample only

Usage (normally called by run.py)::

    python3 perfbench/workload.py --workload train-full --mode plain \
        --config CFG --run-dir DIR --result OUT.json --spawned-at T
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

CHECKPOINTS = BENCH / "checkpoints"
EVAL_EPISODES = 200
# the reference loop runs after every KERNEL_EVERY-th episode of a plain
# iteration; KERNEL_NOMINAL_S is its typical time on the machine the
# benchmark was defined on
KERNEL_STEPS = 1500
KERNEL_EVERY = 20
KERNEL_NOMINAL_S = 0.026

# Targets wrapped in traced mode, with the stats each reports.  Functions on
# the update path and the act path get latency percentiles; the rest only
# calls and self time.
BASIC = ("calls", "self_s")
HOT = ("calls", "self_s", "p50_us", "p99_us", "samples")
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": BASIC,
    "cli.load_config": BASIC,
    "cli.cmd_train": BASIC,
    "cli.cmd_eval": BASIC,
    "trainer.train": BASIC,
    "trainer._evaluate": BASIC,
    "trainer.rollout": HOT + ("turns", "tokens"),
    "agents.expert_act": HOT,
    "agents.csa_act": HOT,
    "agents.expert_loss": HOT,
    "agents.critic_loss": HOT,
    "agents.critic_value": HOT,
    "agents.csa_loss": HOT,
    "agents.FeatureSpec.expert_features": BASIC,
    "agents.FeatureSpec.csa_features": BASIC,
    "neural.Mlp.forward": HOT + ("rows", "rows_per_call"),
    "neural.Mlp.backward": HOT + ("rows",),
    "neural.adam_step": BASIC,
    "neural.clip_grad_norm": BASIC,
    "neural.save_checkpoint": BASIC,
    "neural.load_checkpoint": BASIC,
    "simenv.DialogueEnv.reset": BASIC,
    "simenv.DialogueEnv.step": HOT,
    "simenv.DialogueEnv.teacher_sequence": BASIC,
    "simenv.reference_responses": BASIC,
    "rewards.esndcg": BASIC,
    "rewards.csa_reward": BASIC,
    "rewards.joint_weights": BASIC,
    "rewards.joint_reward": BASIC,
    "metrics.aggregate": BASIC,
    "metrics.bleu": BASIC,
    "metrics.tse": BASIC,
    "metrics.gre": BASIC,
    "core.trajectory_to_json": BASIC + ("bytes",),
}
MODULES = ("cli", "trainer", "agents", "neural", "simenv", "rewards", "metrics", "core")
ACT_SPANS = ("agents.expert_act", "agents.csa_act")


def _mlp_rows(args, kwargs, result, parent):
    x = args[1] if len(args) > 1 else kwargs["x"]
    rows = 1 if getattr(x, "ndim", 1) == 1 else len(x)
    return {"rows": rows, "act_rows": rows if parent in ACT_SPANS else 0}


def _rollout_shape(args, kwargs, result, parent):
    return {
        "turns": len(result.turns),
        "tokens": sum(len(turn.response.tokens) for turn in result.turns),
    }


def _expert_steps(args, kwargs, result, parent):
    from gopo.core import MAX_SKILL_SEQUENCE_LEN

    # skills emitted, plus the STOP step unless the sequence hit its cap
    n = len(result[0])
    return {"steps": n + (n < MAX_SKILL_SEQUENCE_LEN)}


def _csa_steps(args, kwargs, result, parent):
    # tokens emitted, plus the END step unless the response hit its cap
    n = len(result[0].tokens)
    return {"steps": n + (n < args[0].spec.max_response_len)}


def _json_bytes(args, kwargs, result, parent):
    return {"bytes": len(result.encode("utf-8"))}


COUNTERS = {
    "trainer.rollout": _rollout_shape,
    "neural.Mlp.forward": _mlp_rows,
    "neural.Mlp.backward": _mlp_rows,
    "agents.expert_act": _expert_steps,
    "agents.csa_act": _csa_steps,
    "core.trajectory_to_json": _json_bytes,
}


# unit and better direction of each stat
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "p50_us": ("us", "lower"),
    "p99_us": ("us", "lower"),
    "samples": ("count", "higher"),
    "rows": ("count", "lower"),
    "rows_per_call": ("rows/call", "higher"),
    "turns": ("count", "higher"),
    "tokens": ("count", "higher"),
    "bytes": ("bytes", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists it."""
    spec = [
        (f"{target}.{stat}", *STAT_UNITS[stat])
        for target, stats in LAYERS.items()
        for stat in stats
    ]
    spec += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    spec += [
        ("agents.act_useful_row_share", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in spec]


def per_layer_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (all but the overhead)."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for target, stats in LAYERS.items():
        got = summary[target]
        got["rows_per_call"] = got.get("rows", 0) / got["calls"] if got["calls"] else 0.0
        for stat in stats:
            out[f"{target}.{stat}"] = got.get(stat, 0)
        module_self[target.split(".")[0]] += got["self_s"]
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    steps = sum(summary[t].get("steps", 0) for t in ACT_SPANS)
    act_rows = summary["neural.Mlp.forward"].get("act_rows", 0)
    out["agents.act_useful_row_share"] = steps / act_rows if act_rows else 0.0
    out["trace.spans"] = len(tracer.span_start)
    return out


def reference_kernel() -> float:
    """Seconds taken by a fixed loop shaped like one policy step: 1x180 by
    180x64 and 1x64 by 64x65 products, tanh, softmax and a dict update.  It
    runs no gopo code, so only the machine's speed moves it."""
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(180, 64)) / 13.0
    w2 = rng.normal(size=(64, 65)) / 8.0
    x = rng.normal(size=180)
    counts: dict[int, int] = {}
    acc = 0.0
    t0 = time.monotonic_ns()
    for i in range(KERNEL_STEPS):
        z = np.tanh(x @ w1) @ w2
        e = np.exp(z - z.max())
        p = e / e.sum()
        k = int(np.argmax(p)) ^ (i & 7)
        counts[k] = counts.get(k, 0) + 1
        acc += float(p[k % 65])
        x[i % 180] = acc % 1.0
    return (time.monotonic_ns() - t0) / 1e9


def _sampling(rollout, kernel_s: list[float]):
    """``rollout`` that times the reference loop after every KERNEL_EVERY-th
    episode, so that machine speed is sampled all through the call."""
    done = 0

    def wrapper(*args, **kwargs):
        nonlocal done
        out = rollout(*args, **kwargs)
        done += 1
        if done % KERNEL_EVERY == 0:
            kernel_s.append(reference_kernel())
        return out

    return wrapper


# -- output checks ---------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(path: Path, variant: str, episodes: int) -> list[dict]:
    """Parse a metrics table; every row must be in range for the variant."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        where = f"{path.name} row {i + 1}"
        if row["variant"] != variant or int(row["episodes"]) != episodes:
            raise ValueError(f"{where}: variant/episodes {row['variant']}/{row['episodes']}")
        for key, lo, hi in (("tse_mean", 0.0, 1.0), ("gre_mean", 0.0, 10.0), ("bleu", 0.0, 1.0)):
            if not lo <= float(row[key]) <= hi:
                raise ValueError(f"{where}: {key} {row[key]} outside [{lo}, {hi}]")
        if not math.isfinite(float(row["joint_mean"])):
            raise ValueError(f"{where}: joint_mean {row['joint_mean']} not finite")
    return rows


def expected_evaluations(train_cfg) -> int:
    """Evaluations a training run makes: one every ``eval_every`` updates
    before the last update, plus the final one."""
    updates = -(-train_cfg.episodes // train_cfg.batch_size)
    return (updates - 1) // train_cfg.eval_every + 1 if updates else 1


def check_train(cfg, run_dir: Path) -> tuple[dict, str]:
    from gopo.core import read_trajectories

    trajs = read_trajectories(run_dir / "trajectories.jsonl")
    if [t.episode_id for t in trajs] != list(range(cfg.train.episodes)):
        raise ValueError(f"trajectories.jsonl holds {len(trajs)} episodes, not {cfg.train.episodes}")
    rows = check_report(run_dir / "metrics.csv", cfg.train.variant, cfg.train.eval_episodes)
    if len(rows) != expected_evaluations(cfg.train):
        raise ValueError(f"metrics.csv has {len(rows)} rows")
    final = (run_dir / "final_report.csv").read_text(encoding="utf-8").splitlines()[-1]
    digests = {
        "trajectories.jsonl": _digest((run_dir / "trajectories.jsonl").read_bytes()),
        "metrics.csv": _digest((run_dir / "metrics.csv").read_bytes()),
        "eval_row": _digest(final.encode("utf-8")),
    }
    return digests, final


def check_eval(cfg, report: Path, printed: str) -> tuple[dict, str]:
    rows = check_report(report, cfg.train.variant, EVAL_EPISODES)
    text = report.read_text(encoding="utf-8")
    if len(rows) != 1 or printed != text:
        raise ValueError("eval report is not one row, or differs from what eval printed")
    final = text.splitlines()[-1]
    return {"eval_row": _digest(final.encode("utf-8"))}, final


# -- one iteration ------------------------------------------------------------------


class FirstEpisode(Exception):
    """Raised in probe mode when the first episode would start."""


def argv_for(workload: str, config: Path, run_dir: Path) -> list[str]:
    if workload == "eval-trained":
        return [
            "eval", "--checkpoint-dir", str(CHECKPOINTS), "--config", str(config),
            "--episodes", str(EVAL_EPISODES), "--out", str(run_dir / "eval_report.csv"),
        ]
    return ["train", str(config)]


def expected_episodes(cfg, workload: str) -> int:
    """Episodes one iteration runs; ``cfg`` needs only its ``train`` section."""
    if workload == "eval-trained":
        return EVAL_EPISODES
    return cfg.train.episodes + cfg.train.eval_episodes * expected_evaluations(cfg.train)


def run_iteration(args) -> dict:
    import gopo.cli
    import gopo.trainer
    from tracer import Tracer

    argv = argv_for(args.workload, args.config, args.run_dir)
    if args.mode == "probe":
        def stop(*_a, **_k):
            raise FirstEpisode(time.monotonic_ns())

        gopo.trainer.rollout = stop
        try:
            gopo.cli.main(argv)
        except FirstEpisode as first:
            return {"ok": True, "setup_s": first.args[0] / 1e9 - args.spawned_at}
        return {"ok": False, "error": "workload ended before its first episode"}

    targets = list(LAYERS) if args.mode == "traced" else ["trainer.rollout"]
    tracer = Tracer("gopo", targets, COUNTERS)
    printed = io.StringIO()
    kernel_s: list[float] = []
    with tracer, contextlib.redirect_stdout(printed):
        if args.mode == "plain":
            gopo.trainer.rollout = _sampling(gopo.trainer.rollout, kernel_s)
        t0 = time.monotonic_ns()
        rc = gopo.cli.main(argv)
        t1 = time.monotonic_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cfg, _ = gopo.cli.load_config(args.config)
    spans = tracer.arrays()
    rollout_starts = spans["start"][spans["name"] == tracer.names.index("trainer.rollout")]
    rollout = tracer.summary()["trainer.rollout"]
    result = {
        # the reference loops ran inside the call; their time is not gopo's
        "call_s": (t1 - t0) / 1e9 - sum(kernel_s),
        "kernel_s": kernel_s,
        "setup_s": rollout_starts[0] / 1e9 - args.spawned_at if rollout_starts.size else None,
        "episodes": rollout["calls"],
        "turns": rollout.get("turns", 0),
        "tokens": rollout.get("tokens", 0),
        "expected_episodes": expected_episodes(cfg, args.workload),
        "peak_rss_mb": peak_rss_mb,
        "absent": tracer.absent,
    }
    problems = []
    if rc != 0:
        problems.append(f"gopo exited {rc}")
    elif result["episodes"] != result["expected_episodes"]:
        problems.append(f"{result['episodes']} episodes, expected {result['expected_episodes']}")
    elif args.workload == "eval-trained":
        result["digests"], result["report_row"] = check_eval(
            cfg, args.run_dir / "eval_report.csv", printed.getvalue()
        )
    else:
        result["digests"], result["report_row"] = check_train(cfg, args.run_dir)
    if args.mode == "traced":
        result["per_layer"] = per_layer_metrics(tracer)
        problems += tracer.violations()[:10]
        tracer.dump(args.result.with_suffix(".spans.npz"))
    result.update(ok=not problems, error="; ".join(problems) or None)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before starting this process")
    args = parser.parse_args(argv)
    os.environ["GOPO_LOG_LEVEL"] = "error"
    try:
        result = run_iteration(args)
    except Exception:  # reported to run.py, which fails the iteration's episodes
        result = {"ok": False, "error": traceback.format_exc(limit=5)}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
