"""A compressed training run (about a minute) followed by the evaluation
metrics; shows the run-directory artifacts every experiment produces.  The
run goes into a temporary directory, removed when the demo ends.

For the full-strength run and the three-variant ablation use the CLI:

    gopo train configs/default.json
    gopo ablate --config configs/default.json --seeds 0,1,2
"""

import dataclasses
import pathlib
import tempfile

from gopo.cli import load_config
from gopo.core import read_trajectories
from gopo.metrics import METRIC_CSV_HEADER
from gopo.trainer import train

cfg, _ = load_config(pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json")
quick = dataclasses.replace(
    cfg.train, episodes=800, critic_warmup=25, eval_every=1000, eval_episodes=60
)

with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp) / "quick-run"
    print(f"training {quick.episodes} episodes into {out} ...")
    report, _ = train(dataclasses.replace(cfg, train=quick), out)

    print("\nrun directory:")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(out)}")

    print("\nfinal greedy evaluation:")
    print(METRIC_CSV_HEADER)
    print(report.csv_row())

    trajs = read_trajectories(out / "trajectories.jsonl")
    completed = sum(sum(t.milestones.completed) for t in trajs[-100:]) / 100
    print(f"\nmilestones per episode over the last 100 training rollouts: {completed:.2f}")

    curves = (out / "curves.csv").read_text().strip().splitlines()
    first, last = curves[1].split(","), curves[-1].split(",")
    print(f"mean joint reward: update {first[0]} -> {float(first[1]):.3f}, "
          f"update {last[0]} -> {float(last[1]):.3f}")
