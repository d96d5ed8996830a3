"""Rebuild the trained checkpoints that the eval-trained workload evaluates.

Trains the default configuration (variant ``full``, seed 0, 2400 episodes)
through ``gopo.cli.main``, then re-saves the final planner, critic and
responder networks into ``perfbench/checkpoints`` without their Adam state,
beside ``PROVENANCE.json`` (command, commit and final ``metrics.csv`` row).
Takes about two minutes on one core.  The benchmark itself never retrains:
if a checkpoint is missing or does not load, its workload fails.

Run from the repository root::

    python3 perfbench/make_checkpoints.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, WORK, git_commit, source_digest
from workload import CHECKPOINTS

COMMAND = ["train", "configs/default.json", "--out"]


def main() -> int:
    import gopo.cli
    from gopo.neural import load_checkpoint, save_checkpoint

    os.environ["GOPO_LOG_LEVEL"] = "error"
    out = WORK / "checkpoint-run"
    shutil.rmtree(out, ignore_errors=True)
    rc = gopo.cli.main([COMMAND[0], str(ROOT / COMMAND[1]), COMMAND[2], str(out)])
    if rc != 0:
        return rc
    final_row = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[-1]
    src = out / "checkpoints"
    step = max(int(p.stem.split("-")[-1]) for p in src.glob("csa-*.ckpt"))
    shutil.rmtree(CHECKPOINTS, ignore_errors=True)
    CHECKPOINTS.mkdir()
    for name in ("expert", "critic", "csa"):
        net, _ = load_checkpoint(src / f"{name}-{step}.ckpt")
        save_checkpoint(CHECKPOINTS / f"{name}-{step}.ckpt", net)
    provenance = {
        "command": "PYTHONPATH=src python3 -m gopo.cli " + " ".join(COMMAND) + " RUN_DIR",
        "rebuild": "python3 perfbench/make_checkpoints.py",
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "step": step,
        "metrics_csv_final_row": final_row,
        "adam_state": "dropped",
    }
    (CHECKPOINTS / "PROVENANCE.json").write_text(
        json.dumps(provenance, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(provenance, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
