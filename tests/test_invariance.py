"""What must not change output bytes: how episodes are grouped into one
``_play`` call, and the BLAS thread count of a training process."""

import dataclasses
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from gopo.core import trajectory_to_json
from gopo.simenv import DialogueEnv
from gopo.trainer import _STREAM_EVAL, _STREAM_TRAIN, _play, build_policies
from conftest import DEFAULT_CFG, write_tiny_config

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_play_is_invariant(cfg, episode_ids, greedy):
    """Play ``episode_ids`` in order with ``_play`` on one shared
    environment; each trajectory's JSON line must equal the line of the same
    episode played alone on a fresh environment."""
    expert, csa = build_policies(cfg.env, cfg.train)
    stream = _STREAM_EVAL if greedy else _STREAM_TRAIN
    seed = cfg.train.seed
    shared = DialogueEnv(cfg.env, cfg.reward)
    together = _play(shared, expert, csa, seed, stream, episode_ids, greedy)
    assert [t.episode_id for t in together] == list(episode_ids)
    for traj in together:
        fresh = DialogueEnv(cfg.env, cfg.reward)
        (alone,) = _play(fresh, expert, csa, seed, stream, [traj.episode_id], greedy)
        assert trajectory_to_json(traj) == trajectory_to_json(alone), traj.episode_id


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
@pytest.mark.parametrize("variant", ["full", "no-expert"])
def test_play_of_an_episode_does_not_depend_on_its_neighbours(variant, greedy):
    # out of order, with a repeat: every episode starts from ``reset`` alone
    cfg = dataclasses.replace(
        DEFAULT_CFG, train=dataclasses.replace(DEFAULT_CFG.train, variant=variant)
    )
    assert_play_is_invariant(cfg, [4, 0, 7, 0, 2, 9], greedy)


def _contents(run_dir):
    """Every file's bytes; a checkpoint contributes its zip members' bytes,
    because the zip headers carry the time they were written."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        rel = str(path.relative_to(run_dir))
        if path.suffix == ".ckpt":
            with zipfile.ZipFile(path) as zf:
                for member in sorted(zf.namelist()):
                    out[f"{rel}:{member}"] = zf.read(member)
        elif path.is_file():
            out[rel] = path.read_bytes()
    return out


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count needs its
    # own process; hidden 64 gives the update's products the default widths
    config = write_tiny_config(tmp_path / "config.json", tmp_path / "unused", hidden_size=64)
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        )
        subprocess.run(
            [sys.executable, "-W", "error", "-m", "gopo.cli", "train", str(config),
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        runs[threads] = _contents(out)
    assert {"trajectories.jsonl", "metrics.csv", "config.copy"} <= runs["1"].keys()
    assert runs["1"].keys() == runs["2"].keys()
    for name in runs["1"]:
        assert runs["1"][name] == runs["2"][name], name
