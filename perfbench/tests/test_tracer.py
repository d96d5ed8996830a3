"""Self-test of the benchmark's tracer on a tiny world built here.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time
import zipfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402  (puts src/ on the path)
from tracer import Tracer  # noqa: E402

import gopo.agents  # noqa: E402
import gopo.cli  # noqa: E402
import gopo.trainer  # noqa: E402


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory) -> Path:
    """The default world with a two-update run: small nets, planner updates
    from the first update, an evaluation after each update."""
    base = tmp_path_factory.mktemp("cfg")
    data = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    data["train"].update(
        episodes=16, batch_size=8, eval_every=1, eval_episodes=4,
        hidden_size=8, critic_warmup=0,
    )
    data["output_dir"] = str(base / "run")
    path = base / "tiny.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _train(config: Path, out: Path) -> None:
    os.environ["GOPO_LOG_LEVEL"] = "error"
    assert gopo.cli.main(["train", str(config), "--out", str(out)]) == 0


def _contents(run_dir: Path) -> dict[str, bytes]:
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


@pytest.fixture(scope="module")
def traced_pair(tiny_config, tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    _train(tiny_config, base / "plain")
    tracer = Tracer("gopo", list(workload.LAYERS), workload.COUNTERS)
    t0 = time.monotonic_ns()
    with tracer:
        _train(tiny_config, base / "traced")
    wall = time.monotonic_ns() - t0
    return base, tracer, wall


def test_traced_run_writes_identical_run_directory(traced_pair):
    base, _, _ = traced_pair
    plain, traced = _contents(base / "plain"), _contents(base / "traced")
    assert "trajectories.jsonl" in plain and "metrics.csv" in plain
    assert plain.keys() == traced.keys()
    differing = [name for name in plain if plain[name] != traced[name]]
    assert differing == []


def test_spans_close_and_nest(traced_pair):
    _, tracer, _ = traced_pair
    assert len(tracer.span_start) > 1000
    assert tracer.violations() == []
    assert tracer.absent == []


def test_self_times_within_wall_time(traced_pair):
    _, tracer, wall = traced_pair
    self_ns = tracer.self_ns()
    assert (self_ns >= 0).all()
    assert self_ns.sum() <= tracer.wall_ns() <= wall


def test_uninstall_restores_the_package(traced_pair):
    assert not hasattr(gopo.trainer.csa_loss, "__wrapped__")
    assert gopo.trainer.csa_loss is gopo.agents.csa_loss
    assert not hasattr(gopo.neural.Mlp.forward, "__wrapped__")


def test_per_layer_metrics_match_benchmark_spec(traced_pair):
    _, tracer, _ = traced_pair
    metrics = workload.per_layer_metrics(tracer)
    spec = workload.per_layer_spec()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert declared == spec
    assert set(metrics) | {"trace.overhead_share"} == {m["name"] for m in spec}
    assert metrics["agents.csa_loss.calls"] > 0
    assert metrics["neural.Mlp.backward.rows"] >= metrics["neural.Mlp.backward.calls"] > 0
    assert 0.0 < metrics["agents.act_useful_row_share"] <= 1.0
    assert sum(metrics[f"{m}.self_s"] for m in workload.MODULES) == pytest.approx(
        tracer.wall_ns() / 1e9
    )


def test_missing_target_is_reported_absent():
    targets = [
        "agents.no_such_function",
        "no_such_module.f",
        "neural.Mlp.no_such_method",
        "rewards.esndcg",
    ]
    original = gopo.rewards.esndcg
    with Tracer("gopo", targets) as tracer:
        assert gopo.rewards.esndcg is not original
        gopo.rewards.esndcg((0, 1), (0, 1))
    assert gopo.rewards.esndcg is original
    assert tracer.absent == targets[:3]
    summary = tracer.summary()
    assert summary["agents.no_such_function"]["calls"] == 0
    assert summary["agents.no_such_function"]["p99_us"] == 0.0
    assert summary["rewards.esndcg"]["calls"] == 1


def test_spans_dump_round_trips(traced_pair, tmp_path):
    import numpy as np

    _, tracer, _ = traced_pair
    tracer.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        assert list(data["names"]) == tracer.names
        assert (data["end"] == tracer.arrays()["end"]).all()


def test_probe_mode_stops_at_first_episode(tiny_config, tmp_path):
    result = tmp_path / "probe.json"
    args = [
        "--workload", "train-full", "--mode", "probe", "--config", str(tiny_config),
        "--run-dir", str(tiny_config.parent / "run"), "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ]
    saved = gopo.trainer.rollout
    try:
        assert workload.main(args) == 0
    finally:
        gopo.trainer.rollout = saved
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["ok"] and 0.0 < out["setup_s"] < 60.0
    assert (tiny_config.parent / "run" / "trajectories.jsonl").read_text() == ""


@pytest.mark.parametrize("damage", ["missing", "garbage"])
def test_eval_fails_on_a_bad_checkpoint(damage, tmp_path, monkeypatch):
    ckpts = tmp_path / "checkpoints"
    ckpts.mkdir()
    for path in workload.CHECKPOINTS.glob("*.ckpt"):
        (ckpts / path.name).write_bytes(path.read_bytes())
    critic = next(ckpts.glob("critic-*.ckpt"))
    if damage == "missing":
        critic.unlink()
    else:
        critic.write_bytes(b"not a checkpoint")
    before = sorted(p.name for p in ckpts.iterdir())
    monkeypatch.setattr(workload, "CHECKPOINTS", ckpts)
    data = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    data["output_dir"] = str(tmp_path / "run")
    config = tmp_path / "eval.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "run").mkdir()
    result = tmp_path / "result.json"
    args = [
        "--workload", "eval-trained", "--mode", "plain", "--config", str(config),
        "--run-dir", str(tmp_path / "run"), "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ]
    assert workload.main(args) == 0
    out = json.loads(result.read_text(encoding="utf-8"))
    assert not out["ok"] and out["episodes"] == 0
    # it never retrains: nothing is written beside the checkpoints or the run
    assert sorted(p.name for p in ckpts.iterdir()) == before
    assert list((tmp_path / "run").iterdir()) == []
