"""What must not change output bytes: how episodes are grouped into one
``_play`` call and into blocks, where a state sits in a block, greedy or
sampled, the BLAS thread count of a training or evaluation process, and,
for block rows and the pinned evaluation row, the OpenBLAS kernel."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from gopo.agents import BLOCK, block_act
from gopo.core import trajectory_to_json
from gopo.simenv import DialogueEnv
from gopo.trainer import (
    _STREAM_EVAL,
    _STREAM_TRAIN,
    _play,
    build_policies,
    load_checkpoints,
)
from conftest import (
    DEFAULT_CFG,
    DEFAULT_CONFIG_FILE,
    random_csa_state,
    random_expert_state,
    write_tiny_config,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHECKPOINTS = ROOT / "perfbench" / "checkpoints"

# two full blocks and a short last one, out of order, with a repeat
EPISODE_IDS = [4, 0, 7, 0, 2, 9, 13, 5, 11, 3, 16, 8, 1, 12, 6, 10, 14]


def assert_play_is_invariant(cfg, episode_ids, greedy):
    """Play ``episode_ids`` in order with ``_play`` on one shared set of
    block environments; each trajectory's JSON line must equal the line of
    the same episode played alone on a fresh environment (at row 0 of a
    block of one live row)."""
    expert, csa = build_policies(cfg.env, cfg.train)
    stream = _STREAM_EVAL if greedy else _STREAM_TRAIN
    seed = cfg.train.seed
    shared = [DialogueEnv(cfg.env, cfg.reward) for _ in range(BLOCK)]
    together = _play(shared, expert, csa, seed, stream, episode_ids, greedy)
    assert [t.episode_id for t in together] == list(episode_ids)
    for traj in together:
        line = trajectory_to_json(traj)
        fresh = [DialogueEnv(cfg.env, cfg.reward)]
        (alone,) = _play(fresh, expert, csa, seed, stream, [traj.episode_id], greedy)
        assert line == trajectory_to_json(alone), traj.episode_id


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
@pytest.mark.parametrize("variant", ["full", "no-expert"])
def test_play_of_an_episode_does_not_depend_on_its_neighbours(variant, greedy):
    # every episode starts from ``reset`` alone and, sampled, draws from its
    # own generator; episode ids[k] plays at block row k % BLOCK, and alone
    # at row 0 of a block of one
    assert len(EPISODE_IDS) == 2 * BLOCK + 1
    cfg = dataclasses.replace(
        DEFAULT_CFG, train=dataclasses.replace(DEFAULT_CFG.train, variant=variant)
    )
    assert_play_is_invariant(cfg, EPISODE_IDS, greedy)


@pytest.mark.parametrize(
    "policy_kind, greedy",
    [("expert", True), ("expert", False), ("csa", True), ("csa", False)],
    ids=["expert", "expert-sampled", "csa", "csa-sampled"],
)
def test_greedy_act_does_not_depend_on_its_block_row(policy_kind, greedy):
    """A state acted on alone (a block act with the state at row 0, the
    other rows padding) gets the symbols it gets at every row of a block
    whose other rows are other random states, on the trained weights,
    whose distributions are sharp.  Sampled, the state draws from a
    generator of a fixed seed, the other rows from generators of their own,
    and the state's generator also ends where it ends alone."""
    expert, csa = build_policies(DEFAULT_CFG.env, DEFAULT_CFG.train)
    load_checkpoints(CHECKPOINTS, expert, csa)
    spec = csa.spec
    policy, random_state = {
        "expert": (expert, random_expert_state),
        "csa": (csa, random_csa_state),
    }[policy_kind]
    rng = np.random.default_rng(23)
    for trial in range(6):
        state = random_state(spec, rng)
        if greedy:
            (alone,) = block_act(policy, [0], [state])
        else:
            mine = np.random.default_rng(700 + trial)
            (alone,) = block_act(policy, [0], [state], [mine])
            after = mine.random()
        for row in range(BLOCK):
            states = [random_state(spec, rng) for _ in range(BLOCK)]
            states[row] = state
            if greedy:
                got = block_act(policy, list(range(BLOCK)), states)
            else:
                rngs = [np.random.default_rng(rng.integers(2**32)) for _ in range(BLOCK)]
                rngs[row] = mine = np.random.default_rng(700 + trial)
                got = block_act(policy, list(range(BLOCK)), states, rngs)
                assert mine.random() == after, row
            assert got[row] == alone, row


@pytest.mark.parametrize(
    "policy_kind, greedy",
    [("expert", True), ("expert", False), ("csa", True), ("csa", False)],
    ids=["expert", "expert-sampled", "csa", "csa-sampled"],
)
def test_block_act_pairs_states_with_rows_given_in_any_order(policy_kind, greedy):
    """A full block whose rows are given out of order: state ``k``, at
    block row ``rows[k]``, gets what it gets acted on alone at that row
    (the other rows padding), sampled drawing from that row's generator,
    and the results come back in the order of ``rows``."""
    expert, csa = build_policies(DEFAULT_CFG.env, DEFAULT_CFG.train)
    load_checkpoints(CHECKPOINTS, expert, csa)
    policy, random_state = {
        "expert": (expert, random_expert_state),
        "csa": (csa, random_csa_state),
    }[policy_kind]
    rng = np.random.default_rng(29)
    for _ in range(3):
        rows = rng.permutation(BLOCK).tolist()
        assert rows != sorted(rows)
        states = [random_state(csa.spec, rng) for _ in range(BLOCK)]
        seeds = rng.integers(2**32, size=BLOCK)

        def act(rows, states):
            if greedy:
                return block_act(policy, rows, states)
            return block_act(policy, rows, states, [np.random.default_rng(s) for s in seeds])

        got = act(rows, states)
        for row, state, result in zip(rows, states, got):
            assert act([row], [state]) == [result], row


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


def _cli(threads, *args):
    """Standard output of ``gopo`` run with ``args`` in a process of its own
    at ``threads`` BLAS threads, warnings as errors."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "gopo.cli", *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count needs its
    # own process; hidden 64 gives the update's products the default widths
    config = write_tiny_config(tmp_path / "config.json", tmp_path / "unused", hidden_size=64)
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _cli(threads, "train", str(config), "--out", str(out))
        runs[threads] = _contents(out)
    assert {"trajectories.jsonl", "metrics.csv", "config.copy"} <= runs["1"].keys()
    assert runs["1"].keys() == runs["2"].keys()
    for name in runs["1"]:
        assert runs["1"][name] == runs["2"][name], name


def test_pinned_eval_row_at_one_blas_thread():
    """The pinned checkpoints' greedy evaluation row at one BLAS thread,
    from its own process (OpenBLAS reads the count when it loads);
    ``tests/test_cli.py`` pins the same row in process, at the default
    count."""
    want = json.loads((CHECKPOINTS / "PROVENANCE.json").read_text())["metrics_csv_final_row"]
    out = _cli(
        "1", "eval", "--checkpoint-dir", str(CHECKPOINTS), "--config", str(DEFAULT_CONFIG_FILE)
    )
    assert out.splitlines()[-1] == want


# OpenBLAS core types to try, with the CPU flags (as /proc/cpuinfo names
# them) each needs; a name the library does not build falls back to
# another kernel, which is then checked once
KERNELS = {
    "SkylakeX": {"avx512f", "avx512bw", "avx512vl"},
    "Cooperlake": {"avx512f", "avx512bw", "avx512vl", "avx512_bf16"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
    "Prescott": {"pni"},
}

# In a process of its own kernel: every row of a block of random rows keeps
# its logits' bits at a random row of another block, on the planner's and
# the responder's default network shapes (trained weights), then the
# pinned checkpoints are evaluated, printing their row.
_KERNEL_CHILD = """
import sys
import numpy as np
from gopo.agents import BLOCK
from gopo.cli import load_config, main
from gopo.trainer import build_policies, load_checkpoints

config, checkpoints = sys.argv[1:]
cfg, _ = load_config(config)
expert, csa = build_policies(cfg.env, cfg.train)
load_checkpoints(checkpoints, expert, csa)
rng = np.random.default_rng(31)
for net in (expert.net, csa.net):
    d = net.layer_sizes[0]
    for _ in range(40):
        x = rng.normal(0, 1, (BLOCK, d))
        z = net.forward(x, logits=True)
        for i in range(BLOCK):
            other = rng.normal(0, 1, (BLOCK, d))
            j = int(rng.integers(BLOCK))
            other[j] = x[i]
            got = net.forward(other, logits=True)[j]
            assert np.array_equal(got, z[i]), (net.layer_sizes, i, j)
sys.exit(main(["eval", "--checkpoint-dir", checkpoints, "--config", config]))
"""


def _kernel_run(coretype, *args):
    """``python -W error`` with ``args`` in a process of its own whose
    OpenBLAS runs the kernel ``coretype`` names; returns the finished
    process and the kernel OpenBLAS reported choosing (None if it reported
    none)."""
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=coretype,
        OPENBLAS_VERBOSE="2",
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True
    )
    core = re.search(r"^Core: (\S+)$", done.stderr, re.MULTILINE)
    return done, core and core[1]


def test_block_rows_and_pinned_row_hold_on_every_runnable_kernel():
    """Each OpenBLAS kernel the CPU can run, in a process of its own (the
    library picks its kernel when it loads): block rows keep their bits
    whatever their position and neighbours, and the pinned checkpoints'
    evaluation prints the pinned row."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        flags = set(re.search(r"^flags\s*:(.*)$", cpuinfo, re.MULTILINE)[1].split())
    except (OSError, TypeError):
        pytest.skip("no CPU flags to read")
    want = json.loads((CHECKPOINTS / "PROVENANCE.json").read_text())["metrics_csv_final_row"]
    checked = set()
    for coretype, needs in KERNELS.items():
        if not needs <= flags:
            continue
        _, core = _kernel_run(coretype, "-c", "import numpy")
        if core is None:
            pytest.skip("numpy's BLAS reports no OpenBLAS core")
        if core in checked:
            continue
        checked.add(core)
        done, ran = _kernel_run(
            core, "-c", _KERNEL_CHILD, str(DEFAULT_CONFIG_FILE), str(CHECKPOINTS)
        )
        assert ran == core and done.returncode == 0, (core, done.stderr)
        assert done.stdout.splitlines()[-1] == want, core
    assert checked
