"""gopo benchmark: three closed-loop workloads driven through ``gopo.cli.main``.

Run from the repository root::

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 40 --trace 0

Workloads (each derives its config from ``configs/default.json``, editing only
``train.episodes``, ``train.eval_episodes``, ``train.variant``, ``train.seed``
and ``output_dir``):

  train-full       ``gopo train`` of variant ``full`` over one whole
                   evaluation period of the default run: 50 updates of 8
                   episodes, then a 200-episode greedy evaluation.  The
                   update path (losses, backward, Adam) does most of the work.
  train-no-expert  the same with variant ``no-expert``: no planner, critic or
                   ranking reward, and no coverage term in the responder loss.
  eval-trained     ``gopo eval`` (greedy, 200 episodes) of the trained
                   checkpoints in ``perfbench/checkpoints``: forward passes
                   only, with episodes that end early and unevenly.

One episode runs at a time in one process (``train.workers`` stays at its
default).  Each iteration is a fresh process started by this script, see
``workload.py``.  With ``--trace 0`` the script first starts a few processes
that stop at the first episode (set-up samples), then runs whole iterations
while the next one is expected to finish within ``--seconds``, at least one.
It reports medians over iterations:

  setup_s         process start to first episode (s)
  episodes_per_s  training plus evaluation episodes per second of the call
  turns_per_s     dialogue turns per second of the call
  peak_rss_mb     peak resident memory of the workload process (MB)

The three times are corrected for the speed of the machine during the run.
On a shared host the same iteration runs up to a third faster or slower from
one minute to the next, and all code slows alike.  So each untraced
iteration also times a fixed reference loop (``workload.reference_kernel``:
the shape of one policy step, no gopo code) after every 20th episode, and
leaves that time out of its call.  The times are scaled by the run's median
loop time over ``KERNEL_NOMINAL_S``, the loop's typical time on the machine
the benchmark was defined on (2-core x86 VM, Python 3.11, numpy 2.4
with OpenBLAS 0.3), so they read as seconds of that machine.  The
uncorrected figures are printed and recorded beside them.

The episode failure share is ``failed / attempted`` in the last line: an
iteration that raises, exits non-zero or fails an output check fails all its
episodes.  With ``--trace 1`` it runs untraced and traced iterations in pairs
on the same seed, reports the per-layer numbers of the first traced one, and
reports ``trace.overhead_share`` as the traced calls' median extra time over
the untraced ones.

Every iteration of a seed must write the same outputs; digests are also kept
in ``perfbench/.work/digests.json`` so that a later run of the same code and
seed is compared too.  The last line of standard output is the JSON result;
a fuller record, with the environment, goes to ``perfbench/.work/results/``.

The tracer self-test: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from workload import EVAL_EPISODES, KERNEL_NOMINAL_S, expected_episodes, per_layer_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
SOURCE = ROOT / "src" / "gopo"

WORKLOADS = {
    "train-full": "full",
    "train-no-expert": "no-expert",
    "eval-trained": "full",
}
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "turns_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def source_digest() -> str:
    """Digest of the package source and default config: identifies the code
    under test when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    h.update(DEFAULT_CONFIG.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD commit read from ``.git`` in the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def write_config(workload: str, seed: int, run_dir: Path, path: Path) -> SimpleNamespace:
    """Write the workload's config; returns its ``train`` section."""
    data = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    train = data["train"]
    # one whole evaluation period of the default run
    train["episodes"] = train["eval_every"] * train["batch_size"]
    train["eval_episodes"] = EVAL_EPISODES
    train["variant"] = WORKLOADS[workload]
    train["seed"] = seed
    data["output_dir"] = str(run_dir)
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return SimpleNamespace(**train)


def run_child(workload: str, mode: str, config: Path, run_dir: Path, result: Path) -> dict:
    """One iteration in a fresh process; a crash or timeout is a failed result."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "workload.py"), "--workload", workload,
        "--mode", mode, "--config", str(config), "--run-dir", str(run_dir),
        "--result", str(result),
    ]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return {"ok": False, "error": f"{mode} iteration timed out", "wall_s": CHILD_TIMEOUT_S}
    wall = time.monotonic() - spawned_at
    try:
        out = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        out = {"ok": False, "error": f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}"}
    out["wall_s"] = wall
    return out


class DigestBook:
    """Output digests per (workload, seed, source); a mismatch means two runs
    of the same code and seed wrote different bytes."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.book = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.book = {}
        self.mismatches: list[str] = []

    def check(self, digests: dict) -> None:
        known = self.book.setdefault(self.key, digests)
        for name, value in digests.items():
            if known.get(name) != value:
                self.mismatches.append(f"{name} differs from an earlier run of this seed")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file() or not DEFAULT_CONFIG.is_file():
        sys.exit(f"error: run from a checkout holding src/gopo and configs/default.json ({ROOT})")
    env = environment(args.seed)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    config = work / "config.json"
    run_dir = work / "run"
    train_cfg = write_config(args.workload, args.seed, run_dir, config)
    expected = expected_episodes(SimpleNamespace(train=train_cfg), args.workload)
    digests = DigestBook(WORK / "digests.json", f"{args.workload}|{args.seed}|{env['source_sha256']}")

    def child(mode: str, name: str) -> dict:
        return run_child(args.workload, mode, config, run_dir, work / f"{name}.json")

    setups: list[float] = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = child("probe", f"probe{i}")
            if probe["ok"]:
                setups.append(probe["setup_s"])
    # whole rounds while the next is expected to end in time; a traced run
    # pairs each traced iteration with an untraced one on the same seed
    modes = ("plain", "traced") if args.trace else ("plain",)
    iterations: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        n = len(iterations) // len(modes)
        rnd = [child(mode, f"{mode}{n}") for mode in modes]
        iterations += rnd
        if not all(it["ok"] for it in rnd):
            break
        if time.monotonic() + sum(it["wall_s"] for it in rnd) > deadline:
            break

    attempted = failed = 0
    errors = []
    for it in iterations:
        attempted += expected
        if it["ok"]:
            digests.check(it["digests"])
        else:
            failed += expected
            errors.append(it.get("error"))
    digests.save()
    errors += digests.mismatches
    good = [it for it in iterations if it["ok"]]
    correct = failed == 0 and not digests.mismatches

    if args.trace:
        metrics = {}
        plain = [it["call_s"] for it in good if "per_layer" not in it]
        traced = [it for it in good if "per_layer" in it]
        if plain and traced:
            metrics = dict(traced[0]["per_layer"])
            metrics["trace.overhead_share"] = (
                statistics.median(it["call_s"] for it in traced) / statistics.median(plain) - 1.0
            )
    else:
        setups += [it["setup_s"] for it in good]
        uncorrected = {
            "setup_s": statistics.median(setups),
            "episodes_per_s": statistics.median(it["episodes"] / it["call_s"] for it in good),
            "turns_per_s": statistics.median(it["turns"] / it["call_s"] for it in good),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in good),
        } if good and setups else {}
        # above 1 when the machine runs slower than the nominal loop time
        kernel_s = [k for it in good for k in it["kernel_s"]]
        slowdown = statistics.median(kernel_s) / KERNEL_NOMINAL_S if kernel_s else 1.0
        metrics = dict(uncorrected)
        if metrics:
            metrics["setup_s"] /= slowdown
            metrics["episodes_per_s"] *= slowdown
            metrics["turns_per_s"] *= slowdown
    units = END_TO_END_UNITS if not args.trace else {m["name"]: m["unit"] for m in per_layer_spec()}
    result = {
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result,
        "episode_failure_share": failed / attempted, "errors": errors,
        "setup_samples": setups,
        "uncorrected": None if args.trace else uncorrected,
        "slowdown": None if args.trace else slowdown,
        "absent_targets": sorted({t for it in iterations for t in it.get("absent", [])}),
        "report_row": next((it["report_row"] for it in good), None),
        "iterations": [
            {k: it.get(k) for k in ("ok", "wall_s", "call_s", "setup_s", "episodes",
                                   "turns", "tokens", "peak_rss_mb", "digests")}
            for it in iterations
        ],
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# environment: {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed}: {len(iterations)} iteration(s), "
          f"report row {record['report_row']}")
    for err in errors:
        print(f"# error: {err}")
    if record["absent_targets"]:
        print(f"# absent trace targets (reported as 0 calls): {record['absent_targets']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6f} {m['unit']}")
    if not args.trace:
        print(f"# machine slowdown {slowdown:.4f}; uncorrected: "
              + ", ".join(f"{k} {v:.6g}" for k, v in uncorrected.items()))
    print(f"{'episode_failure_share':48s} {failed / attempted:>16.6f} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
