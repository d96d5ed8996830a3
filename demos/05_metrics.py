"""The three evaluation lenses on hand-built episodes: task efficiency with
turn decay, judged response effectiveness, and n-gram overlap."""

from pathlib import Path

from gopo.cli import load_config
from gopo.core import MilestoneRecord
from gopo.metrics import bleu, tse

cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")[0].tse
print(f"task weights {cfg.task_weights}, decay {cfg.decay}")

print("\nTask efficiency rewards early completion:")
cases = [
    ("immediate (1,2,3)", MilestoneRecord((True, True, True), (1, 2, 3))),
    ("staggered (2,4,6)", MilestoneRecord((True, True, True), (2, 4, 6))),
    ("slow (4,8,12)", MilestoneRecord((True, True, True), (4, 8, 12))),
    ("two of three", MilestoneRecord((True, True, False), (1, 2, None))),
    ("skipped middle", MilestoneRecord((True, False, True), (2, None, 5))),
    ("nothing", MilestoneRecord()),
]
for label, record in cases:
    print(f"  {label:20s} -> {tse(record, cfg):.4f}")

print("\nCorpus n-gram overlap:")
refs = [(3, 1, 4, 1, 5), (9, 2, 6)]
for label, cands in [
    ("identical", refs),
    ("one swap", [(3, 1, 1, 4, 5), (9, 2, 6)]),
    ("disjoint", [(7, 7, 7, 7, 7), (8, 8, 8)]),
]:
    print(f"  {label:10s} -> {bleu(cands, refs):.4f}")
