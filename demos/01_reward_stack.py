"""Tour of the reward stack: graded relevance, discounted gains, the
normalized planner reward, the judged responder reward, and the turn-indexed
joint mixture."""

from pathlib import Path

from gopo.cli import load_config
from gopo.rewards import (
    csa_reward,
    dcg,
    esndcg,
    idcg,
    joint_reward,
    joint_weights,
    relevance,
)

GREET, PROBE, RECOMMEND, EXPLAIN = 0, 1, 2, 3
teacher = (GREET, PROBE, RECOMMEND)

print("Reference sequence:", teacher)
print("\nGraded relevance (earlier reference skills weigh more):")
for skill, name in [(GREET, "greet"), (PROBE, "probe"), (RECOMMEND, "recommend"), (EXPLAIN, "explain")]:
    print(f"  relevance({name:10s}) = {relevance(skill, teacher)}")

print("\nPosition-discounted gain of some predictions:")
for pred in [(GREET, PROBE, RECOMMEND), (PROBE, GREET), (EXPLAIN,), (GREET, GREET)]:
    print(
        f"  pred {str(pred):24s} dcg {dcg(pred, teacher):7.4f}"
        f"   normalized {esndcg(pred, teacher):6.4f}"
    )
print(f"  ideal (the reference itself) idcg = {idcg(teacher):.4f}")

print("\nA repeated skill scores relevance 0, so repeating gains nothing:")
print(f"  dcg (greet,)        = {dcg((GREET,), teacher):.4f}")
print(f"  dcg (greet, greet)  = {dcg((GREET, GREET), teacher):.4f}")

cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")[0].reward
print("\nResponder reward = weighted judge scores:")
scores = (1.0, 0.75, 0.5, 0.9)  # politeness, compliance, relevance, diversity
print(f"  scores {scores} weights {cfg.dim_weights} -> {csa_reward(scores, cfg):.4f}")

print("\nJoint weight schedule over a 12-turn episode:")
for turn in (1, 4, 8, 12):
    w_e, w_a = joint_weights(turn, 12, cfg)
    print(f"  turn {turn:2d}: planner weight {w_e:.3f}  responder weight {w_a:.3f}")

w = joint_weights(6, 12, cfg)
print(f"\nJoint reward at turn 6 with planner 0.9, responder 0.6: "
      f"{joint_reward(0.9, 0.6, w):.4f}")
