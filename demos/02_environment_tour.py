"""Walk one scripted episode: follow the reference skill sequence with fully
compliant responses and watch the milestones chain and each turn's reward;
then contrast a junk turn."""

from pathlib import Path

from gopo.cli import load_config
from gopo.core import MILESTONE_NAMES, Response, response_markers
from gopo.simenv import DialogueEnv

default = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")[0]
cfg = default.env
env = DialogueEnv(cfg, default.reward)
obs = env.reset(seed=11)

print(f"World: {len(cfg.skill_pool)} skills, {len(cfg.intents)} intents, "
      f"{len(cfg.emotions)} emotions, |V|={cfg.vocab_size}, horizon {cfg.horizon}")
names = [s.name for s in cfg.skill_pool]

done = False
turn = 0
while not done:
    turn += 1
    state = obs.expert_state
    teacher = env.teacher_sequence(state)
    required = sorted(set().union(*(cfg.skill_pool[s].required_markers for s in teacher)))
    response = Response(required, response_markers(required, cfg.token_markers))
    print(f"\nturn {turn}  phase {state.phase}  user: {state.intent}/{state.emotion}")
    print(f"  reference plan : {[names[s] for s in teacher]}")
    print(f"  response tokens: {response.tokens} (markers {sorted(response.markers)})")
    obs, reward, done = env.step(teacher, response)
    scores = reward.dim_scores
    print(f"  judge [polite, comply, relevant, diverse] = "
          f"[{scores[0]:.2f}, {scores[1]:.2f}, {scores[2]:.2f}, {scores[3]:.2f}]")
    print(f"  reward: planner {reward.r_expert:.2f}  responder {reward.r_csa:.2f}  "
          f"joint {reward.joint:.3f} (weights {reward.w_expert:.2f}/{reward.w_csa:.2f})")
    for name, at in zip(MILESTONE_NAMES, env.milestone_record().turns):
        if at == turn:
            print(f"  >> milestone completed: {name}")

record = env.milestone_record()
print(f"\nterminal reason: {env.terminal_reason}")
print(f"milestones completed {record.completed} at turns {record.turns}")

print("\n--- and a fully non-compliant episode ---")
obs = env.reset(seed=11)
junk_tokens = [cfg.vocab_size - 1]
junk = Response(junk_tokens, response_markers(junk_tokens, cfg.token_markers))
done = False
turns = 0
while not done:
    teacher = env.teacher_sequence(obs.expert_state)
    obs, _, done = env.step(teacher, junk)
    turns += 1
print(f"junk responses: {turns} turns, terminal reason {env.terminal_reason}, "
      f"milestones {env.milestone_record().completed}")
