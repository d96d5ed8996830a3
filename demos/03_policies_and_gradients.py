"""The two policies in action, plus the guarantee the whole optimizer rests
on: analytic loss gradients agree with central finite differences."""

from pathlib import Path

import numpy as np

from gopo.agents import (
    CsaPolicy,
    ExpertPolicy,
    FeatureSpec,
    csa_act,
    csa_loss,
    expert_act,
    expert_loss,
    expert_rows,
)
from gopo.cli import load_config
from gopo.core import CsaState
from gopo.simenv import DialogueEnv

default = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")[0]
cfg, train = default.env, default.train
spec = FeatureSpec.from_env_config(cfg)
rng = np.random.default_rng(0)

expert = ExpertPolicy(spec, hidden=32, entropy_coeff=train.entropy_coeff, seed=1)
loss_weights = (train.lambda_pg, train.lambda_skill, train.lambda_diversity)
csa = CsaPolicy(spec, hidden=32, loss_weights=loss_weights, seed=2)
env = DialogueEnv(cfg)
obs = env.reset(seed=3)

# acting returns only the choice; its log-probability and entropy come
# from the teacher-forced loss, -advantage * log-prob - entropy_coeff * entropy,
# here over an episode of one turn
(seq,) = expert_act(expert, obs.expert_state, rng)
rows = expert_rows(expert, [obs.expert_state])
alpha = expert.entropy_coeff
seq_entropy = -expert_loss(expert, rows, [seq], [0.0])[0] / alpha
seq_log_prob = -expert_loss(expert, rows, [seq], [1.0])[0] - alpha * seq_entropy
print(f"sampled skill sequence {seq.skills}  "
      f"log-prob {seq_log_prob:.3f}  entropy {seq_entropy:.3f}")
(greedy_seq,) = expert_act(expert, obs.expert_state, None, greedy=True)
print(f"greedy skill sequence  {greedy_seq.skills}")

state = CsaState(obs.csa_utterance, seq, obs.business_ctx)
(response,) = csa_act(csa, state, rng)
# the responder loss reports L_p = -r_a * log-prob and L_d = -entropy
_, _, acted = csa_loss(csa, [state], [response], [1.0])
print(f"sampled response {response.tokens[:8]}... len {len(response.tokens)}  "
      f"log-prob {-acted['L_p']:.2f}  entropy {-acted['L_d']:.2f}")

# finite-difference check of the composite responder loss
total, grad, comps = csa_loss(csa, [state], [response], [0.7])
print(f"\ncomposite loss {total:.4f}  components "
      f"L_p {comps['L_p']:.3f}  L_s {comps['L_s']:.3f}  L_d {comps['L_d']:.3f}")

params = csa.generator.get_params()
step = 1e-5
idx = np.argsort(-np.abs(grad))[:8]  # the most influential parameters
print("\ncoordinate      analytic        finite-diff")
for i in idx:
    up, down = params.copy(), params.copy()
    up[i] += step
    down[i] -= step
    csa.generator.set_params(up)
    f_up = csa_loss(csa, [state], [response], [0.7])[0]
    csa.generator.set_params(down)
    f_down = csa_loss(csa, [state], [response], [0.7])[0]
    csa.generator.set_params(params)
    fd = (f_up - f_down) / (2 * step)
    print(f"  {i:6d}    {grad[i]:+12.8f}    {fd:+12.8f}")

_, egrad = expert_loss(expert, rows, [seq], [0.5])
print(f"\nplanner loss gradient norm {np.linalg.norm(egrad):.4f} "
      f"over {egrad.size} parameters")
