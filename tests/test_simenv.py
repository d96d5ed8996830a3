import dataclasses

import numpy as np
import pytest

import gopo.simenv
from gopo.core import MAX_SKILL_SEQUENCE_LEN, Response, SkillSequence, response_markers
from gopo.rewards import esndcg
from gopo.simenv import (
    ConfigError,
    DialogueEnv,
    EnvConfig,
    TERMINAL_ALL_MILESTONES,
    TERMINAL_HORIZON,
    draw,
    parse_fields,
    reference_responses,
    to_json,
)
from conftest import DEFAULT_CFG, make_tiny_env_cfg
from oracles import ChoiceDialogueEnv


def _response(cfg, tokens):
    return Response(tokens, response_markers(tokens, cfg.token_markers))


def _full_marker_response(cfg, skills):
    markers = sorted(set().union(*(cfg.skill_pool[s].required_markers for s in skills)))
    return _response(cfg, markers)


def _junk_response(cfg):
    # tokens from the markerless tail of the vocabulary
    t = cfg.vocab_size - 1
    assert not cfg.token_markers[t]
    return _response(cfg, [t])


class TestReset:
    def test_same_seed_same_observation(self, env_cfg):
        a = DialogueEnv(env_cfg).reset(seed=5)
        b = DialogueEnv(env_cfg).reset(seed=5)
        assert a == b

    def test_point_mass_initial_intent(self, env_cfg):
        dist = tuple(1.0 if i == env_cfg.intents.index("inquire") else 0.0 for i in range(6))
        cfg = dataclasses.replace(env_cfg, initial_intent_dist=dist)
        for seed in range(10):
            assert DialogueEnv(cfg).reset(seed=seed).expert_state.intent == "inquire"

    def test_seed_sweep_varies_observations(self, env_cfg):
        env = DialogueEnv(env_cfg)
        seen = {
            (
                env.reset(seed=s).expert_state.intent,
                env.reset(seed=s).expert_state.emotion,
                env.reset(seed=s).csa_utterance,
            )
            for s in range(100)
        }
        assert len(seen) > 1

    def test_fresh_episode_state(self, env_cfg):
        obs = DialogueEnv(env_cfg).reset(seed=0)
        s = obs.expert_state
        assert s.phase == 1 and s.turn == 1
        assert s.history == () and s.prev_skills is None


class TestStep:
    def test_teacher_match_fires_first_milestone(self, env_cfg):
        env = DialogueEnv(env_cfg)
        obs = env.reset(seed=3)
        teacher = env.teacher_sequence(obs.expert_state)
        resp = _full_marker_response(env_cfg, teacher.skills)
        _, scores, _ = env.step(teacher, resp)
        assert scores[1] == 1.0
        assert env.milestone_record().completed == (True, False, False)

    def test_empty_marker_response_scores_zero_compliance(self, env_cfg):
        env = DialogueEnv(env_cfg)
        obs = env.reset(seed=1)
        teacher = env.teacher_sequence(obs.expert_state)
        _, scores, _ = env.step(teacher, _junk_response(env_cfg))
        assert scores[1] == 0.0
        assert env.milestone_record().completed == (False, False, False)

    def test_horizon_termination_without_milestones(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=2)
        done = False
        steps = 0
        while not done:
            _, _, done = env.step(SkillSequence((3,)), _junk_response(env_cfg))
            steps += 1
        assert steps == env_cfg.horizon
        assert env.terminal_reason == TERMINAL_HORIZON
        assert env.milestone_record().completed == (False, False, False)

    def test_all_milestones_terminates_early(self, env_cfg):
        env = DialogueEnv(env_cfg)
        obs = env.reset(seed=4)
        done = False
        while not done:
            teacher = env.teacher_sequence(obs.expert_state)
            obs, _, done = env.step(teacher, _full_marker_response(env_cfg, teacher.skills))
        assert env.terminal_reason == TERMINAL_ALL_MILESTONES
        record = env.milestone_record()
        assert record.completed == (True, True, True)
        assert record.turns == (1, 2, 3)

    def test_step_after_done_raises(self, env_cfg):
        cfg = dataclasses.replace(env_cfg, horizon=1)
        env = DialogueEnv(cfg)
        env.reset(seed=0)
        env.step(SkillSequence((0,)), _junk_response(cfg))
        with pytest.raises(RuntimeError):
            env.step(SkillSequence((0,)), _junk_response(cfg))

    def test_step_before_reset_raises(self, env_cfg):
        with pytest.raises(RuntimeError):
            DialogueEnv(env_cfg).step(SkillSequence((0,)), _junk_response(env_cfg))

    def test_milestones_never_unset_and_phase_advances(self, env_cfg):
        env = DialogueEnv(env_cfg)
        obs = env.reset(seed=9)
        teacher = env.teacher_sequence(obs.expert_state)
        obs, _, _ = env.step(teacher, _full_marker_response(env_cfg, teacher.skills))
        assert env.milestone_record().completed[0] and obs.expert_state.phase == 2
        # junk turn: milestone 1 stays completed at turn 1, nothing else fires
        env.step(SkillSequence((0,)), _junk_response(env_cfg))
        record = env.milestone_record()
        assert record.completed == (True, False, False)
        assert record.turns == (1, None, None)

    def test_null_constraint_waives_skill_condition(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=6)
        milestone_skill = env_cfg.milestone_rules[0][0]
        resp = _full_marker_response(env_cfg, (milestone_skill,))
        _, scores, _ = env.step(None, resp)
        assert env.milestone_record().completed[0]
        assert scores[1] == 1.0  # null constraint is vacuously compliant

    def test_wrong_skill_with_right_markers_does_not_fire(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=6)
        milestone_skill = env_cfg.milestone_rules[0][0]
        other = SkillSequence((0,))
        assert milestone_skill not in other
        resp = _full_marker_response(env_cfg, (milestone_skill,))
        env.step(other, resp)
        assert not env.milestone_record().completed[0]


class TestHistory:
    def test_history_is_the_last_response_marker_sets(self):
        """After ``k`` steps the planner's history holds the marker sets of
        the last ``min(k, history_window)`` responses, oldest first."""
        cfg = make_tiny_env_cfg(horizon=7)
        # skill 0 qualifies for no milestone, so every episode runs to the
        # horizon
        skills = SkillSequence((0,))
        rng = np.random.default_rng(3)
        env = DialogueEnv(cfg)
        for seed in range(5):
            env.reset(seed)
            said = []
            for k in range(1, cfg.horizon + 1):
                n = int(rng.integers(1, cfg.max_response_len + 1))
                resp = _response(cfg, [int(t) for t in rng.integers(0, cfg.vocab_size, n)])
                obs, _, done = env.step(skills, resp)
                said.append(resp.markers)
                assert obs.expert_state.history == tuple(said[-min(k, cfg.history_window):])
            assert done


class TestDeterminism:
    def test_identical_streams(self, env_cfg):
        def run(seed):
            env = DialogueEnv(env_cfg)
            obs = env.reset(seed=seed)
            trace = [obs]
            done = False
            k = 0
            while not done:
                skills = SkillSequence(((k % 3) + 1,))
                resp = _response(env_cfg, [k % env_cfg.vocab_size, 12])
                obs, scores, done = env.step(skills, resp)
                trace.append((obs, scores, env.milestone_record(), done))
                k += 1
            return trace

        assert run(11) == run(11)

    def test_compliance_shifts_emotions_toward_anger(self, env_cfg):
        def next_emotions(compliant):
            out = []
            for seed in range(250):
                env = DialogueEnv(env_cfg)
                obs = env.reset(seed=seed)
                teacher = env.teacher_sequence(obs.expert_state)
                if compliant:
                    resp = _full_marker_response(env_cfg, teacher.skills)
                else:
                    resp = _junk_response(env_cfg)
                obs, _, _ = env.step(teacher, resp)
                out.append(obs.expert_state.emotion)
            return out

        good = next_emotions(True)
        bad = next_emotions(False)
        upset = lambda xs: sum(1 for e in xs if e in ("frustrated", "angry"))
        assert upset(bad) > upset(good)


class TestDrawsMatchChoice:
    """The environment draws from cumulative distributions built once; a
    ``rng.choice`` environment given the same actions must play the same
    episodes."""

    @staticmethod
    def _play(env, cfg, seed):
        # actions from their own generator: the teacher's sequence with all
        # its markers (a milestone, a compliant turn) or random skills and
        # tokens (mostly non-compliant), so every transition table is used
        actions = np.random.default_rng(10_000 + seed)
        obs = env.reset(seed=seed)
        trace = [obs]
        done = False
        while not done:
            if actions.random() < 0.5:
                skills = env.teacher_sequence(obs.expert_state)
                resp = _full_marker_response(cfg, skills.skills)
            else:
                k = int(actions.integers(1, 4))
                skills = SkillSequence(
                    tuple(int(s) for s in actions.choice(len(cfg.skill_pool), k, replace=False))
                )
                n = int(actions.integers(1, cfg.max_response_len + 1))
                resp = _response(cfg, [int(t) for t in actions.integers(0, cfg.vocab_size, n)])
            obs, scores, done = env.step(skills, resp)
            trace.append((obs, scores, env.milestone_record(), done))
        return trace, env.terminal_reason

    @pytest.mark.parametrize("world", ["tiny", "default"])
    def test_same_episodes_as_choice(self, world, env_cfg, tiny_env_cfg):
        cfg = tiny_env_cfg if world == "tiny" else env_cfg
        env, oracle = DialogueEnv(cfg), ChoiceDialogueEnv(cfg)
        reasons = set()
        for seed in range(300):
            played = self._play(env, cfg, seed)
            assert played == self._play(oracle, cfg, seed), seed
            reasons.add(played[1])
        assert reasons == {TERMINAL_ALL_MILESTONES, TERMINAL_HORIZON}


class _FixedRandom:
    """A generator stand-in whose ``random()`` returns the given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestDrawOnEnvironmentCdfs:
    """Every cumulative distribution the environment builds ends in exactly
    1.0, so ``draw``'s scaling by the last entry leaves ``random()``
    unchanged: the pick is ``searchsorted(u, side="right")``, the rule
    ``rng.choice`` applies, at every boundary and just beside it."""

    @pytest.mark.parametrize("world", ["tiny", "default"])
    def test_draw_is_choices_search(self, world, env_cfg, tiny_env_cfg, monkeypatch):
        cfg = tiny_env_cfg if world == "tiny" else env_cfg
        built = []
        cumulative = gopo.simenv.cumulative
        monkeypatch.setattr(
            gopo.simenv, "cumulative", lambda p: built.append(cumulative(p)) or built[-1]
        )
        DialogueEnv(cfg)
        # two initial distributions, two emotion matrices, one intent
        # matrix per phase
        n_rows = 2 * len(cfg.emotions) + 3 * len(cfg.intents)
        assert len(built) == 2 + n_rows
        gen = np.random.default_rng(57)
        below_one = np.nextafter(1.0, 0.0)
        for cdf in built:
            assert cdf[-1] == 1.0
            edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
            us = np.concatenate([[0.0, below_one], edges[edges < 1.0], gen.random(500)])
            for u in us:
                want = int(cdf.searchsorted(u, side="right"))
                assert draw(cdf, _FixedRandom(float(u))) == want


class TestTeacher:
    def test_known_entry(self, env_cfg):
        # phase-1 calm inquiry: recommend leads, then probe the need, greet
        env = DialogueEnv(env_cfg)
        obs = env.reset(seed=0)
        state = dataclasses.replace(obs.expert_state, intent="inquire", emotion="calm")
        assert env.teacher_sequence(state).skills == (2, 1, 0)

    def test_deterministic(self, env_cfg):
        env = DialogueEnv(env_cfg)
        state = env.reset(seed=0).expert_state
        assert env.teacher_sequence(state) == env.teacher_sequence(state)

    def test_all_entries_are_valid_sequences(self, env_cfg):
        for seq in env_cfg.scenario_table.values():
            assert 1 <= len(seq) <= 5
            assert len(set(seq)) == len(seq)

    def test_milestone_skill_in_every_phase_entry(self, env_cfg):
        for (intent, emotion, phase), seq in env_cfg.scenario_table.items():
            assert seq[0] == env_cfg.milestone_rules[phase - 1][0]

    def test_unknown_state_raises(self, env_cfg):
        env = DialogueEnv(env_cfg)
        state = dataclasses.replace(env.reset(seed=0).expert_state, intent="haggle")
        with pytest.raises(KeyError):
            env.teacher_sequence(state)
        with pytest.raises(KeyError):
            env.planner_reward(state, SkillSequence((0,)))

    def test_planner_reward_is_esndcg_bitwise(self, env_cfg):
        # the per-entry table form against the oracle-checked definition,
        # with exact equality: the teacher itself and random predictions of
        # every length, repeats included, on every scenario entry
        env = DialogueEnv(env_cfg)
        base = env.reset(seed=0).expert_state
        rng = np.random.default_rng(19)
        n_skills = len(env_cfg.skill_pool)
        for (intent, emotion, phase), teacher in env_cfg.scenario_table.items():
            state = dataclasses.replace(base, intent=intent, emotion=emotion, phase=phase)
            preds = [teacher] + [
                tuple(int(s) for s in rng.integers(0, n_skills, n))
                for n in range(1, MAX_SKILL_SEQUENCE_LEN + 1)
                for _ in range(4)
            ]
            preds += [(teacher[0],) * 3, teacher[:4] + teacher[:1]]
            for pred in preds:
                got = env.planner_reward(state, SkillSequence(pred))
                assert got == esndcg(pred, teacher), (state, pred)


class TestJudge:
    def test_full_required_markers(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=0)
        seq = SkillSequence((2, 5))
        resp = _full_marker_response(env_cfg, seq.skills)
        assert env.judge(seq, resp)[1] == 1.0

    def test_half_required_markers(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=0)
        seq = SkillSequence((2, 5))  # required markers {2, 13, 5, 14}
        resp = _response(env_cfg, [2, 13])
        assert env.judge(seq, resp)[1] == pytest.approx(0.5)

    def test_repeated_token_diversity(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=0)
        resp = _response(env_cfg, [7, 7, 7, 7])
        assert env.judge(None, resp)[3] == pytest.approx(0.25)

    def test_politeness_marker(self, env_cfg):
        env = DialogueEnv(env_cfg)
        env.reset(seed=0)
        assert env.judge(None, _response(env_cfg, [12]))[0] == 1.0
        assert env.judge(None, _response(env_cfg, [0]))[0] == 0.0

    def test_boundedness(self, env_cfg, tiny_env_cfg):
        import numpy as np

        rng = np.random.default_rng(0)
        env = DialogueEnv(tiny_env_cfg)
        env.reset(seed=0)
        for _ in range(200):
            n = int(rng.integers(1, tiny_env_cfg.max_response_len + 1))
            tokens = [int(t) for t in rng.integers(0, tiny_env_cfg.vocab_size, n)]
            resp = _response(tiny_env_cfg, tokens)
            k = int(rng.integers(1, 4))
            seq = SkillSequence(tuple(int(s) for s in rng.choice(4, k, replace=False)))
            constraint = seq if rng.random() < 0.8 else None
            assert all(0.0 <= s <= 1.0 for s in env.judge(constraint, resp))


class TestReferences:
    def test_reference_realizes_required_markers(self, env_cfg):
        from gopo.trainer import rollout
        from gopo.agents import CsaPolicy, ExpertPolicy, FeatureSpec
        import numpy as np

        spec = FeatureSpec.from_env_config(env_cfg)
        expert = ExpertPolicy(spec, hidden=8, entropy_coeff=0.01, seed=2)
        csa = CsaPolicy(spec, hidden=8, loss_weights=(1.0, 0.5, 0.01), seed=3)
        env = DialogueEnv(env_cfg)
        traj = rollout(env, expert, csa, DEFAULT_CFG.reward, np.random.default_rng(4), env_seed=29)
        (refs,) = reference_responses([traj], env_cfg)
        assert len(refs) == len(traj.turns) > 1
        for turn, ref in zip(traj.turns, refs):
            st = turn.expert_state
            teacher = env_cfg.scenario_table[(st.intent, st.emotion, st.phase)]
            want = set().union(*(env_cfg.skill_pool[s].required_markers for s in teacher))
            assert response_markers(ref, env_cfg.token_markers) == frozenset(want)

    def test_reference_responses_from_logged_trajectory(self, env_cfg):
        from gopo.trainer import rollout
        from gopo.agents import CsaPolicy, ExpertPolicy, FeatureSpec
        import numpy as np

        spec = FeatureSpec.from_env_config(env_cfg)
        expert = ExpertPolicy(spec, hidden=8, entropy_coeff=0.01, seed=0)
        csa = CsaPolicy(spec, hidden=8, loss_weights=(1.0, 0.5, 0.01), seed=1)
        env = DialogueEnv(env_cfg)
        traj = rollout(env, expert, csa, DEFAULT_CFG.reward, np.random.default_rng(0), env_seed=17)
        (refs,) = reference_responses([traj], env_cfg)
        assert len(refs) == len(traj.turns)
        assert all(len(r) >= 1 for r in refs)


class TestConfig:
    def test_round_trip(self, env_cfg):
        assert parse_fields(EnvConfig, to_json(env_cfg), "env") == env_cfg

    def test_vocab_size_is_token_count(self, env_cfg, tiny_env_cfg):
        for cfg in (env_cfg, tiny_env_cfg):
            assert cfg.vocab_size == len(cfg.token_markers)
            assert "vocab_size" not in to_json(cfg)

    def test_missing_scenario_entry_rejected(self, env_cfg):
        table = dict(env_cfg.scenario_table)
        table.pop(("inquire", "calm", 1))
        with pytest.raises(ConfigError, match="scenario_table"):
            dataclasses.replace(env_cfg, scenario_table=table)

    def test_non_stochastic_rows_rejected(self, env_cfg):
        mats = {
            "compliant": tuple(tuple(0.5 for _ in env_cfg.emotions) for _ in env_cfg.emotions),
            "noncompliant": env_cfg.emotion_transition["noncompliant"],
        }
        with pytest.raises(ConfigError, match="emotion_transition"):
            dataclasses.replace(env_cfg, emotion_transition=mats)

    @pytest.mark.parametrize("key", ["initial_intent_dist", "initial_emotion_dist"])
    def test_initial_distribution_rejected(self, env_cfg, key):
        # the rule of a transition row, with an error naming the key
        dist = getattr(env_cfg, key)
        for bad, message in (
            (dist[:-1], f"env.{key} must have {len(dist)} entries"),
            ((-dist[0],) + dist[1:], f"env.{key} has a negative probability"),
            (tuple(2 * p for p in dist), f"env.{key} sums to 2.0, not 1"),
        ):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(env_cfg, **{key: bad})
            assert str(err.value) == message

    def test_unknown_key_rejected(self, env_cfg):
        data = to_json(env_cfg)
        data["mystery"] = 1
        with pytest.raises(ConfigError, match="mystery"):
            parse_fields(EnvConfig, data, "env")

    def test_missing_key_rejected(self, env_cfg):
        data = to_json(env_cfg)
        del data["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_fields(EnvConfig, data, "env")

    def test_duplicate_skill_names_rejected(self, env_cfg):
        from gopo.core import Skill

        pool = list(env_cfg.skill_pool)
        pool[1] = Skill(pool[0].name, frozenset({1}))
        with pytest.raises(ConfigError, match="duplicate"):
            dataclasses.replace(env_cfg, skill_pool=tuple(pool))

    def test_required_markers_within_alphabet(self, env_cfg):
        from gopo.core import Skill

        pool = list(env_cfg.skill_pool)
        pool[0] = Skill("greet", frozenset({99}))
        with pytest.raises(ConfigError, match="marker"):
            dataclasses.replace(env_cfg, skill_pool=tuple(pool))
