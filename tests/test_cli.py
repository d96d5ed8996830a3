import contextlib
import dataclasses
import inspect
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gopo.trainer
from gopo.agents import CsaPolicy, ExpertPolicy
from gopo.cli import load_config, main
from gopo.metrics import METRIC_CSV_HEADER, TseConfig
from gopo.neural import adam_step, load_checkpoint, save_checkpoint
from gopo.rewards import RewardConfig
from gopo.simenv import ConfigError, EnvConfig, to_json
from gopo.trainer import CURVES_CSV_HEADER, GlobalConfig, TrainConfig
from conftest import DEFAULT_CONFIG_FILE, write_tiny_config

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def tiny_config(tmp_path):
    return write_tiny_config(tmp_path / "config.json", tmp_path / "out")


class TestConfigLoading:
    def test_config_file_is_the_only_source_of_defaults(self):
        # every default value lives in configs/default.json alone: no config
        # section field, no policy hyperparameter and no Adam knob has a
        # default of its own
        for cls in (EnvConfig, RewardConfig, TseConfig, TrainConfig):
            defaulted = [
                f.name for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            ]
            assert defaulted == [], cls.__name__
        for policy in (ExpertPolicy, CsaPolicy):
            params = inspect.signature(policy.__init__).parameters.values()
            defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
            assert defaulted == [], policy.__name__
        assert list(inspect.signature(adam_step).parameters) == ["params", "grad", "state", "lr"]

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nowhere.json"):
            load_config(tmp_path / "nowhere.json")

    def test_unknown_key_names_key(self, tiny_config):
        data = json.loads(tiny_config.read_text())
        data["train"]["gamma"] = 0.9
        tiny_config.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="train.gamma"):
            load_config(tiny_config)

    def test_missing_key_names_key(self, tiny_config):
        data = json.loads(tiny_config.read_text())
        del data["reward"]["w_csa_floor"]
        tiny_config.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="reward.w_csa_floor"):
            load_config(tiny_config)

    def test_missing_section_rejected(self, tiny_config):
        data = json.loads(tiny_config.read_text())
        del data["tse"]
        tiny_config.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="tse"):
            load_config(tiny_config)

    def test_invalid_values_surface_section_path(self, tiny_config):
        data = json.loads(tiny_config.read_text())
        data["tse"]["decay"] = 1.5
        tiny_config.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="tse"):
            load_config(tiny_config)


class TestConfigCopyIsAFixedPoint:
    """The config copy, ``json.dumps(to_json(cfg), indent=2)``, parses back
    to ``cfg`` and writes the same text again, byte for byte."""

    @staticmethod
    def _check(cfg):
        text = json.dumps(to_json(cfg), indent=2)
        parsed = GlobalConfig.from_dict(json.loads(text))
        assert parsed == cfg
        assert json.dumps(to_json(parsed), indent=2) == text
        return text

    def test_default_config(self, default_cfg):
        self._check(default_cfg)

    def test_default_config_copy_is_the_file(self, tmp_path, monkeypatch):
        # the copy `gopo train` writes for configs/default.json is the file,
        # byte for byte; the run stops once the copy is written
        def stop(*args):
            raise ConfigError("stopped after config.copy")

        monkeypatch.setattr(gopo.trainer, "build_policies", stop)
        assert main(["train", str(DEFAULT_CONFIG_FILE), "--out", str(tmp_path)]) == 1
        assert (tmp_path / "config.copy").read_bytes() == DEFAULT_CONFIG_FILE.read_bytes()


class TestTrainCommand:
    def test_missing_config_exits_1_with_path(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_happy_path(self, tiny_config, tmp_path):
        rc = main(["train", str(tiny_config)])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").is_file()
        copy, _ = load_config(tmp_path / "out" / "config.copy")
        assert copy == load_config(tiny_config)[0]

    def test_config_copy_keeps_output_dir_under_out(self, tiny_config, tmp_path):
        # --out places the run; the copy is the config as the file gave it
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "elsewhere")]) == 0
        copy, _ = load_config(tmp_path / "elsewhere" / "config.copy")
        given, _ = load_config(tiny_config)
        assert copy == given

    def test_resaved_checkpoint_is_byte_identical(self, tiny_config, tmp_path):
        # the re-save of perfbench/make_checkpoints.py: a checkpoint holds the
        # four arrays of the network and nothing else
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "run")]) == 0
        ckpts = sorted((tmp_path / "run" / "checkpoints").glob("*.ckpt"))
        assert {p.name.split("-")[0] for p in ckpts} == {"expert", "critic", "csa"}
        for path in ckpts:
            net, _ = load_checkpoint(path)
            save_checkpoint(tmp_path / "resaved.ckpt", net)
            assert (tmp_path / "resaved.ckpt").read_bytes() == path.read_bytes()
            with np.load(path) as data:
                assert data.files == ["version", "layer_sizes", "head", "params"]

    def test_seed_override_changes_trajectories(self, tiny_config, tmp_path):
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "b"), "--seed", "99"]) == 0
        assert (
            (tmp_path / "a" / "trajectories.jsonl").read_bytes()
            != (tmp_path / "b" / "trajectories.jsonl").read_bytes()
        )

    def test_invalid_log_level_rejected(self, tiny_config, monkeypatch, capsys):
        monkeypatch.setenv("GOPO_LOG_LEVEL", "verbose")
        rc = main(["train", str(tiny_config)])
        assert rc == 1
        assert "GOPO_LOG_LEVEL" in capsys.readouterr().err


class TestConfigErrorsExitCleanly:
    """Malformed configs end with one ``error: <key>`` line and exit 1."""

    def _run(self, tiny_config, capsys, mutate):
        data = json.loads(tiny_config.read_text())
        mutate(data)
        return self._run_on(tiny_config, capsys, data)

    def _run_on(self, tiny_config, capsys, data):
        return self._run_text(tiny_config, capsys, json.dumps(data))

    def _run_text(self, tiny_config, capsys, text):
        tiny_config.write_text(text)
        rc = main(["train", str(tiny_config)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_skill_without_name(self, tiny_config, capsys):
        err = self._run(tiny_config, capsys, lambda d: d["env"]["skill_pool"][1].pop("name"))
        assert "env.skill_pool[1].name" in err

    def test_scenario_key_with_non_integer_phase(self, tiny_config, capsys):
        def mutate(data):
            data["env"]["scenario_table"]["a|b|x"] = [0]

        err = self._run(tiny_config, capsys, mutate)
        assert "env.scenario_table['a|b|x']" in err

    def test_scenario_keys_naming_one_entry(self, tiny_config, capsys):
        # a phase spelt "01" beside "1" would otherwise replace that entry
        data = json.loads(tiny_config.read_text())
        table = data["env"]["scenario_table"]
        first = next(iter(table))
        respelt = first[:-1] + "0" + first[-1]
        table[respelt] = [0]
        err = self._run_on(tiny_config, capsys, data)
        assert f"env.scenario_table['{first}'] and env.scenario_table['{respelt}']" in err

    def test_scenario_table_given_as_file(self, tiny_config, tmp_path, capsys):
        # the table is given inline only; a file reference is a malformed key
        data = json.loads(tiny_config.read_text())
        (tmp_path / "table.json").write_text(json.dumps(data["env"]["scenario_table"]))
        data["env"]["scenario_table"] = {"file": "table.json"}
        err = self._run_on(tiny_config, capsys, data)
        assert "error: malformed scenario key env.scenario_table['file']" in err

    def test_repeated_key_in_file(self, tiny_config, capsys):
        # a second "seed" would otherwise silently replace the first
        text = tiny_config.read_text()
        assert text.count('"seed": 3,') == 1
        err = self._run_text(
            tiny_config, capsys, text.replace('"seed": 3,', '"seed": 3, "seed": 7,')
        )
        assert "repeated key 'seed'" in err

    def test_deeply_nested_file(self, tiny_config, capsys):
        # the JSON decoder gives up on deep nesting with a RecursionError
        err = self._run_text(tiny_config, capsys, "[" * 100_000)
        assert f"error: config file {tiny_config} is not valid JSON: " in err

    def test_fractional_episode_count(self, tiny_config, capsys):
        err = self._run(tiny_config, capsys, lambda d: d["train"].update(episodes=1.5))
        assert "train.episodes must be of type int, got 1.5" in err

    def test_string_horizon(self, tiny_config, capsys):
        err = self._run(tiny_config, capsys, lambda d: d["env"].update(horizon="4"))
        assert "env.horizon must be of type int, got '4'" in err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            pytest.param("env", key, value, message, id=key)
            for key, value, message in [
                ("skill_pool", [1], "env.skill_pool[0] must be an object, got 1"),
                ("intents", 3, "env.intents must be a list, got 3"),
                ("phase_markers", [1, 2, 3], "env.phase_markers[0] must be a list, got 1"),
                ("emotion_transition", [], "env.emotion_transition must be an object, got []"),
                ("scenario_table", [], "env.scenario_table must be an object, got []"),
            ]
        ] + [
            # each nested container kind names its deepest key, the case's id
            pytest.param(section, key, value, f"{message_key} {message}", id=message_key)
            for section, key, value, message_key, message in [
                ("env", "emotion_transition", {"compliant": [[1.0, "x"]]},
                 "env.emotion_transition.compliant[0][1]", "must be of type float, got 'x'"),
                ("env", "intent_transition", [[[1.0], [None]]],
                 "env.intent_transition[0][1][0]", "must be of type float, got None"),
                ("env", "milestone_rules", [[1.5]],
                 "env.milestone_rules[0][0]", "must be of type int, got 1.5"),
                ("env", "skill_pool", [{"id": 0, "name": "open", "required_markers": ["m"]}],
                 "env.skill_pool[0].required_markers[0]", "must be of type int, got 'm'"),
                ("env", "scenario_table", {"browse|calm|0": [True], "browse|calm|1": [0]},
                 "env.scenario_table['browse|calm|0'][0]", "must be of type int, got True"),
                ("reward", "dim_weights", [0.25, "0.25", 0.25, 0.25],
                 "reward.dim_weights[1]", "must be of type float, got '0.25'"),
                ("tse", "task_weights", [False, 0.5, 0.5],
                 "tse.task_weights[0]", "must be of type float, got False"),
            ]
        ],
    )
    def test_mistyped_list_valued_env_field(
        self, tiny_config, capsys, section, key, value, message
    ):
        err = self._run(tiny_config, capsys, lambda d: d[section].update({key: value}))
        assert message in err

    def test_integer_token_marker_set(self, tiny_config, capsys):
        def mutate(data):
            data["env"]["token_markers"][0] = 3

        err = self._run(tiny_config, capsys, mutate)
        assert "env.token_markers[0] must be a list, got 3" in err

    @pytest.mark.parametrize("section, key", [
        pytest.param("train", "workers", id="train.workers"),
        pytest.param("train", "horizon", id="train.horizon"),
        pytest.param("env", "seed", id="env.seed"),
        pytest.param("reward", "dedupe_predictions", id="reward.dedupe_predictions"),
    ])
    def test_removed_keys_are_unknown(self, tiny_config, capsys, section, key):
        err = self._run(tiny_config, capsys, lambda d: d[section].update({key: 1}))
        assert f"error: unknown key {section}.{key}" in err

    def test_top_level_list(self, tiny_config, capsys):
        err = self._run_on(tiny_config, capsys, [1, 2])
        assert "error: config must be an object, got [1, 2]" in err

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda d: d.update(env=3), "env must be an object, got 3", id="env-scalar"),
        pytest.param(lambda d: d.update(reward=3), "reward must be an object", id="reward-scalar"),
        pytest.param(lambda d: d.update(train=[1]), "train must be an object", id="train-list"),
        pytest.param(
            # a skill's id is its position in the pool, never a key
            lambda d: d["env"]["skill_pool"][0].update(id=0),
            "error: unknown key env.skill_pool[0].id", id="skill-id-key",
        ),
        pytest.param(
            lambda d: d["env"]["skill_pool"][0].update(required_markers=[]),
            "env.skill_pool[0]: skill 'open' has no required markers", id="skill-without-markers",
        ),
        pytest.param(
            lambda d: d["env"]["skill_pool"][0].update(colour="red"),
            "unknown key env.skill_pool[0].colour", id="unknown-skill-key",
        ),
        pytest.param(
            lambda d: d["env"]["emotion_transition"].update(
                bored=d["env"]["emotion_transition"]["compliant"]
            ),
            "unknown key env.emotion_transition.bored", id="unknown-emotion-matrix",
        ),
        pytest.param(
            lambda d: d["env"].update(token_markers=[]),
            "env.token_markers is empty", id="empty-vocabulary",
        ),
        pytest.param(
            # the vocabulary size is the number of token_markers entries
            lambda d: d["env"].update(vocab_size=len(d["env"]["token_markers"])),
            "error: unknown key env.vocab_size", id="vocab-size-key",
        ),
        pytest.param(
            lambda d: d["env"]["token_markers"].__setitem__(3, []),
            "env.skill_pool[done].required_markers has a marker no token carries",
            id="marker-without-carrier",
        ),
        # a set-valued list names its first repeated entry
        pytest.param(lambda d: d["env"].update(politeness_markers=[5, 5]),
                     "error: env.politeness_markers[1] repeats entry 5",
                     id="repeated-politeness-marker"),
        pytest.param(lambda d: d["env"]["skill_pool"][0].update(required_markers=[0, 5, 0]),
                     "error: env.skill_pool[0].required_markers[2] repeats entry 0",
                     id="repeated-required-marker"),
        pytest.param(lambda d: d["env"]["token_markers"].__setitem__(0, [0, 0]),
                     "error: env.token_markers[0][1] repeats entry 0",
                     id="repeated-token-marker"),
        pytest.param(lambda d: d["env"]["phase_markers"].__setitem__(0, [0, 1, 5, 1]),
                     "error: env.phase_markers[0][3] repeats entry 1",
                     id="repeated-phase-marker"),
        pytest.param(lambda d: d["train"].update(seed=-1), "train.seed must be non-negative",
                     id="negative-seed"),
        pytest.param(lambda d: d["train"].update(lr_csa=float("nan")),
                     "train.lr_csa must be finite, got nan", id="nan-learning-rate"),
        pytest.param(lambda d: d["train"].update(hidden_size=0),
                     "train.hidden_size must be positive", id="zero-hidden-size"),
        # sizes that fail numpy's allocation check or its shape check, before
        # any memory is taken
        *[
            pytest.param(lambda d, h=size: d["train"].update(hidden_size=h),
                         f"error: train.hidden_size {size} gives networks too large",
                         id=f"hidden-size-{size:.0e}")
            for size in (10**12, 10**20)
        ],
        *[
            pytest.param(lambda d, k=key: d["train"].update({k: -1.0}),
                         f"train.{key} must be non-negative", id=f"negative-{key}")
            for key in ("lambda_pg", "lambda_skill", "lambda_diversity", "entropy_coeff")
        ],
    ])
    def test_malformed_config_names_key(self, tiny_config, capsys, mutate, message):
        assert message in self._run(tiny_config, capsys, mutate)


class TestUsageErrors:
    """Bad flags end like bad configs: one ``error:`` line and exit 1, before
    anything runs or any output directory is made."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["eval", "--config", "{cfg}"],
                     "required: --checkpoint-dir", id="eval-without-checkpoint-dir"),
        pytest.param(["eval", "--checkpoint-dir", "{out}", "--config", "{cfg}", "--episodes", "0"],
                     "argument --episodes: must be at least 1, got 0", id="eval-zero-episodes"),
        pytest.param(["eval", "--checkpoint-dir", "{out}", "--config", "{cfg}", "--episodes", "-3"],
                     "argument --episodes: must be at least 1, got -3", id="eval-negative-episodes"),
        pytest.param(["eval", "--checkpoint-dir", "{out}", "--config", "{cfg}", "--seed", "-1"],
                     "argument --seed: must be at least 0, got -1", id="eval-negative-seed"),
        pytest.param(["train", "{cfg}", "--seed", "-1"],
                     "argument --seed: must be at least 0, got -1", id="train-negative-seed"),
        pytest.param(["ablate", "--config", "{cfg}", "--seeds", "a,b"],
                     "argument --seeds: not an integer: 'a'", id="ablate-non-integer-seeds"),
        pytest.param(["ablate", "--config", "{cfg}", "--seeds", "1,1"],
                     "argument --seeds: repeated seed in '1,1'", id="ablate-repeated-seed"),
        pytest.param(["report", "--runs", "{out}", "--format", "csv"],
                     "unrecognized arguments: --format csv", id="report-format-removed"),
    ])
    def test_exits_1_before_running(self, tiny_config, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = main([a.format(cfg=tiny_config, out=out) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err
        assert not out.exists()


DEFAULT_CONFIG = json.loads(DEFAULT_CONFIG_FILE.read_text())


def _key_paths(value, prefix=()):
    """One key path per position of the config schema: every object key, and
    the first entry of each list and of the scenario table (their entries all
    share one form, and would otherwise make up most paths)."""
    if isinstance(value, dict):
        entries = list(value.items())
        if prefix == ("env", "scenario_table"):
            entries = entries[:1]
    elif isinstance(value, list):
        entries = list(enumerate(value))[:1]
    else:
        return []
    paths = []
    for key, child in entries:
        paths.append(prefix + (key,))
        paths += _key_paths(child, prefix + (key,))
    return paths


def _at(data, path):
    for key in path:
        data = data[key]
    return data


_PATHS = _key_paths(DEFAULT_CONFIG)
# an unknown sibling key can only be added next to an object key
_OBJECT_KEY_PATHS = [p for p in _PATHS if isinstance(_at(DEFAULT_CONFIG, p[:-1]), dict)]
_FUZZ_VALUES = [None, True, "x", [], {}, -1, 0, 1, 0.5, float("nan"), float("inf")]


class TestDefaultConfigFuzz:
    """One mutation of ``configs/default.json`` (a deleted key or entry, an
    unknown sibling key, or a replaced value) either trains or ends in one
    ``error:`` line with exit 1; no exception escapes ``main``."""

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(st.one_of(
        st.tuples(st.just("delete"), st.sampled_from(_PATHS), st.none()),
        st.tuples(st.just("add"), st.sampled_from(_OBJECT_KEY_PATHS), st.none()),
        st.tuples(st.just("replace"), st.sampled_from(_PATHS), st.sampled_from(_FUZZ_VALUES)),
    ))
    def test_train_runs_or_exits_1(self, mutation):
        kind, path, value = mutation
        data = json.loads(json.dumps(DEFAULT_CONFIG))
        # a short run, unless the mutation itself targets these keys
        data["train"].update(episodes=8, eval_episodes=2)
        parent = _at(data, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "add":
            parent["fuzz_unknown_key"] = 1
        else:
            parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(data), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["train", str(config), "--out", str(Path(tmp) / "run")])
        assert rc == 0 or (rc == 1 and err.getvalue().startswith("error: ")), (
            rc, err.getvalue()
        )


class TestEvalCommand:
    def _trained(self, tiny_config, tmp_path):
        assert main(["train", str(tiny_config)]) == 0
        return tmp_path / "out" / "checkpoints"

    def test_single_episode_has_zero_std(self, tiny_config, tmp_path, capsys):
        ckpts = self._trained(tiny_config, tmp_path)
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1", "--out", str(tmp_path / "eval.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == METRIC_CSV_HEADER
        row = out[1].split(",")
        assert row[1] == "1"
        assert float(row[3]) == 0.0 and float(row[5]) == 0.0

    def test_without_out_prints_and_writes_no_file(self, tiny_config, tmp_path, capsys):
        ckpts = self._trained(tiny_config, tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[0] == METRIC_CSV_HEADER
        assert sorted(tmp_path.rglob("*")) == before

    def test_deterministic_csv_bytes(self, tiny_config, tmp_path):
        ckpts = self._trained(tiny_config, tmp_path)
        for name in ("e1.csv", "e2.csv"):
            assert main([
                "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
                "--episodes", "4", "--out", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_checkpoint_config_mismatch_exits_1(self, tiny_config, tmp_path, capsys):
        ckpts = self._trained(tiny_config, tmp_path)
        bad = write_tiny_config(tmp_path / "bad.json", tmp_path / "out2", hidden_size=8)
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(bad),
            "--episodes", "1",
        ])
        assert rc == 1
        assert "shape" in capsys.readouterr().err

    def test_critic_shape_mismatch_exits_1(self, tiny_config, tmp_path, capsys):
        from gopo.neural import Mlp, load_checkpoint, save_checkpoint

        ckpts = self._trained(tiny_config, tmp_path)
        (critic_path,) = ckpts.glob("critic-*.ckpt")
        critic, _ = load_checkpoint(critic_path)
        sizes = critic.layer_sizes
        save_checkpoint(critic_path, Mlp((sizes[0], sizes[1] + 3, sizes[-1])))
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: critic checkpoint shape")

    def test_csa_head_mismatch_exits_1(self, tiny_config, tmp_path, capsys):
        from gopo.neural import Mlp, load_checkpoint, save_checkpoint

        ckpts = self._trained(tiny_config, tmp_path)
        (csa_path,) = ckpts.glob("csa-*.ckpt")
        csa, _ = load_checkpoint(csa_path)
        save_checkpoint(csa_path, Mlp(csa.layer_sizes, head="linear"))
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: csa checkpoint shape") and "linear head" in err

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda b: b"", id="empty"),
        pytest.param(lambda b: b[: len(b) // 2], id="truncated"),
        pytest.param(lambda b: b"not a checkpoint", id="text"),
    ])
    def test_unreadable_checkpoint_exits_1_naming_file(
        self, tiny_config, tmp_path, capsys, damage
    ):
        ckpts = self._trained(tiny_config, tmp_path)
        (expert_path,) = ckpts.glob("expert-*.ckpt")
        expert_path.write_bytes(damage(expert_path.read_bytes()))
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: cannot load checkpoint {expert_path}")

    def test_nan_parameter_exits_1_naming_file(self, tiny_config, tmp_path, capsys):
        ckpts = self._trained(tiny_config, tmp_path)
        (csa_path,) = ckpts.glob("csa-*.ckpt")
        csa, _ = load_checkpoint(csa_path)
        params = csa.get_params()
        params[0] = np.nan
        csa.set_params(params)
        save_checkpoint(csa_path, csa)
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith(f"error: cannot load checkpoint {csa_path}")

    def test_mixed_steps_evaluate_latest_common_step(self, tmp_path, capsys):
        # two updates, checkpointed after each: steps 1 and 2
        config = write_tiny_config(tmp_path / "config.json", tmp_path / "out", eval_every=1)
        assert main(["train", str(config)]) == 0
        ckpts = tmp_path / "out" / "checkpoints"
        only_1 = tmp_path / "only-1"
        only_1.mkdir()
        for name in ("expert", "critic", "csa"):
            (only_1 / f"{name}-1.ckpt").write_bytes((ckpts / f"{name}-1.ckpt").read_bytes())
            if name != "csa":
                (ckpts / f"{name}-2.ckpt").unlink()
        rows = []
        for ckpt_dir in (ckpts, only_1):
            capsys.readouterr()
            assert main([
                "eval", "--checkpoint-dir", str(ckpt_dir), "--config", str(config),
                "--episodes", "4", "--out", str(tmp_path / "eval.csv"),
            ]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_no_common_step_exits_1(self, tiny_config, tmp_path, capsys):
        ckpts = self._trained(tiny_config, tmp_path)
        for path in ckpts.glob("critic-*.ckpt"):
            path.unlink()
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint-dir", str(ckpts), "--config", str(tiny_config),
            "--episodes", "1",
        ])
        assert rc == 1
        assert "error: no step in" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["full", "no-expert", "untrained"])
    def test_eval_reproduces_final_report(self, tmp_path, variant):
        """Checkpoints round-trip exactly: evaluating a run's last
        checkpoints over its evaluation episodes and seed rebuilds its final
        report byte for byte."""
        config = write_tiny_config(tmp_path / "config.json", tmp_path / "out", variant=variant)
        assert main(["train", str(config)]) == 0
        cfg, _ = load_config(config)
        assert main([
            "eval", "--checkpoint-dir", str(tmp_path / "out" / "checkpoints"),
            "--config", str(config), "--episodes", str(cfg.train.eval_episodes),
            "--out", str(tmp_path / "eval.csv"),
        ]) == 0
        assert (
            (tmp_path / "eval.csv").read_bytes()
            == (tmp_path / "out" / "final_report.csv").read_bytes()
        )

    def test_episodes_default_to_the_config_eval_episodes(self, tmp_path):
        """Without ``--episodes`` the evaluation plays ``train.eval_episodes``
        episodes, so it rebuilds the run's final report byte for byte."""
        config = write_tiny_config(tmp_path / "config.json", tmp_path / "out")
        assert main(["train", str(config)]) == 0
        assert main([
            "eval", "--checkpoint-dir", str(tmp_path / "out" / "checkpoints"),
            "--config", str(config), "--out", str(tmp_path / "eval.csv"),
        ]) == 0
        assert (
            (tmp_path / "eval.csv").read_bytes()
            == (tmp_path / "out" / "final_report.csv").read_bytes()
        )

    def test_trained_checkpoints_reproduce_their_recorded_row(self, tmp_path, capsys):
        """Greedy evaluation of fully trained weights prints, byte for byte,
        the final metrics row the run that trained them recorded: the
        argmax of every act step is pinned on weights whose distributions
        are sharp, not only on the tiny test world."""
        ckpts = REPO / "perfbench" / "checkpoints"
        provenance = json.loads((ckpts / "PROVENANCE.json").read_text())
        assert main([
            "eval", "--checkpoint-dir", str(ckpts),
            "--config", str(DEFAULT_CONFIG_FILE),
            "--out", str(tmp_path / "eval.csv"),
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [METRIC_CSV_HEADER, provenance["metrics_csv_final_row"]]

    def test_missing_checkpoints_exit_1(self, tiny_config, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = main([
            "eval", "--checkpoint-dir", str(tmp_path / "empty"),
            "--config", str(tiny_config), "--episodes", "1",
        ])
        assert rc == 1


class TestAblateCommand:
    def test_emits_three_variant_rows(self, tiny_config, tmp_path, capsys):
        rc = main(["ablate", "--config", str(tiny_config), "--out", str(tmp_path / "ab")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == METRIC_CSV_HEADER
        assert [line.split(",")[0] for line in out[1:]] == ["full", "no-expert", "untrained"]
        assert (tmp_path / "ab" / "ablation.csv").is_file()

    def test_bad_seed_list_rejected(self, tiny_config, capsys):
        rc = main(["ablate", "--config", str(tiny_config), "--seeds", ","])
        assert rc == 1


class TestReportCommand:
    def test_merges_runs_and_writes_series(self, tiny_config, tmp_path, capsys):
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "runs" / "r1")]) == 0
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "runs" / "r2"), "--seed", "5"]) == 0
        rc = main(["report", "--runs", str(tmp_path / "runs")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "run," + METRIC_CSV_HEADER
        assert len(out) == 3
        curves = (tmp_path / "runs" / "report_curves.csv").read_text().strip().splitlines()
        assert curves[0] == "run," + CURVES_CSV_HEADER
        assert len(curves) > 1

    def test_identical_runs_merge_identically(self, tiny_config, tmp_path, capsys):
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "runs" / "a")]) == 0
        assert main(["train", str(tiny_config), "--out", str(tmp_path / "runs" / "b")]) == 0
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row_a = lines[1].split(",", 1)[1]
        row_b = lines[2].split(",", 1)[1]
        assert row_a == row_b

    def test_header_only_runs_are_skipped(self, tiny_config, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["train", str(tiny_config), "--out", str(runs / "a")]) == 0
        # a run that diverged before its first evaluation
        (runs / "b").mkdir()
        (runs / "b" / "metrics.csv").write_text(METRIC_CSV_HEADER + "\n")
        (runs / "b" / "curves.csv").write_text(CURVES_CSV_HEADER + "\n1,0.5,0.1,0.2\n")
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in out] == ["run", "a"]
        curves = (runs / "report_curves.csv").read_text().strip().splitlines()
        assert {line.split(",")[0] for line in curves[1:]} == {"a"}

    @pytest.mark.parametrize("row", [
        pytest.param("full,abc", id="short"),
        pytest.param("full,200,0.5,0.1,7.9,0.3,0.002,0.58,1", id="long"),
        pytest.param("full,200,0.5,0.1,seven,0.3,0.002,0.58", id="non-numeric"),
    ])
    def test_malformed_row_exits_1_naming_file(self, tmp_path, capsys, row):
        runs = tmp_path / "runs"
        (runs / "a").mkdir(parents=True)
        metrics = runs / "a" / "metrics.csv"
        metrics.write_text(f"{METRIC_CSV_HEADER}\n{row}\n")
        assert main(["report", "--runs", str(runs)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed last row in {metrics}")
        assert not (runs / "report_metrics.csv").exists()

    @pytest.mark.parametrize("row", [
        pytest.param("1,abc", id="short"),
        pytest.param("1,0.5,0.1,0.2,0.3", id="long"),
        pytest.param("1,0.5,nope,0.2", id="non-numeric"),
    ])
    def test_malformed_curve_row_exits_1_naming_file(self, tmp_path, capsys, row):
        runs = tmp_path / "runs"
        (runs / "a").mkdir(parents=True)
        (runs / "a" / "metrics.csv").write_text(
            f"{METRIC_CSV_HEADER}\nfull,200,0.5,0.1,7.9,0.3,0.002,0.58\n"
        )
        curves = runs / "a" / "curves.csv"
        curves.write_text(f"{CURVES_CSV_HEADER}\n1,0.5,0.1,0.2\n{row}\n")
        assert main(["report", "--runs", str(runs)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed row in {curves}")
        assert not (runs / "report_curves.csv").exists()

    @pytest.mark.parametrize("name", ["metrics.csv", "curves.csv"])
    def test_non_utf8_file_exits_1_naming_file(self, tmp_path, capsys, name):
        runs = tmp_path / "runs"
        (runs / "a").mkdir(parents=True)
        (runs / "a" / "metrics.csv").write_text(
            f"{METRIC_CSV_HEADER}\nfull,200,0.5,0.1,7.9,0.3,0.002,0.58\n"
        )
        (runs / "a" / "curves.csv").write_text(f"{CURVES_CSV_HEADER}\n1,0.5,0.1,0.2\n")
        bad = runs / "a" / name
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        assert main(["report", "--runs", str(runs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8 text") and "Traceback" not in err
        assert not (runs / "report_metrics.csv").exists()

    def test_only_header_only_runs_exit_1(self, tmp_path, capsys):
        (tmp_path / "runs" / "b").mkdir(parents=True)
        (tmp_path / "runs" / "b" / "metrics.csv").write_text(METRIC_CSV_HEADER + "\n")
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err.startswith("error: no run directories")

    def test_empty_runs_dir_exits_1(self, tmp_path):
        (tmp_path / "runs").mkdir()
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 1

    def test_missing_runs_dir_exits_1(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "nope")]) == 1
