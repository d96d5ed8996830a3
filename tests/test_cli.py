import json

import pytest

from gopo.cli import default_global_config, load_config, main
from gopo.metrics import METRIC_CSV_HEADER, TseConfig
from gopo.rewards import RewardConfig
from gopo.simenv import ConfigError, default_env_config
from gopo.trainer import CURVES_CSV_HEADER, TrainConfig
from conftest import write_tiny_config


@pytest.fixture
def tiny_config(tmp_path):
    return write_tiny_config(tmp_path / "config.json", tmp_path / "out")


class TestConfigLoading:
    def test_packaged_default_matches_builders(self):
        cfg = default_global_config()
        assert cfg.env == default_env_config()
        assert cfg.reward == RewardConfig()
        assert cfg.tse == TseConfig()
        assert cfg.train == TrainConfig()

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

    def test_scenario_table_as_referenced_file(self, tiny_config, tmp_path):
        data = json.loads(tiny_config.read_text())
        table = data["env"]["scenario_table"]
        (tmp_path / "table.json").write_text(json.dumps(table))
        data["env"]["scenario_table"] = {"file": "table.json"}
        tiny_config.write_text(json.dumps(data))
        cfg, _ = load_config(tiny_config)
        assert len(cfg.env.scenario_table) == len(table)

    def test_missing_scenario_file_rejected(self, tiny_config):
        data = json.loads(tiny_config.read_text())
        data["env"]["scenario_table"] = {"file": "absent.json"}
        tiny_config.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="absent.json"):
            load_config(tiny_config)


class TestTrainCommand:
    def test_missing_config_exits_1_with_path(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_happy_path(self, tiny_config, tmp_path):
        rc = main(["train", str(tiny_config)])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").is_file()
        assert (tmp_path / "out" / "config.copy").read_text() == tiny_config.read_text()

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
        tiny_config.write_text(json.dumps(data))
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

    def test_fractional_episode_count(self, tiny_config, capsys):
        err = self._run(tiny_config, capsys, lambda d: d["train"].update(episodes=1.5))
        assert "train.episodes must be of type int, got 1.5" in err

    def test_string_horizon(self, tiny_config, capsys):
        err = self._run(tiny_config, capsys, lambda d: d["env"].update(horizon="4"))
        assert "env.horizon must be of type int, got '4'" in err


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
        rc = main(["report", "--runs", str(tmp_path / "runs"), "--format", "csv"])
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

    def test_empty_runs_dir_exits_1(self, tmp_path):
        (tmp_path / "runs").mkdir()
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 1

    def test_missing_runs_dir_exits_1(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "nope")]) == 1
