import argparse
import json
import re
from pathlib import Path

import pytest

from fsdc import cli
from fsdc.cli import main
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, save_dataset, save_split)
from fsdc.harness import EpisodeSpec, PipelineConfig


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliworld")
    prefix = str(root / "w")
    rc = main(["synth", "--classes", "10", "--dim", "8", "--per-class", "30",
               "--seed", "3", "--out-prefix", prefix])
    assert rc == 0
    return {
        "dataset": prefix + ".fsdc",
        "split": prefix + ".split.json",
        "truth": prefix + ".truth.json",
        "root": root,
    }


def eval_args(world, *extra):
    return ["eval", "--dataset", world["dataset"], "--split", world["split"],
            "--episodes", "6", "--n-way", "2", "--queries", "5",
            "--num-generated", "30", "--opt-epochs", "40", *extra]


# ---------------------------------------------------------------------- synth

def test_synth_outputs_and_determinism(world, tmp_path):
    with open(world["dataset"], "rb") as fh:
        first = fh.read()
    prefix = str(tmp_path / "again")
    assert main(["synth", "--classes", "10", "--dim", "8", "--per-class", "30",
                 "--seed", "3", "--out-prefix", prefix]) == 0
    with open(prefix + ".fsdc", "rb") as fh:
        assert fh.read() == first
    truth = json.loads(open(world["truth"]).read())
    assert set(truth) == {"groups", "classes"}
    assert len(truth["classes"]) == 10


SYNTH_FLAGS = {"--skew-power": ("skew_power", 1.5),
               "--group-size": ("group_size", 3),
               "--level": ("latent_level", 0.6),
               "--sigma": ("latent_sigma", 0.2),
               "--separation": ("group_separation", 0.5),
               "--offset": ("within_group_offset", 0.3),
               "--seed": ("seed", 9)}


@pytest.mark.parametrize("flags", [(), tuple(SYNTH_FLAGS)],
                         ids=["required-only", "every-flag"])
def test_synth_matches_the_spec(tmp_path, flags):
    # a flag left out keeps the SyntheticSpec default; a flag given sets
    # its field
    argv = [arg for flag in flags for arg in (flag, str(SYNTH_FLAGS[flag][1]))]
    prefix = str(tmp_path / "cli")
    assert main(["synth", "--classes", "6", "--dim", "4", "--per-class", "10",
                 "--out-prefix", prefix, *argv]) == 0
    spec = SyntheticSpec(num_classes=6, dim=4, samples_per_class=10,
                         **dict(SYNTH_FLAGS[flag] for flag in flags))
    ds, split, _ = generate_synthetic(spec)
    save_dataset(ds, tmp_path / "api.fsdc")
    save_split(split, tmp_path / "api.split.json")
    assert (tmp_path / "cli.fsdc").read_bytes() == \
        (tmp_path / "api.fsdc").read_bytes()
    assert (tmp_path / "cli.split.json").read_bytes() == \
        (tmp_path / "api.split.json").read_bytes()


def test_synth_rejects_bad_spec(tmp_path, capsys):
    rc = main(["synth", "--classes", "4", "--dim", "1", "--per-class", "5",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------- stats

def test_stats_writes_table_and_report(world, tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    rc = main(["stats", "--dataset", world["dataset"], "--split",
               world["split"], "--similarity-report", sim])
    assert rc == 0
    counts = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("class ")]
    # 10 classes in groups of 5: classes 4 and 9 are novel
    assert counts == [f"class {cid}: 30 records"
                      for cid in (0, 1, 2, 3, 5, 6, 7, 8)]
    lines = open(sim).read().strip().splitlines()
    assert lines[0] == "class_a,class_b,mean_cosine,variance_cosine"
    assert len(lines) == 1 + 8 * 7 // 2
    assert lines[1].startswith("0,1,")
    assert all(-1 <= float(cell) <= 1
               for line in lines[1:] for cell in line.split(",")[2:])


def test_stats_reports_undersized_class(tmp_path, capsys):
    ds = Dataset([0, 0, 1], [[1.0, 2.0], [1.5, 2.5], [9.0, 9.0]])
    save_dataset(ds, tmp_path / "tiny.fsdc")
    save_split(SplitManifest(base=[0, 1]), tmp_path / "tiny.split.json")
    rc = main(["stats", "--dataset", str(tmp_path / "tiny.fsdc"), "--split",
               str(tmp_path / "tiny.split.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "class 1" in err


# ----------------------------------------------------------------------- eval

def test_eval_prints_interval_and_writes_report(world, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(eval_args(world, "--out", out))
    assert rc == 0
    printed = capsys.readouterr().out
    assert "±" in printed
    report = json.loads(open(out).read())
    assert report["num_episodes"] == 6
    assert 0.0 <= report["mean_accuracy"] <= 1.0
    assert report["pipeline"]["sampler"]["total_per_class"] == 30


def test_eval_reports_are_byte_identical(world, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(eval_args(world, "--out", a)) == 0
    assert main(eval_args(world, "--out", b)) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_eval_warns_on_ignored_optimizer_flags(world, capsys):
    rc = main(eval_args(world, "--classifier", "max_likelihood",
                        "--lr", "0.5"))
    assert rc == 0
    assert "warning:" in capsys.readouterr().err


def test_eval_missing_file_is_runtime_error(world, capsys):
    rc = main(["eval", "--dataset", "/nonexistent/x.fsdc", "--split",
               world["split"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_respects_workers_env(world, tmp_path, monkeypatch):
    a = str(tmp_path / "serial.json")
    b = str(tmp_path / "env.json")
    assert main(eval_args(world, "--classifier", "max_likelihood",
                          "--out", a)) == 0
    monkeypatch.setenv("FSDC_WORKERS", "2")
    assert main(eval_args(world, "--classifier", "max_likelihood",
                          "--out", b)) == 0
    assert open(a).read() == open(b).read()


# --------------------------------------------------------------------- config

def test_config_file_merges_and_flags_win(world, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"calib.k": 3, "sampler.total_per_class": 20}))
    out = str(tmp_path / "r.json")
    assert main(eval_args(world, "--config", str(cfg), "--out", out)) == 0
    report = json.loads(open(out).read())
    assert report["pipeline"]["calib"]["k"] == 3
    assert report["pipeline"]["sampler"]["total_per_class"] == 30  # flag wins
    out2 = str(tmp_path / "r2.json")
    assert main(eval_args(world, "--config", str(cfg), "--k", "4",
                          "--out", out2)) == 0
    assert json.loads(open(out2).read())["pipeline"]["calib"]["k"] == 4


def test_config_rejects_unknown_key(world, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"calib.kk": 3}))
    assert main(eval_args(world, "--config", str(cfg))) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_tukey_base_key(world, tmp_path, capsys):
    # base statistics are always taken from untransformed features
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"tukey_base": True}))
    assert main(eval_args(world, "--config", str(cfg), "--episodes", "1")) == 2
    assert "unknown config key 'tukey_base'" in capsys.readouterr().err


def test_config_rejects_wrong_type(world, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"calib.k": "two"}))
    assert main(eval_args(world, "--config", str(cfg))) == 2
    assert "must be an integer" in capsys.readouterr().err


# every settings key: its flag arguments, the value they set, and where that
# value lands in the report (None for keys that only the command line has)
SETTING_CASES = {
    "episode.n_way": (["--n-way", "3"], 3, ("episode_spec", "n_way")),
    "episode.k_shot": (["--k-shot", "2"], 2, ("episode_spec", "k_shot")),
    "episode.q_queries": (["--queries", "4"], 4, ("episode_spec", "q_queries")),
    "episode.num_episodes": (["--episodes", "9"], 9,
                             ("episode_spec", "num_episodes")),
    "episode.seed": (["--seed", "7"], 7, ("episode_spec", "seed")),
    "tukey.lambda": (["--lambda", "0.75"], 0.75, ("pipeline", "tukey", "lam")),
    "tukey.log_epsilon": (["--log-epsilon", "0.001"], 0.001,
                          ("pipeline", "tukey", "log_epsilon")),
    "use_tukey": (["--no-tukey"], False, ("pipeline", "use_tukey")),
    "calib.k": (["--k", "3"], 3, ("pipeline", "calib", "k")),
    "calib.alpha": (["--alpha", "0.5"], 0.5, ("pipeline", "calib", "alpha")),
    "calib.use_novel_feature": (["--no-novel-feature"], False,
                                ("pipeline", "calib", "use_novel_feature")),
    "sampler.total_per_class": (["--num-generated", "20"], 20,
                                ("pipeline", "sampler", "total_per_class")),
    "use_generation": (["--no-generation"], False,
                       ("pipeline", "use_generation")),
    "sampler.seed": (["--sample-seed", "4"], 4, ("pipeline", "sampler", "seed")),
    "sampler.jitter": (["--jitter", "1e-05"], 1e-05,
                       ("pipeline", "sampler", "jitter")),
    "classifier": (["--classifier", "svm"], "svm", ("pipeline", "classifier")),
    "baseline": (["--baseline", "nearest:3"], "nearest:3",
                 ("pipeline", "baseline")),
    "optimizer.learning_rate": (["--lr", "0.3"], 0.3,
                                ("pipeline", "optimizer", "learning_rate")),
    "optimizer.epochs": (["--opt-epochs", "50"], 50,
                         ("pipeline", "optimizer", "epochs")),
    "optimizer.l2": (["--l2", "0.01"], 0.01, ("pipeline", "optimizer", "l2")),
    "workers": (["--workers", "2"], 2, None),
}


def test_every_setting_has_a_case():
    assert set(SETTING_CASES) == set(cli._SETTINGS)


@pytest.mark.parametrize("key", sorted(SETTING_CASES))
def test_config_key_and_flag_set_the_same_value(key, tmp_path):
    argv, value, path = SETTING_CASES[key]
    cfg_file = tmp_path / "one.json"
    cfg_file.write_text(json.dumps({key: value}))
    parser = cli._build_parser()
    io = ["eval", "--dataset", "d.fsdc", "--split", "s.json"]
    from_flag = cli._gather_settings(parser.parse_args(io + argv))
    from_file = cli._gather_settings(
        parser.parse_args(io + ["--config", str(cfg_file)]))
    assert from_flag == from_file == {key: value}
    configs = cli._configs(from_flag)
    assert configs == cli._configs(from_file)
    if path is None:
        assert configs == cli._configs({})
        return
    payload = {"episode_spec": configs[0].to_payload(),
               "pipeline": configs[1].to_payload()}
    default = {"episode_spec": EpisodeSpec().to_payload(),
               "pipeline": PipelineConfig().to_payload()}
    for part in path:
        payload, default = payload[part], default[part]
    expected = ({"kind": "nearest_class", "m": 3} if key == "baseline"
                else value)
    assert payload == expected
    assert default != expected


def test_readme_lists_every_eval_flag():
    # README's `eval` flag table is the one hand-kept copy of the flags
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### `eval` flags", 1)[1].split("\n#", 1)[0]
    listed = set(re.findall(r"`(--[a-z0-9-]+)", section))
    eval_parser = next(action.choices["eval"]
                       for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {option for action in eval_parser._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert listed == options


@pytest.mark.parametrize("argv", [
    ["eval", "--stats", "base.stats", "--episodes", "1"],
    ["eval", "--tukey-base", "--episodes", "1"],
    ["stats", "--out", "base.stats"],
    ["stats", "--lambda", "0.7"],
], ids=["eval-stats", "eval-tukey-base", "stats-out", "stats-lambda"])
def test_deleted_flags_are_rejected(world, capsys, argv):
    # base statistics are always built from the dataset, untransformed
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--dataset", world["dataset"], "--split",
              world["split"], *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha", "--lr", "--l2", "--jitter",
                                  "--log-epsilon"])
def test_non_finite_setting_exits_before_reading_the_dataset(world, capsys,
                                                             flag):
    # the dataset path does not exist: reading it would exit 1, not 2
    rc = main(["eval", "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], "--classifier", "max_likelihood",
               flag, "inf"])
    assert rc == 2
    # the setting is refused before the optimizer flags are warned about
    assert capsys.readouterr().err.startswith("error:")


def test_baseline_flag_parses(world, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(eval_args(world, "--baseline", "nearest:5", "--out", out)) == 0
    report = json.loads(open(out).read())
    assert report["pipeline"]["baseline"] == {"kind": "nearest_class", "m": 5}
    assert main(eval_args(world, "--baseline", "nearest:x")) == 2


# ---------------------------------------------------------------------- sweep

def test_sweep_writes_csv_and_json(world, tmp_path):
    prefix = str(tmp_path / "lam")
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--n-way", "2",
               "--queries", "4", "--num-generated", "20",
               "--opt-epochs", "30", "--param", "lambda",
               "--values", "0.5,1.0", "--out-prefix", prefix])
    assert rc == 0
    lines = open(prefix + ".csv").read().strip().splitlines()
    assert lines[0] == "value,mean_accuracy,ci95"
    assert len(lines) == 3
    payload = json.loads(open(prefix + ".json").read())
    assert [cell["value"] for cell in payload] == [0.5, 1.0]


def test_sweep_lambda_cell_matches_eval(world, tmp_path):
    # a sweep cell equals the eval at the same exponent
    prefix = str(tmp_path / "lam")
    assert main(["sweep", *eval_args(world)[1:],
                 "--param", "lambda", "--values", "0.5,1.0",
                 "--out-prefix", prefix]) == 0
    out = str(tmp_path / "eval.json")
    assert main(eval_args(world, "--lambda", "1.0", "--out", out)) == 0
    cell = json.loads(open(prefix + ".json").read())[1]
    report = json.loads(open(out).read())
    assert cell["value"] == 1.0
    assert cell["report"]["episode_accuracies"] == report["episode_accuracies"]
    assert cell["report"] == report


def test_sweep_rejects_empty_values(world, tmp_path, capsys):
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--param", "alpha", "--values", ",",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_num_generated_accepts_zero(world, tmp_path):
    prefix = str(tmp_path / "gen")
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "3", "--n-way", "2",
               "--queries", "4", "--opt-epochs", "30",
               "--param", "num_generated", "--values", "0,20",
               "--out-prefix", prefix])
    assert rc == 0
    payload = json.loads(open(prefix + ".json").read())
    assert payload[0]["report"]["pipeline"]["sampler"]["total_per_class"] == 0


# -------------------------------------------------------------------- project

@pytest.mark.parametrize("extra, extra_rows", [
    ((), {"generated": 2 * 25}),
    (("--baseline", "nearest:4"), {"retrieved": 2 * 4}),
    (("--classifier", "max_likelihood"), {}),
], ids=["generated", "retrieved", "max_likelihood"])
def test_project_row_accounting(world, tmp_path, capsys, extra, extra_rows):
    out = str(tmp_path / "proj.csv")
    rc = main(["project", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--n-way", "2",
               "--queries", "6", "--num-generated", "25",
               "--episode-index", "1", "--out", out, *extra])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "x,y,class_id,role"
    roles = [line.split(",")[3] for line in lines[1:]]
    expected = {"support": 2, "query": 12, **extra_rows}
    assert {role: roles.count(role) for role in set(roles)} == expected
    summary = " / ".join(f"{n} {role}" for role, n in expected.items())
    assert f"{summary} rows" in capsys.readouterr().out


def test_project_index_out_of_range(world, tmp_path, capsys):
    rc = main(["project", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--episode-index", "9",
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
