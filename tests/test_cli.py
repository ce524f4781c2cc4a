import argparse
import hashlib
import json
import os
import re
from dataclasses import fields, is_dataclass
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
    # the dataset and its split are all that synth writes
    assert sorted(os.listdir(tmp_path)) == ["again.fsdc", "again.split.json"]


SYNTH_FLAGS = {"--skew-power": ("skew_power", 1.5),
               "--group-size": ("group_size", 3),
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


@pytest.mark.parametrize("power", ["nan", "inf"])
def test_synth_rejects_non_finite_skew_power(tmp_path, capsys, power):
    # refused as a setting, before any feature is generated
    rc = main(["synth", "--classes", "4", "--dim", "4", "--per-class", "5",
               "--skew-power", power, "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: skew_power must be")
    assert os.listdir(tmp_path) == []


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


def test_similarity_report_bytes_are_pinned(world, tmp_path):
    # the bytes written when the variances were read off fully expanded
    # covariances; reading them off the packed rows must not move a digit
    sim = tmp_path / "sim.csv"
    assert main(["stats", "--dataset", world["dataset"], "--split",
                 world["split"], "--similarity-report", str(sim)]) == 0
    assert hashlib.sha256(sim.read_bytes()).hexdigest() == (
        "c016443fa7f8e407e1b1c125d7317e04d8d86791837d2136010e624b37c5f868")


def test_missing_output_directory_is_named_as_given(world, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["stats", "--dataset", world["dataset"], "--split",
                 world["split"], "--similarity-report", "nodir/sim.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert "'nodir/sim.csv'" in err
    assert ".fsdc-tmp" not in err
    assert os.listdir(tmp_path) == []


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


def test_split_that_is_not_utf8_exits_1(world, capsys):
    # the dataset passed as the split: its bytes are not UTF-8
    rc = main(["stats", "--dataset", world["dataset"], "--split",
               world["dataset"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: split manifest is not valid JSON")


@pytest.mark.parametrize("parts", [
    {"base": [0, 1], "val": [], "novel": [1]},
    {"base": [2 ** 32], "val": [], "novel": [1]},
    {"base": [0], "val": [], "novel": "x"},
], ids=["overlapping-roles", "id-out-of-range", "not-a-list"])
def test_malformed_split_manifest_exits_1(world, tmp_path, capsys, parts):
    # a bad manifest is a bad file, not an invalid setting (status 2)
    split = tmp_path / "bad.split.json"
    split.write_text(json.dumps(parts))
    rc = main(["eval", "--dataset", world["dataset"], "--split", str(split),
               "--episodes", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: split manifest")


def test_split_with_an_overlong_integer_exits_1(world, tmp_path, capsys):
    # more digits than Python converts to an int by default
    split = tmp_path / "long.split.json"
    split.write_text('{"base": [' + "9" * 5001 + '], "val": [], "novel": [1]}')
    rc = main(["eval", "--dataset", world["dataset"], "--split", str(split),
               "--episodes", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: split manifest is not valid JSON")


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


def test_eval_missing_file_is_runtime_error(world, capsys):
    rc = main(["eval", "--dataset", "/nonexistent/x.fsdc", "--split",
               world["split"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_workers_flag_matches_serial(world, tmp_path):
    a = str(tmp_path / "serial.json")
    b = str(tmp_path / "workers.json")
    assert main(eval_args(world, "--out", a)) == 0
    assert main(eval_args(world, "--workers", "2", "--out", b)) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


# ------------------------------------------------------------------- settings

# every settings key: its flag arguments, the value they set, and where that
# value lands in the report
SETTING_CASES = {
    "episode.n_way": (["--n-way", "3"], 3, ("episode_spec", "n_way")),
    "episode.k_shot": (["--k-shot", "2"], 2, ("episode_spec", "k_shot")),
    "episode.q_queries": (["--queries", "4"], 4, ("episode_spec", "q_queries")),
    "episode.num_episodes": (["--episodes", "9"], 9,
                             ("episode_spec", "num_episodes")),
    "episode.seed": (["--seed", "7"], 7, ("episode_spec", "seed")),
    "tukey.lambda": (["--lambda", "0.75"], 0.75, ("pipeline", "tukey", "lam")),
    "calib.k": (["--k", "3"], 3, ("pipeline", "calib", "k")),
    "calib.alpha": (["--alpha", "0.5"], 0.5, ("pipeline", "calib", "alpha")),
    "calib.use_novel_feature": (["--no-novel-feature"], False,
                                ("pipeline", "calib", "use_novel_feature")),
    "sampler.total_per_class": (["--num-generated", "20"], 20,
                                ("pipeline", "sampler", "total_per_class")),
    "sampler.seed": (["--sample-seed", "4"], 4, ("pipeline", "sampler", "seed")),
    "classifier": (["--classifier", "svm"], "svm", ("pipeline", "classifier")),
    "retrieve": (["--retrieve", "3"], 3, ("pipeline", "retrieve")),
    "optimizer.epochs": (["--opt-epochs", "50"], 50,
                         ("pipeline", "optimizer", "epochs")),
    "optimizer.l2": (["--l2", "0.01"], 0.01, ("pipeline", "optimizer", "l2")),
}


def test_every_setting_has_a_case():
    assert set(SETTING_CASES) == set(cli._SETTINGS)


def _leaf_keys(cls, prefix=""):
    """Dotted names of a dataclass's leaf fields, ``lam`` as ``lambda``."""
    keys = []
    for f in fields(cls):
        default = f.default
        if is_dataclass(default):
            keys += _leaf_keys(type(default), f"{prefix}{f.name}.")
        else:
            keys.append(prefix + ("lambda" if f.name == "lam" else f.name))
    return keys


def test_every_setting_has_one_name():
    # each field of the episode spec and the pipeline config is set by
    # exactly one settings key, and each key sets one field
    keys = (_leaf_keys(EpisodeSpec, "episode.") + _leaf_keys(PipelineConfig))
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli._SETTINGS)


@pytest.mark.parametrize("key", sorted(SETTING_CASES))
def test_flag_sets_its_key_and_report_field(key):
    argv, value, path = SETTING_CASES[key]
    io = ["eval", "--dataset", "d.fsdc", "--split", "s.json"]
    settings = cli._gather_settings(cli._build_parser().parse_args(io + argv))
    assert settings == {key: value}
    configs = cli._configs(settings)
    payload = {"episode_spec": configs[0].to_payload(),
               "pipeline": configs[1].to_payload()}
    default = {"episode_spec": EpisodeSpec().to_payload(),
               "pipeline": PipelineConfig().to_payload()}
    for part in path:
        payload, default = payload[part], default[part]
    assert payload == value
    assert default != value


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _options(command: str) -> set[str]:
    parser = next(action.choices[command]
                  for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
    return {option for action in parser._actions
            for option in action.option_strings} - {"-h", "--help"}


def test_readme_lists_every_eval_flag():
    # README's `eval` flag table is a hand-kept copy of the flags
    section = README.split("### `eval` flags", 1)[1].split("\n#", 1)[0]
    assert set(re.findall(r"`(--[a-z0-9-]+)", section)) == _options("eval")


def test_readme_lists_every_stats_flag():
    # and so is README's sentence on what `stats` takes
    sentence = README.split("`stats` takes only", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(--[a-z0-9-]+)`", sentence)) == _options("stats")


@pytest.mark.parametrize("argv, refusal", [
    (["eval", "--stats", "base.stats", "--episodes", "1"],
     "unrecognized arguments: --stats"),
    (["eval", "--tukey-base", "--episodes", "1"],
     "unrecognized arguments: --tukey-base"),
    (["stats", "--out", "base.stats"], "unrecognized arguments: --out"),
    (["stats", "--lambda", "0.7"], "unrecognized arguments: --lambda"),
    (["eval", "--jitter", "1e-5"], "unrecognized arguments: --jitter"),
    (["eval", "--log-epsilon", "1e-3"],
     "unrecognized arguments: --log-epsilon"),
    (["eval", "--classifier", "max_likelihood"],
     "invalid choice: 'max_likelihood'"),
    (["eval", "--no-tukey"], "unrecognized arguments: --no-tukey"),
    (["eval", "--no-generation"], "unrecognized arguments: --no-generation"),
    (["eval", "--baseline", "nearest:3"],
     "unrecognized arguments: --baseline"),
    (["eval", "--lr", "0.3"], "unrecognized arguments: --lr"),
    (["eval", "--format", "csv"], "unrecognized arguments: --format"),
    (["stats", "--format", "csv"], "unrecognized arguments: --format"),
    (["eval", "--config", "x.json"], "unrecognized arguments: --config"),
    # the output directory does not exist, so a run that took the flag
    # would exit 1 without writing
    (["project", "--out", "absent-dir/p.csv", "--workers", "2"],
     "unrecognized arguments: --workers"),
], ids=["eval-stats", "eval-tukey-base", "stats-out", "stats-lambda",
        "eval-jitter", "eval-log-epsilon", "eval-max-likelihood",
        "eval-no-tukey", "eval-no-generation", "eval-baseline", "eval-lr",
        "eval-format", "stats-format", "eval-config", "project-workers"])
def test_deleted_flags_are_rejected(world, capsys, argv, refusal):
    # base statistics are always built from the dataset, untransformed;
    # every episode trains a linear model with fixed jitter and zero shift;
    # --lambda 1 and --num-generated 0 switch a stage off, --retrieve M
    # switches retrieval on; the step size follows from the training rows;
    # FSDC is the one dataset format; settings come from flags only;
    # project runs its one episode in-process, so it takes no --workers
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--dataset", world["dataset"], "--split",
              world["split"], *argv[1:]])
    assert exc.value.code == 2
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--level", "--sigma", "--separation",
                                  "--offset"])
def test_deleted_synth_flags_are_rejected(tmp_path, capsys, flag):
    # every synthetic world has the same latent geometry
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--classes", "6", "--dim", "4", "--per-class", "10",
              "--out-prefix", str(tmp_path / "x"), flag, "0.5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha", "--l2"])
def test_non_finite_setting_exits_before_reading_the_dataset(world, capsys,
                                                             flag):
    # the dataset path does not exist: reading it would exit 1, not 2
    rc = main(["eval", "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], flag, "inf"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [
    ["eval"], ["sweep", "--param", "calib.k", "--values", "2",
               "--out-prefix", "never"]], ids=["eval", "sweep"])
def test_zero_workers_exit_before_reading_the_dataset(world, capsys, command):
    rc = main([*command, "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], "--workers", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"


def test_one_way_episodes_exit_before_reading_the_dataset(world, capsys):
    # a one-way task has nothing to classify; it is refused with the
    # settings, not after the dataset is read and the base table built
    rc = main(["eval", "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], "--n-way", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_baseline_flag_parses(world, tmp_path, capsys):
    # the retrieval baseline's one setting: base rows per support feature
    out = str(tmp_path / "r.json")
    assert main(eval_args(world, "--retrieve", "5", "--out", out)) == 0
    report = json.loads(open(out).read())
    assert report["pipeline"]["retrieve"] == 5
    assert main(eval_args(world, "--retrieve", "-1")) == 2
    assert "retrieve must be non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------- sweep

def test_sweep_writes_csv_and_json(world, tmp_path):
    prefix = str(tmp_path / "lam")
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--n-way", "2",
               "--queries", "4", "--num-generated", "20",
               "--opt-epochs", "30", "--param", "tukey.lambda",
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
                 "--param", "tukey.lambda", "--values", "0.5,1.0",
                 "--out-prefix", prefix]) == 0
    out = str(tmp_path / "eval.json")
    assert main(eval_args(world, "--lambda", "1.0", "--out", out)) == 0
    cell = json.loads(open(prefix + ".json").read())[1]
    report = json.loads(open(out).read())
    assert cell["value"] == 1.0
    assert cell["report"]["episode_accuracies"] == report["episode_accuracies"]
    assert cell["report"] == report


def test_sweep_l2_cell_matches_eval(world, tmp_path):
    # any number of the pipeline sweeps under its config key
    prefix = str(tmp_path / "l2")
    assert main(["sweep", *eval_args(world)[1:],
                 "--param", "optimizer.l2", "--values", "0.05",
                 "--out-prefix", prefix]) == 0
    out = str(tmp_path / "eval.json")
    assert main(eval_args(world, "--l2", "0.05", "--out", out)) == 0
    (cell,) = json.loads(open(prefix + ".json").read())
    assert cell["value"] == 0.05
    assert cell["report"] == json.loads(open(out).read())


def test_sweep_identical_values_give_identical_reports(world, tmp_path):
    prefix = str(tmp_path / "alpha")
    assert main(["sweep", *eval_args(world)[1:], "--episodes", "4",
                 "--param", "calib.alpha", "--values", "0.2,0.2",
                 "--out-prefix", prefix]) == 0
    first, second = json.loads(open(prefix + ".json").read())
    assert first == second


def test_sweep_rejects_empty_values(world, tmp_path, capsys):
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--param", "calib.alpha", "--values", ",",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("values", ["1.5", "two"])
def test_sweep_parses_values_with_the_key_type(world, tmp_path, capsys,
                                               values):
    # calib.k is an integer; the dataset path does not exist, so exit 2
    # means the value was refused before the dataset was read
    rc = main(["sweep", "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], "--param", "calib.k",
               "--values", values, "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert "bad sweep value" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["episode.k_shot", "workers", "classifier",
                                   "calib.use_novel_feature", "lambda"])
def test_sweep_rejects_unpaired_and_non_numeric_keys(world, tmp_path, capsys,
                                                     param):
    # episode keys and the worker count would break the pairing of cells;
    # the classifier and the switch are not numbers; "lambda" is no key
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dataset", world["dataset"], "--split",
              world["split"], "--param", param, "--values", "1",
              "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sweep_num_generated_accepts_zero(world, tmp_path):
    prefix = str(tmp_path / "gen")
    rc = main(["sweep", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "3", "--n-way", "2",
               "--queries", "4", "--opt-epochs", "30",
               "--param", "sampler.total_per_class", "--values", "0,20",
               "--out-prefix", prefix])
    assert rc == 0
    payload = json.loads(open(prefix + ".json").read())
    assert payload[0]["report"]["pipeline"]["sampler"]["total_per_class"] == 0


# -------------------------------------------------------------------- project

@pytest.mark.parametrize("extra, extra_rows", [
    ((), {"generated": 2 * 25}),
    (("--retrieve", "4"), {"retrieved": 2 * 4}),
], ids=["generated", "retrieved"])
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


def test_project_index_exits_before_reading_the_dataset(world, tmp_path,
                                                        capsys):
    # the dataset path does not exist: reading it would exit 1, not 2
    rc = main(["project", "--dataset", str(world["root"] / "absent.fsdc"),
               "--split", world["split"], "--episodes", "2",
               "--episode-index", "5", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: episode index 5 outside [0, 2)\n"
