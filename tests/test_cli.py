import json

import numpy as np
import pytest

from fsdc.cli import main
from fsdc.features_io import Dataset, SplitManifest, save_dataset, save_split
from fsdc.stats import load_stats


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


def test_synth_rejects_bad_spec(tmp_path, capsys):
    rc = main(["synth", "--classes", "4", "--dim", "1", "--per-class", "5",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------- stats

def test_stats_writes_table_and_report(world, tmp_path, capsys):
    out = str(tmp_path / "w.fsst")
    sim = str(tmp_path / "sim.csv")
    rc = main(["stats", "--dataset", world["dataset"], "--split",
               world["split"], "--out", out, "--similarity-report", sim])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "class 0: 30 records" in printed
    table = load_stats(out)
    assert len(table) == 8
    lines = open(sim).read().strip().splitlines()
    assert lines[0] == "class_a,class_b,mean_cosine,variance_cosine"
    assert len(lines) == 1 + 8 * 7 // 2


def test_stats_tukey_base_changes_table(world, tmp_path):
    plain = str(tmp_path / "plain.fsst")
    powered = str(tmp_path / "powered.fsst")
    assert main(["stats", "--dataset", world["dataset"], "--split",
                 world["split"], "--out", plain]) == 0
    assert main(["stats", "--dataset", world["dataset"], "--split",
                 world["split"], "--out", powered, "--tukey-base"]) == 0
    a = load_stats(plain)
    b = load_stats(powered)
    cid = a.class_ids()[0]
    assert not np.allclose(a.entry(cid).mean, b.entry(cid).mean)


def test_stats_reports_undersized_class(tmp_path, capsys):
    ds = Dataset([0, 0, 1], [[1.0, 2.0], [1.5, 2.5], [9.0, 9.0]])
    save_dataset(ds, tmp_path / "tiny.fsdc")
    save_split(SplitManifest(base=[0, 1]), tmp_path / "tiny.split.json")
    rc = main(["stats", "--dataset", str(tmp_path / "tiny.fsdc"), "--split",
               str(tmp_path / "tiny.split.json"),
               "--out", str(tmp_path / "t.fsst")])
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


def test_eval_accepts_precomputed_stats(world, tmp_path):
    stats_path = str(tmp_path / "w.fsst")
    assert main(["stats", "--dataset", world["dataset"], "--split",
                 world["split"], "--out", stats_path]) == 0
    assert main(eval_args(world, "--stats", stats_path)) == 0


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


def test_config_rejects_wrong_type(world, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"calib.k": "two"}))
    assert main(eval_args(world, "--config", str(cfg))) == 2
    assert "must be an integer" in capsys.readouterr().err


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

@pytest.mark.parametrize("extra, role, count", [
    ((), "generated", 2 * 25),
    (("--baseline", "nearest:4"), "retrieved", 2 * 4),
], ids=["generated", "retrieved"])
def test_project_row_accounting(world, tmp_path, capsys, extra, role, count):
    out = str(tmp_path / "proj.csv")
    rc = main(["project", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--n-way", "2",
               "--queries", "6", "--num-generated", "25",
               "--episode-index", "1", "--out", out, *extra])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "x,y,class_id,role"
    assert len(lines) == 1 + 2 + 12 + count
    roles = [line.split(",")[3] for line in lines[1:]]
    assert roles.count("support") == 2
    assert roles.count("query") == 12
    assert roles.count(role) == count
    assert f"2 support / 12 query / {count} {role} rows" in capsys.readouterr().out


def test_project_index_out_of_range(world, tmp_path, capsys):
    rc = main(["project", "--dataset", world["dataset"], "--split",
               world["split"], "--episodes", "4", "--episode-index", "9",
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
