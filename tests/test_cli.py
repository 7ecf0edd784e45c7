"""End-to-end command-line pipeline: artifacts, determinism, and errors."""

import contextlib
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from hierfusion import cli as cli_module
from hierfusion import model as model_module
from hierfusion import serialization as serialization_module
from hierfusion import taxonomy as taxonomy_module
from hierfusion.cli import experiment_config_from_dict, main
from hierfusion.exceptions import (
    CheckpointError,
    InvalidConfig,
    InvalidSpec,
    StructureError,
)
from hierfusion.features import (
    SyntheticSpec,
    generate_synthetic,
    load_feature_table,
    train_test_split,
)
from hierfusion.metrics import PredictionBatch, evaluate, save_predictions
from hierfusion.model import (
    CHECKPOINT_MAGIC,
    FusionConfig,
    TrainHistory,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    save_history,
    train,
)
from hierfusion.rng import STREAM_SYNTHETIC, derive_seed
from hierfusion.serialization import format_float
from hierfusion.structure_builder import adjusted_rand_index, build_visual_structure
from hierfusion.taxonomy import (
    LabelStructure,
    StructureSet,
    load_structure,
    load_structure_set,
    save_structure,
    validate_structure,
)
from test_features import many_ranges, one_range, parser_calls
from test_model import many_slices, one_slice

ROOT = Path(__file__).resolve().parents[1]

SYNTH = {
    "superclass_count": 2,
    "subclasses_per_superclass": 2,
    "samples_per_subclass": 30,
    "dim": 6,
    "superclass_separation": 12.0,
    "subclass_separation": 2.0,
    "noise_scale": 0.3,
}

MODEL = {
    "stage_dims": [8, 4],
    "learning_rate": 0.2,
    "epochs": 3,
    "batch_size": 16,
}


def write_config(path, raw):
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return str(path)


def run(*argv):
    return main(list(argv))


def gen_dataset(tmp_path, seed=0):
    """Generate the small synthetic dataset; returns its directory."""
    out = tmp_path / f"data{seed}"
    config = write_config(tmp_path / f"gen{seed}.json",
                          {"seed": seed, "synthetic": SYNTH, "out": str(out)})
    assert run("gen-synthetic", "--config", config) == 0
    return out


def test_gen_synthetic_artifacts(tmp_path):
    data = gen_dataset(tmp_path)
    planted = load_structure(data / "structure_planted.json")
    assert planted.name == "planted"
    assert planted.superclasses == ("s0", "s1")
    table = load_feature_table(data / "features.csv", planted.subclass_names)
    assert table.count == 2 * 2 * 30
    assert table.dim == 6
    assert np.bincount(table.labels).tolist() == [30] * 4


def test_gen_synthetic_reruns_byte_identical(tmp_path):
    a = gen_dataset(tmp_path, seed=3)
    b_out = tmp_path / "again"
    config = write_config(tmp_path / "gen_again.json",
                          {"seed": 3, "synthetic": SYNTH, "out": str(b_out)})
    assert run("gen-synthetic", "--config", config) == 0
    assert (a / "features.csv").read_bytes() == \
        (b_out / "features.csv").read_bytes()
    assert (a / "structure_planted.json").read_bytes() == \
        (b_out / "structure_planted.json").read_bytes()


def test_build_structure_recovers_planted_grouping(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "built"
    config = write_config(tmp_path / "build.json", {
        "seed": 0,
        "features": str(data / "features.csv"),
        "names_from": str(data / "structure_planted.json"),
        "builder": {"k": 2},
        "out": str(out),
    })
    assert run("build-structure", "--config", config) == 0
    built = load_structure(out / "H_A_k2.json")
    planted = load_structure(data / "structure_planted.json")
    assert built.subclass_names == planted.subclass_names
    assert adjusted_rand_index(built.parent_index, planted.parent_index) == 1.0


def test_build_structure_k_out_of_range(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    config = write_config(tmp_path / "build_bad.json", {
        "features": str(data / "features.csv"),
        "builder": {"k": 99},
        "out": str(tmp_path / "built"),
    })
    assert run("build-structure", "--config", config) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "[1, 4]" in err


@pytest.mark.parametrize("flag, value", [
    ("k", "abc"), ("k", "2.5"), ("k", "true"),
    ("seed", "x"), ("seed", "1.7"), ("seed", "false"), ("seed", "-2"),
    ("delta", "abc"), ("delta", "nan"), ("delta", "NaN"), ("delta", "Infinity"),
    ("delta", "0"), ("delta", "true"),
])
def test_build_structure_rejects_bad_builder_values(tmp_path, capsys, flag, value):
    data = gen_dataset(tmp_path)
    out = tmp_path / "built"
    config = write_config(tmp_path / "build.json", {
        "features": str(data / "features.csv"),
        "builder": {"k": 2},
        "out": str(out),
    })
    capsys.readouterr()
    assert run("build-structure", "--config", config, f"--builder.{flag}", value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: builder {flag} must be")
    assert err.count("\n") == 1
    assert not out.exists()


def test_build_structure_accepts_integral_float_k(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "built"
    config = write_config(tmp_path / "build.json", {
        "features": str(data / "features.csv"),
        "builder": {"k": 2.0, "delta": 2},
        "out": str(out),
    })
    assert run("build-structure", "--config", config) == 0
    assert sorted(p.name for p in out.iterdir()) == ["H_A_k2.json"]


def train_config(tmp_path, data, out, with_structure=True, **model_extra):
    raw = {
        "seed": 1,
        "features": str(data / "features.csv"),
        "names_from": str(data / "structure_planted.json"),
        "split": {"fraction": 0.8},
        "model": dict(MODEL, **model_extra),
        "out": str(out),
    }
    if with_structure:
        raw["structures"] = [str(data / "structure_planted.json")]
        raw["model"].setdefault("attach_stages", [0])
        raw["model"].setdefault("lambda_total", 0.2)
    return write_config(tmp_path / f"train_{out.name}.json", raw)


def test_train_writes_checkpoint_and_history(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "run"
    config = train_config(tmp_path, data, out)
    assert run("train", "--config", config) == 0
    model, model_config = load_checkpoint(out / "model.ckpt")
    assert model.structure_names == ("planted",)
    assert model.subclass_count == 4
    assert model_config.lambda_total == 0.2
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == (
        "epoch,total_loss,subclass_loss,super_loss_planted,train_accuracy"
    )
    assert len(lines) == 1 + MODEL["epochs"]


def test_train_headless_history_has_no_super_columns(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "plain"
    config = train_config(tmp_path, data, out, with_structure=False)
    assert run("train", "--config", config) == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,total_loss,subclass_loss,train_accuracy"


def test_train_reruns_byte_identical(tmp_path):
    data = gen_dataset(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run("train", "--config", train_config(tmp_path, data, out_a))
    run("train", "--config", train_config(tmp_path, data, out_b))
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_evaluate_report_and_predictions(tmp_path):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--config", train_config(tmp_path, data, run_dir)) == 0
    eval_dir = tmp_path / "eval"
    config = write_config(tmp_path / "eval.json", {
        "seed": 1,
        "features": str(data / "features.csv"),
        "structures": [str(data / "structure_planted.json")],
        "checkpoint": str(run_dir / "model.ckpt"),
        "split": {"fraction": 0.8},
        "out": str(eval_dir),
    })
    assert run("evaluate", "--config", config) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert list(report) == [
        "accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a", "per_structure",
    ]
    assert len(report["per_structure"]) == 1
    assert report["per_structure"][0]["name"] == "planted"
    # the emitted numbers satisfy the fixed-depth relations
    assert abs(report["tie_a"] - 2.0 * report["lca_a"]) < 1e-12
    assert abs(report["f_ha"] - (1.0 - report["tie_a"] / 6.0)) < 1e-12
    pred_lines = (eval_dir / "predictions.csv").read_text().splitlines()
    assert pred_lines[0] == "predicted,truth"
    # the held-out side is 20% of 30 per class, 4 classes
    assert len(pred_lines) == 1 + 4 * 6


def test_evaluate_reruns_byte_identical(tmp_path):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    run("train", "--config", train_config(tmp_path, data, run_dir))
    outs = []
    for name in ("e1", "e2"):
        eval_dir = tmp_path / name
        config = write_config(tmp_path / f"{name}.json", {
            "features": str(data / "features.csv"),
            "structures": [str(data / "structure_planted.json")],
            "checkpoint": str(run_dir / "model.ckpt"),
            "split": {"fraction": 0.8},
            "out": str(eval_dir),
        })
        assert run("evaluate", "--config", config) == 0
        outs.append(eval_dir)
    assert (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "predictions.csv").read_bytes() == \
        (outs[1] / "predictions.csv").read_bytes()


def test_evaluate_requires_checkpoint_and_structures(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    config = write_config(tmp_path / "eval_nockpt.json", {
        "features": str(data / "features.csv"),
        "structures": [str(data / "structure_planted.json")],
        "out": str(tmp_path / "eval"),
    })
    assert run("evaluate", "--config", config) == 1
    assert "checkpoint" in capsys.readouterr().err

    run_dir = tmp_path / "run"
    run("train", "--config", train_config(tmp_path, data, run_dir))
    config = write_config(tmp_path / "eval_nostruct.json", {
        "features": str(data / "features.csv"),
        "checkpoint": str(run_dir / "model.ckpt"),
        "out": str(tmp_path / "eval2"),
    })
    assert run("evaluate", "--config", config) == 1
    assert "structure" in capsys.readouterr().err


def sweep_base(tmp_path, data, out):
    return {
        "seed": 1,
        "features": str(data / "features.csv"),
        "names_from": str(data / "structure_planted.json"),
        "structures": [str(data / "structure_planted.json")],
        "split": {"fraction": 0.8},
        "model": dict(MODEL, attach_stages=[0], lambda_total=0.2, epochs=2),
        "out": str(out),
    }


def test_sweep_lambda_rows_and_means(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "sweep"
    config = write_config(tmp_path / "sweep.json", sweep_base(tmp_path, data, out))
    assert run("sweep", "--config", config, "--axis", "lambda",
               "--values", "0.3,0.0", "--seeds", "2,1") == 0
    lines = (out / "sweep_lambda.csv").read_text().splitlines()
    assert lines[0] == "lambda,seed,accuracy,p_ha,r_ha,f_ha,tie_a,lca_a"
    # 2 values x (2 seeds + mean), values and seeds sorted ascending
    assert len(lines) == 1 + 2 * 3
    firsts = [line.split(",")[:2] for line in lines[1:]]
    assert firsts == [["0", "1"], ["0", "2"], ["0", "mean"],
                      ["0.29999999999999999", "1"],
                      ["0.29999999999999999", "2"],
                      ["0.29999999999999999", "mean"]]
    # the mean row averages its two seed rows
    rows = [line.split(",") for line in lines[1:4]]
    acc = (float(rows[0][2]) + float(rows[1][2])) / 2.0
    assert abs(float(rows[2][2]) - acc) < 1e-15


def test_a_sweep_in_many_slices_writes_the_one_slice_csv(tmp_path):
    data = gen_dataset(tmp_path)

    def sweep(tag):
        out = tmp_path / tag
        config = write_config(tmp_path / f"{tag}.json", sweep_base(tmp_path, data, out))
        assert run("sweep", "--config", config, "--axis", "lambda",
                   "--values", "0.0,0.2,0.4", "--seeds", "0,1,2") == 0
        return (out / "sweep_lambda.csv").read_bytes()

    with many_slices(9) as forks:
        split = sweep("split")
    assert len(forks) == 8  # the nine runs share one stack, one run a slice
    assert split == one_slice(lambda: sweep("one"))


def test_sweep_k_reports_best(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    out = tmp_path / "sweepk"
    raw = sweep_base(tmp_path, data, out)
    del raw["structures"]  # the k sweep builds its own structure per run
    config = write_config(tmp_path / "sweepk.json", raw)
    assert run("sweep", "--config", config, "--axis", "k",
               "--values", "2,4") == 0
    err = capsys.readouterr().err
    assert "best k by mean accuracy:" in err
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0].startswith("k,seed,")
    assert len(lines) == 1 + 2 * 2  # one seed per value plus its mean row


def test_sweep_attach_stage_column_name(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "sweeps"
    config = write_config(tmp_path / "sweeps.json", sweep_base(tmp_path, data, out))
    assert run("sweep", "--config", config, "--axis", "attach_stage",
               "--values", "0,1") == 0
    lines = (out / "sweep_attach_stage.csv").read_text().splitlines()
    assert lines[0].startswith("stage,seed,")
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0", "1", "1"]


def test_sweep_without_axis_fails_cleanly(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    config = write_config(tmp_path / "sweep_noaxis.json",
                          sweep_base(tmp_path, data, tmp_path / "sx"))
    assert run("sweep", "--config", config) == 1
    assert "axis" in capsys.readouterr().err


def test_flag_only_invocation_with_dotted_overrides(tmp_path):
    out = tmp_path / "flags"
    code = run(
        "gen-synthetic",
        "--seed", "5",
        "--out", str(out),
        "--synthetic.superclass_count", "2",
        "--synthetic.subclasses_per_superclass=2",
        "--synthetic.samples_per_subclass", "6",
        "--synthetic.dim", "3",
    )
    assert code == 0
    planted = load_structure(out / "structure_planted.json")
    assert planted.subclass_count == 4
    table = load_feature_table(out / "features.csv", planted.subclass_names)
    assert table.count == 24
    assert table.dim == 3


def test_override_beats_config_file(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "short"
    config = train_config(tmp_path, data, out)
    assert run("train", "--config", config, "--model.epochs", "1") == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 2


def test_config_error_paths(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.json", {"bogus": 1})
    assert run("train", "--config", bad) == 1
    assert "unknown config fields" in capsys.readouterr().err

    both = write_config(tmp_path / "both.json", {
        "synthetic": SYNTH,
        "features": "x.csv",
        "out": str(tmp_path / "o"),
    })
    assert run("gen-synthetic", "--config", both) == 1
    assert "exactly one data source" in capsys.readouterr().err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert run("train", "--config", str(notjson)) == 1
    assert "error:" in capsys.readouterr().err

    missing = write_config(tmp_path / "missing.json", {
        "features": str(tmp_path / "nowhere.csv"),
        "builder": {"k": 2},
        "out": str(tmp_path / "o2"),
    })
    assert run("build-structure", "--config", missing) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b'{"seed": "\xff"}', b"[1]", b"[" * 100_000],
                         ids=["not-utf8", "list", "deep"])
def test_config_file_must_be_a_json_object(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    capsys.readouterr()
    assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["--config", "a\x00.json"], "'config' must be a file path"),
    (["--config", "\ud800.json"], "'config' must be a file path"),
    (["--out", "o\x00"], "'out' must be a directory path"),
    (["--features", '"\\ud800.csv"'], "'features' must be a file path"),
    (["--structures", '["s\\u0000.json"]'], "'structures entry' must be a file path"),
], ids=["config-nul", "config-surrogate", "out-nul", "features-surrogate",
        "structures-nul"])
def test_a_path_the_os_cannot_take_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                      argv, message):
    # open() and mkdir() refuse these with ValueError, which is no OS error
    monkeypatch.chdir(tmp_path)
    assert run("train", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["gen-synthetic", "--out", "", "--synthetic", '{"dim": 2}'],
     "'out' must be a directory path"),
    (["train", "--config", ""], "'config' must be a file path"),
    (["train", "--features", ""], "'features' must be a file path"),
], ids=["gen-out", "train-config", "train-features"])
def test_an_empty_path_is_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    # Path("") is the current directory, so an empty --out would write here
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}, got ''\n"
    assert list(tmp_path.iterdir()) == []


HUGE = np.array([1e299, 3e299, 1e300, 6e299])  # finite, but squares overflow


@pytest.mark.parametrize("rows, message", [
    # every class's variance overflows: the first class is named
    ([("a", x, -x) for x in HUGE] + [("b", -x, x) for x in HUGE],
     "class 0 ('a'): mean or variance overflows float64"),
    # finite statistics, but no class pair is nearer than float64 can hold
    ([("a", -1e200, 0.0), ("a", -1e200, 1.0), ("b", 0.0, 0.0), ("b", 0.0, 1.0),
      ("c", 1e200, 0.0), ("c", 1e200, 1.0)],
     "classes with zero affinity degree: [0, 1, 2]"),
], ids=["variance", "distance"])
def test_features_past_the_float64_range_are_one_error_line(tmp_path, capsys,
                                                            rows, message):
    # the warnings filter turns any RuntimeWarning of numpy into an error
    path = tmp_path / "huge.csv"
    path.write_text("label,f0,f1\n" + "".join(
        f"{name},{float(x)!r},{float(y)!r}\n" for name, x, y in rows))
    capsys.readouterr()
    assert run("build-structure", "--features", str(path), "--builder.k", "2",
               "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


SWEEP = {"axis": "lambda", "values": [0.1]}


@pytest.mark.parametrize("patch, message", [
    ({"sweep": dict(SWEEP, bogus=1)}, "unknown sweep config fields: ['bogus']"),
    ({"sweep": dict(SWEEP, seeds=0)}, "sweep seeds must be a list, got 0"),
    ({"sweep": dict(SWEEP, seeds="x")}, "sweep seeds must be a list, got 'x'"),
    ({"sweep": dict(SWEEP, values="0.1")}, "sweep values must be a list, got '0.1'"),
    ({"split": {}}, "'split' is missing its 'fraction' field"),
    ({"split": {"seed": 1}}, "'split' is missing its 'fraction' field"),
    ({"split": {"fraction": 0.8, "ratio": 1}}, "unknown split config fields"),
    ({"builder": {"k": 2, "kk": 3}}, "unknown builder config fields"),
    ({"structures": "a.json"}, "structures must be a list, got 'a.json'"),
    ({"structures": [3]}, "'structures entry' must be a file path, got 3"),
], ids=["sweep-unknown", "sweep-seeds-0", "sweep-seeds-x", "sweep-values-string",
        "split-empty", "split-no-fraction", "split-unknown", "builder-unknown",
        "structures-string", "structures-int"])
def test_every_config_section_is_typed(tmp_path, capsys, patch, message):
    data = gen_dataset(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json",
                          {**sweep_base(tmp_path, data, out), "sweep": SWEEP, **patch})
    capsys.readouterr()
    assert run("sweep", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sweep_flags_override_the_sweep_section(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "swept"
    raw = dict(sweep_base(tmp_path, data, out),
               sweep={"axis": "lambda", "values": [0.5], "seeds": [7]})
    config = write_config(tmp_path / "sweep.json", raw)

    def firsts():
        lines = (out / "sweep_lambda.csv").read_text().splitlines()
        return [line.split(",")[:2] for line in lines[1:]]

    assert run("sweep", "--config", config) == 0
    assert firsts() == [["0.5", "7"], ["0.5", "mean"]]
    assert run("sweep", "--config", config, "--values", "0.0", "--seeds", "2,1") == 0
    assert firsts() == [["0", "1"], ["0", "2"], ["0", "mean"]]


def test_sweep_with_a_null_model_section_takes_its_defaults(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "swept"
    raw = dict(sweep_base(tmp_path, data, out), model=None)
    config = write_config(tmp_path / "sweep.json", raw)
    assert run("sweep", "--config", config, "--axis", "attach_stage",
               "--values", "0") == 0
    assert len((out / "sweep_attach_stage.csv").read_text().splitlines()) == 1 + 2


def test_readme_example_config_resolves():
    readme = (ROOT / "README.md").read_text()
    document = json.loads(re.search(r"```json\n(.*?)```", readme, re.S)[1])
    config = experiment_config_from_dict(document)
    for field in document:
        assert getattr(config, field) is not None


def test_unexpected_positional_argument(tmp_path, capsys):
    assert run("train", "oops") == 1
    assert "unexpected argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "x"],
    ["train", "--seed", "1.5"],
    ["train", "--seed", "-1"],
    ["sweep", "--axis", "foo"],
    ["sweep", "--axis", "foo", "--values", "1"],
    ["train", "--out"],
    ["bogus"],
    [],
    ["train", "--seed", "[" * 100_000],
    ["train", "--model.epochs", "[" * 100_000],
    ["sweep", "--axis", "k", "--values", "[" * 100_000],
    ["train", "--se", "3", "--o", "d"],
    ["sweep", "--ax", "lambda", "--val", "0.1"],
    ["train", "--seed", "1" * 5000],
    ["train", "--model.epochs", "1" * 5000],
    ["sweep", "--axis", "k", "--values", "1" * 5000],
], ids=["seed-text", "seed-float", "seed-negative", "axis-unknown",
        "axis-unknown-with-values", "out-no-value", "bad-command", "no-command",
        "seed-deep-json", "override-deep-json", "values-deep-json",
        "train-abbreviations", "sweep-abbreviations",
        # past Python's 4300-digit limit on converting text to an int
        "seed-long-number", "override-long-number", "values-long-number"])
def test_bad_flags_are_one_error_line(tmp_path, capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, fields", [
    (["train", "--se", "3", "--o", "d"], "['o', 'se']"),
    (["sweep", "--ax", "lambda", "--val", "0.1"], "['ax', 'val']"),
], ids=["train", "sweep"])
def test_abbreviated_flags_are_unknown_fields(tmp_path, capsys, monkeypatch,
                                              argv, fields):
    # a flag names a field only in full, as a dotted override does
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: unknown config fields: {fields}\n"
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero_and_names_the_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("names_from", [False, True], ids=["inferred", "names-from"])
@pytest.mark.parametrize("line", [0, 1, 5, -2],
                         ids=["header", "first-row", "fifth-row", "last-row"])
def test_non_utf8_feature_file_is_a_typed_error(tmp_path, capsys, line, names_from):
    data = gen_dataset(tmp_path)
    lines = (data / "features.csv").read_bytes().split(b"\n")
    # the header's first cell or a row's label; the last row lies past the
    # first block of text the reader decodes
    lines[line] = lines[line].replace(b",", b"\xff\xfe,", 1)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    argv = ["train", "--features", str(bad), "--out", str(tmp_path / "out")]
    if names_from:
        argv += ["--names_from", str(data / "structure_planted.json")]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_build_structure_without_names_from_reads_the_features_once(
    tmp_path, monkeypatch
):
    import builtins

    features = gen_dataset(tmp_path) / "features.csv"
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(features):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run("build-structure", "--features", str(features), "--builder.k", "2",
               "--out", str(tmp_path / "built")) == 0
    assert len(opened) == 1


def test_section_seed_derivation():
    resolved = experiment_config_from_dict(
        {"seed": 3, "synthetic": dict(SYNTH)}
    )
    assert resolved.synthetic.seed == derive_seed(3, STREAM_SYNTHETIC)
    pinned = experiment_config_from_dict(
        {"seed": 3, "synthetic": dict(SYNTH, seed=7)}
    )
    assert pinned.synthetic.seed == 7
    with pytest.raises(Exception):
        experiment_config_from_dict({"split": {"fraction": 2.0}})


# -- sweep: up-front typing, one parse per source, no stale artifact ----------

@pytest.mark.parametrize("axis, values, seeds", [
    ("lambda", '0.1,"a"', "1"),
    ("lambda", "NaN", "1"),
    ("lambda", "true", "1"),
    ("lambda", "0.2", '"x"'),
    ("lambda", "0.2", "1.7"),
    ("lambda", "0.2", "false"),
    ("lambda", "0.2", "-1"),
    ("k", "2.5", "1"),
    ("attach_stage", "0.5", "1"),
])
def test_sweep_rejects_bad_values_and_seeds(tmp_path, capsys, axis, values, seeds):
    data = gen_dataset(tmp_path)
    out = tmp_path / "bad"
    raw = sweep_base(tmp_path, data, out)
    if axis == "k":
        del raw["structures"]
    config = write_config(tmp_path / "bad.json", raw)
    capsys.readouterr()
    assert run("sweep", "--config", config, "--axis", axis,
               "--values", values, "--seeds", seeds) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep ")
    assert "must be" in err
    assert err.count("\n") == 1
    assert not list(out.glob("sweep_*.csv"))
    assert not out.exists()


def test_failed_sweep_leaves_no_csv(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    out = tmp_path / "failed"
    raw = sweep_base(tmp_path, data, out)
    del raw["structures"]
    raw["model"] = dict(MODEL, attach_stages=[], epochs=1)
    config = write_config(tmp_path / "failed.json", raw)
    capsys.readouterr()
    assert run("sweep", "--config", config, "--axis", "k", "--values", "2") == 1
    assert "config expects 0 structures, got 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sweep_failing_after_written_rows_leaves_no_file(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    out = tmp_path / "late"
    raw = sweep_base(tmp_path, data, out)
    del raw["structures"]
    config = write_config(tmp_path / "late.json", raw)
    capsys.readouterr()
    # k=2 runs and streams its rows; k=9 exceeds the 4 classes and fails
    assert run("sweep", "--config", config, "--axis", "k", "--values", "2,9") == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(out.iterdir()) == []


def sweep_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {
        tuple(cells[:2]): dict(zip(header[2:], map(float, cells[2:])))
        for cells in (line.split(",") for line in lines[1:])
    }


def train_evaluate_report(tmp_path, raw, seed, lam, tag):
    """report.json of `train` then `evaluate` under one sweep run's config."""
    fit, scored = tmp_path / f"{tag}_fit", tmp_path / f"{tag}_eval"
    config = write_config(tmp_path / f"{tag}.json", dict(
        raw,
        seed=seed,
        model=dict(raw["model"], lambda_total=lam, lambda_split=None),
        checkpoint=str(fit / "model.ckpt"),
    ))
    assert run("train", "--config", config, "--out", str(fit)) == 0
    assert run("evaluate", "--config", config, "--out", str(scored)) == 0
    return json.loads((scored / "report.json").read_text())


HARD_SYNTH = dict(SYNTH, samples_per_subclass=20, superclass_separation=3.0,
                  subclass_separation=1.0, noise_scale=1.5)


@pytest.mark.parametrize("source", ["features", "synthetic"])
def test_sweep_rows_match_train_then_evaluate(tmp_path, source):
    data = gen_dataset(tmp_path)
    out = tmp_path / "swept"
    raw = sweep_base(tmp_path, data, out)
    if source == "synthetic":
        # no pinned synthetic seed: each run's master seed draws new data
        del raw["features"], raw["names_from"]
        raw["synthetic"] = HARD_SYNTH
    raw.pop("out")
    config = write_config(tmp_path / "sweep.json", raw)
    assert run("sweep", "--config", config, "--out", str(out), "--axis",
               "lambda", "--values", "0.0,0.3", "--seeds", "1,2") == 0
    rows = sweep_rows(out / "sweep_lambda.csv")
    for value, lam in (("0", 0.0), ("0.29999999999999999", 0.3)):
        for seed in (1, 2):
            report = train_evaluate_report(
                tmp_path, raw, seed, lam, f"{source}_{seed}_{value}"
            )
            row = rows[(value, str(seed))]
            assert row == {column: report[column] for column in row}
    if source == "synthetic":
        assert rows[("0", "1")] != rows[("0", "2")]


def test_features_sweep_parses_the_file_once(tmp_path, monkeypatch):
    import hierfusion.cli as cli

    calls = {"load": 0, "split": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "load_feature_table",
                        counted("load", cli.load_feature_table))
    monkeypatch.setattr(cli, "train_test_split",
                        counted("split", cli.train_test_split))
    data = gen_dataset(tmp_path)
    out = tmp_path / "once"
    config = write_config(tmp_path / "once.json", sweep_base(tmp_path, data, out))
    assert run("sweep", "--config", config, "--axis", "lambda",
               "--values", "0.0,0.2,0.4", "--seeds", "1,2") == 0
    # one split per seed: the three lambda runs of a seed share it
    assert calls == {"load": 1, "split": 2}
    assert len((out / "sweep_lambda.csv").read_text().splitlines()) == 1 + 3 * 3


def per_run_sweep_csv(raw, axis, values, seeds):
    """The sweep CSV built run by run from model.train and metrics.evaluate."""
    column = {"lambda": "lambda", "attach_stage": "stage", "k": "k"}[axis]
    lines = [f"{column},seed,accuracy,p_ha,r_ha,f_ha,tie_a,lca_a"]
    metrics = ("accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a")
    names = load_structure(raw["names_from"]).subclass_names
    table = load_feature_table(raw["features"], names)
    for value in values:
        reports = []
        for seed in seeds:
            run = dict(raw, seed=seed)
            if axis == "lambda":
                run["model"] = dict(raw["model"], lambda_total=value, lambda_split=None)
            elif axis == "attach_stage":
                run["model"] = dict(raw["model"],
                                    attach_stages=[value] * len(raw["structures"]))
            else:
                run["builder"] = dict(raw.get("builder") or {}, k=value)
            cfg = experiment_config_from_dict(run)
            train_side, test_side = train_test_split(
                table, cfg.split.fraction, cfg.split.seed
            )
            if axis == "k":
                structures = StructureSet((build_visual_structure(
                    train_side, value, cfg.builder.delta, cfg.builder.seed,
                ),))
            else:
                structures = load_structure_set(cfg.structures)
            model, _ = train(cfg.model, train_side, structures)
            batch = PredictionBatch(predicted=predict(model, test_side.features),
                                    truth=test_side.labels,
                                    subclass_names=test_side.subclass_names)
            reports.append(evaluate(structures, batch).to_dict())
        cell = format_float(value) if isinstance(value, float) else str(value)
        for seed, report in zip(seeds, reports):
            lines.append(",".join([cell, str(seed)]
                                  + [format_float(report[m]) for m in metrics]))
        mean = [sum(r[m] for r in reports) / len(reports) for m in metrics]
        lines.append(",".join([cell, "mean"] + [format_float(v) for v in mean]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("axis, values, seeds, stage_dims, stacks", [
    ("lambda", [0.0, 0.2, 0.4], [1, 2, 3], [8, 4], 1),
    ("attach_stage", [0, 1], [1, 2], [8, 4], 2),
    ("attach_stage", [0, 1], [1, 2], [8, 8], 2),  # equal shapes, other stage
    ("k", [2, 3], [1, 2], [8, 4], 2),
])
def test_sweep_csv_is_byte_identical_to_separate_runs(
    tmp_path, monkeypatch, axis, values, seeds, stage_dims, stacks
):
    calls = {"stacked": [], "train": 0}

    def stacked(configs, *args, **kwargs):
        calls["stacked"].append(len(configs))
        return train_stacked(configs, *args, **kwargs)

    def lone(*args, **kwargs):
        calls["train"] += 1
        return train(*args, **kwargs)

    # the sweep imports the trainer when it runs, so the model module's
    # names are the ones it calls
    train_stacked = model_module.train_stacked
    monkeypatch.setattr(model_module, "train_stacked", stacked)
    monkeypatch.setattr(model_module, "train", lone)
    data = gen_dataset(tmp_path)
    out = tmp_path / "stacked"
    raw = sweep_base(tmp_path, data, out)
    raw["model"] = dict(raw["model"], stage_dims=stage_dims, epochs=3)
    if axis == "k":
        del raw["structures"]  # the k sweep builds its own structure per run
    config = write_config(tmp_path / "stacked.json", raw)
    assert run("sweep", "--config", config, "--axis", axis,
               "--values", ",".join(map(str, values)),
               "--seeds", ",".join(map(str, seeds))) == 0
    assert calls == {"stacked": [len(seeds) * len(values) // stacks] * stacks,
                     "train": 0}
    expected = per_run_sweep_csv(raw, axis, values, seeds)
    assert (out / f"sweep_{axis}.csv").read_text() == expected


@pytest.mark.parametrize("axis, values, seeds, message", [
    ("lambda", "0.1,0.1", "1", "sweep lambda value 0.1 is listed twice"),
    ("lambda", "0.2,0.1,0.20", "1,2", "sweep lambda value 0.2 is listed twice"),
    ("k", "2,2.0", "1", "sweep k value 2 is listed twice"),
    ("attach_stage", "1,0,1", "1", "sweep attach_stage value 1 is listed twice"),
    ("lambda", "0.1", "1,1", "sweep seed 1 is listed twice"),
    ("lambda", "0.1,0.1", "3,2,3", "sweep lambda value 0.1 is listed twice"),
    ("k", "2", "5,1,5", "sweep seed 5 is listed twice"),
])
def test_sweep_refuses_a_repeated_value_or_seed(tmp_path, capsys, axis, values,
                                                 seeds, message):
    data = gen_dataset(tmp_path)
    out = tmp_path / "repeat"
    raw = sweep_base(tmp_path, data, out)
    if axis == "k":
        del raw["structures"]
    config = write_config(tmp_path / "repeat.json", raw)
    capsys.readouterr()
    assert run("sweep", "--config", config, "--axis", axis,
               "--values", values, "--seeds", seeds) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_names_the_run_that_diverged(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    out = tmp_path / "diverged"
    raw = sweep_base(tmp_path, data, out)
    raw["model"] = dict(raw["model"], learning_rate=1e308)
    config = write_config(tmp_path / "diverged.json", raw)
    capsys.readouterr()
    assert run("sweep", "--config", config, "--axis", "lambda",
               "--values", "0.0,0.2", "--seeds", "1,2") == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: run lambda 0, seed 1: non-finite loss at epoch "
                        r"\d+, sample \d+\n", err), err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("config_patch, flag, value, message", [
    ({}, "--split.seed", "1.7", "split seed must be an integer"),
    ({}, "--split.seed", "x", "split seed must be an integer"),
    ({}, "--split.seed", "true", "split seed must be an integer"),
    ({}, "--split.seed", "-3", "split seed must be a non-negative integer"),
    ({}, "--split.fraction", "abc", "split fraction must be a finite number"),
    ({}, "--split.fraction", "NaN", "split fraction must be a finite number"),
    ({}, "--split.fraction", "true", "split fraction must be a finite number"),
    ({"seed": "x"}, None, None, "seed must be an integer"),
    ({"seed": 1.5}, None, None, "seed must be an integer"),
    ({"seed": True}, None, None, "seed must be an integer"),
    ({"seed": -1}, None, None, "seed must be a non-negative integer"),
])
def test_master_and_split_seeds_are_typed(tmp_path, capsys, config_patch, flag,
                                          value, message):
    data = gen_dataset(tmp_path)
    out = tmp_path / "built"
    config = write_config(tmp_path / "build.json", {
        "features": str(data / "features.csv"),
        "split": {"fraction": 0.5},
        "builder": {"k": 2},
        "out": str(out),
        **config_patch,
    })
    argv = ["build-structure", "--config", config]
    if flag is not None:
        argv += [flag, value]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("gen-synthetic", "--synthetic.seed", "-1",
     "synthetic seed must be a non-negative integer"),
    ("gen-synthetic", "--synthetic.seed", "1.5", "synthetic seed must be an integer"),
    ("gen-synthetic", "--synthetic.dim", "2.5", "synthetic dim must be an integer"),
    ("gen-synthetic", "--synthetic.superclass_count", "true",
     "synthetic superclass_count must be an integer"),
    ("gen-synthetic", "--synthetic.noise_scale", "abc",
     "synthetic noise_scale must be a finite number"),
    ("gen-synthetic", "--synthetic.subclass_separation", "NaN",
     "synthetic subclass_separation must be a finite number"),
    ("gen-synthetic", "--synthetic", "3", "'synthetic' must be an object"),
    ("train", "--model.seed", "-1", "model seed must be a non-negative integer"),
    ("train", "--model.seed", "1.5", "model seed must be an integer"),
    ("train", "--model.lambda_total", "abc",
     "model lambda_total must be a finite number"),
    ("train", "--model.stage_dims", "3", "model stage_dims must be a list"),
    ("train", "--model.stage_dims", "[8, 2.5]",
     "model stage_dims entry must be an integer"),
    ("train", "--model.attach_stages", "[true]",
     "model attach_stages entry must be an integer"),
    ("train", "--model.lambda_split", "[\"x\"]",
     "model lambda_split entry must be a finite number"),
    ("train", "--model.learning_rate", "Infinity",
     "model learning_rate must be a finite number"),
    ("train", "--model.epochs", "null", "model epochs must be an integer"),
    ("train", "--model.batch_size", "\"8\"", "model batch_size must be an integer"),
    ("train", "--model", "[1]", "'model' must be an object"),
    ("evaluate", "--checkpoint", "7", "'checkpoint' must be a file path"),
    ("evaluate", "--checkpoint", "0", "'checkpoint' must be a file path"),
    ("evaluate", "--checkpoint", "[\"a.ckpt\"]", "'checkpoint' must be a file path"),
    ("train", "--names_from", "5", "'names_from' must be a file path"),
    ("train", "--names_from", "[\"s.json\"]", "'names_from' must be a file path"),
])
def test_synthetic_and_model_fields_are_typed(tmp_path, capsys, command, flag,
                                              value, message):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "synthetic": SYNTH,
        "model": MODEL,
        "out": str(out),
    })
    capsys.readouterr()
    assert run(command, "--config", config, flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


HUGE = str(10**20)  # past np.intp's range: numpy cannot index the array


@pytest.mark.parametrize("command, flags, message", [
    ("gen-synthetic", ["--synthetic.dim", HUGE],
     f"2000 samples of dim {HUGE} over 4 superclasses are too many"),
    ("gen-synthetic", ["--synthetic.samples_per_subclass", HUGE],
     f"{20 * 10**20} samples of dim 16 over 4 superclasses are too many"),
    ("gen-synthetic", ["--synthetic.superclass_count", HUGE],
     f"{5 * 10**22} samples of dim 16 over {HUGE} superclasses are too many"),
    ("train", ["--model.stage_dims", f"[4, {HUGE}]"],
     f"stage_dims: a 4 x {HUGE} weight matrix is too large"),
    ("train", ["--model.epochs", HUGE], f"epochs: {HUGE} epochs of history"),
    ("sweep", ["--model.epochs", HUGE, "--seeds", "1"],
     f"epochs: {HUGE} epochs of history"),
    # one run's history fits np.intp's range, a stack of two does not
    ("sweep", ["--model.epochs", str(10**18), "--seeds", "1,2"],
     f"epochs: {10**18} epochs of history"),
], ids=["synthetic-dim", "synthetic-samples", "synthetic-superclasses",
        "train-stage-dims", "train-epochs", "sweep-epochs", "sweep-stack-epochs"])
def test_an_oversized_size_is_one_error_line(tmp_path, capsys, command, flags,
                                             message):
    out = tmp_path / "out"
    if command == "gen-synthetic":
        argv = [command, "--out", str(out)]
    else:
        data = gen_dataset(tmp_path)
        config = write_config(tmp_path / "c.json", sweep_base(tmp_path, data, out))
        argv = [command, "--config", config]
        if command == "sweep":
            argv += ["--axis", "lambda", "--values", "0.2"]
    capsys.readouterr()
    assert run(*argv, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_an_oversized_size_is_the_error_of_its_value():
    with pytest.raises(InvalidSpec, match="too many for a numpy array"):
        SyntheticSpec(dim=10**20)
    table = generate_synthetic(SyntheticSpec(**SYNTH))[0]
    with pytest.raises(InvalidConfig, match="^stage_dims: a 6 x "):
        train(FusionConfig(stage_dims=(10**20, 2)), table, StructureSet(()))
    with pytest.raises(InvalidConfig, match="^epochs: "):
        train(FusionConfig(epochs=10**20), table, StructureSet(()))


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"),
     "Unable to allocate 8.00 EiB for an array"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command, callee", [
    ("gen-synthetic", "generate_synthetic"),
    ("build-structure", "build_visual_structure"),
    ("train", "train"),
])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, command,
                                        callee, error, message):
    def fail(*args, **kwargs):
        raise error

    # train imports the trainer when it runs, so its callee is model's
    owner = model_module if command == "train" else cli_module
    monkeypatch.setattr(owner, callee, fail)
    config = write_config(tmp_path / "c.json", {
        "synthetic": SYNTH,
        "builder": {"k": 2},
        "model": MODEL,
        "out": str(tmp_path / "out"),
    })
    assert run(command, "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_float_model_fields_keep_checkpoint_bytes(tmp_path):
    data = gen_dataset(tmp_path)
    ckpts = []
    for tag, model in (("int", MODEL), ("float", dict(MODEL, epochs=3.0,
                                                       stage_dims=[8.0, 4]))):
        out = tmp_path / tag
        config = write_config(tmp_path / f"{tag}.json", {
            "features": str(data / "features.csv"),
            "model": model,
            "out": str(out),
        })
        assert run("train", "--config", config) == 0
        ckpts.append((out / "model.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]


@pytest.mark.parametrize("split, message", [
    ({"fraction": 0.5}, "empty table has no rows to split"),
    (None, "empty table has no rows to train on"),
])
def test_train_on_a_header_only_csv_is_a_typed_error(tmp_path, capsys, split,
                                                     message):
    data = gen_dataset(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("label,f0,f1,f2,f3,f4,f5\n")
    config = write_config(tmp_path / "c.json", {
        "features": str(empty),
        "names_from": str(data / "structure_planted.json"),
        "split": split,
        "model": MODEL,
        "out": str(tmp_path / "out"),
    })
    capsys.readouterr()
    assert run("train", "--config", config) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("names_from", [False, True], ids=["inferred", "names-from"])
@pytest.mark.parametrize("command", ["build-structure", "train"])
def test_a_header_only_csv_is_one_error_line(tmp_path, capsys, command, names_from):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,f0,f1,f2,f3,f4,f5\n")
    argv = [command, "--features", str(empty), "--builder.k", "2",
            "--out", str(tmp_path / "out")]
    if names_from:
        data = gen_dataset(tmp_path)
        argv += ["--names_from", str(data / "structure_planted.json")]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- malformed checkpoints and structure files are typed errors ---------------

def _with_header(blob: bytes, edit) -> bytes:
    """`blob`, a checkpoint, with its JSON header replaced by edit(header)
    and its closing SHA-256 that of the edited bytes, so that only the
    header's own checks can refuse it."""
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    header = edit(json.loads(blob[start:start + length]))
    text = json.dumps(header).encode("utf-8")
    body = (CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text
            + blob[start + length:-32])
    return body + hashlib.sha256(body).digest()


def _set(path, value):
    """A header edit that sets the field at `path` (keys and indices)."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda header: list(header),
    _set(("tensors", 0, "shape"), ["a", 2]),
    _set(("tensors", 0, "shape"), 5),
    _set(("tensors", 0, "shape"), [-6, -4]),
    _set(("tensors", 0, "shape"), [10**12, 10**12]),
    _set(("tensors",), {"name": "trunk.0.weight"}),
    _set(("attach_stages",), 3),
    _set(("subclass_names",), "abcd"),
    _set(("config", "epochs"), "x"),
    _set(("config", "stage_dims"), 5),
    _set(("config", "lambda_total"), "a"),
    _set(("config",), [1]),
    _set(("input_dim",), 4),
    _set(("subclass_count",), 5),
    _set(("superclass_counts",), [3]),
    _set(("config", "attach_stages"), [1]),
    _set(("config", "stage_dims"), [5, 3]),
], ids=["list", "shape-strings", "shape-int", "shape-negative",
        "shape-huge", "tensors-object", "attach-int", "names-string", "epochs-string",
        "stage-dims-int", "lambda-string", "config-list", "input-dim",
        "subclass-count", "superclass-counts", "config-attach-stages",
        "config-stage-dims"])
def test_malformed_checkpoint_headers_are_typed_errors(tmp_path, capsys, edit):
    config = FusionConfig(stage_dims=(4, 3), attach_stages=(0,),
                          lambda_total=0.1, epochs=1)
    structure = validate_structure("s", ["u", "v"], ["a", "b", "c", "d"],
                                   {"a": "u", "b": "u", "c": "v", "d": "v"})
    model = init_model(config, StructureSet((structure,)), 3,
                       structure.subclass_names)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, config, path)
    path.write_bytes(_with_header(path.read_bytes(), edit))
    with pytest.raises(CheckpointError, match=r"model\.ckpt: "):
        load_checkpoint(path)
    capsys.readouterr()
    assert run("evaluate", "--checkpoint", str(path),
               "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_structure_names_that_break_history_cells_are_refused(tmp_path, capsys):
    # a structure name is a history.csv header cell: "h,1" would write six
    # header cells over five data columns
    path = write_config(tmp_path / "structure.json", {
        "name": "h,1", "superclasses": ["u", "v"],
        "subclasses": ["c0", "c1", "c2", "c3"],
        "parent_of": {"c0": "u", "c1": "u", "c2": "v", "c3": "v"}})
    with pytest.raises(StructureError, match="'h,1' is not a name"):
        load_structure(path)
    out = tmp_path / "out"
    assert run("train", "--synthetic", json.dumps(SYNTH), "--structures", f'["{path}"]',
               "--model.attach_stages", "[0]", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "history.csv").exists()


def test_evaluate_refuses_structures_over_other_names(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--config", train_config(tmp_path, data, run_dir)) == 0
    renamed = write_config(tmp_path / "renamed.json", {
        "name": "r", "superclasses": ["u"], "subclasses": ["w", "x", "y", "z"],
        "parent_of": {"w": "u", "x": "u", "y": "u", "z": "u"}})
    capsys.readouterr()
    assert run("evaluate", "--features", str(data / "features.csv"),
               "--structures", f'["{renamed}"]',
               "--checkpoint", str(run_dir / "model.ckpt"),
               "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err
    assert err == ("error: predictions and structures disagree on the subclass "
                   "name table\n")
    assert not (tmp_path / "eval" / "predictions.csv").exists()


@pytest.mark.parametrize("raw", [
    ["name", "superclasses"],
    {"name": "s", "superclasses": 3, "subclasses": ["x", "y"],
     "parent_of": {"x": "u", "y": "u"}},
    {"name": "s", "superclasses": ["u"], "subclasses": "xy",
     "parent_of": {"x": "u", "y": "u"}},
    {"name": 5, "superclasses": ["u"], "subclasses": ["x", "y"],
     "parent_of": {"x": "u", "y": "u"}},
    {"name": "s", "superclasses": ["u", 1], "subclasses": ["x", "y"],
     "parent_of": {"x": "u", "y": 1}},
    {"name": "s", "superclasses": ["u"], "subclasses": ["x", "y"],
     "parent_of": [["x", "u"], ["y", "u"]]},
], ids=["list", "superclasses-int", "subclasses-string", "name-int",
        "superclass-int-entry", "parent-of-list"])
def test_malformed_structure_files_are_typed_errors(tmp_path, capsys, raw):
    path = write_config(tmp_path / "structure.json", raw)
    with pytest.raises(StructureError, match="structure"):
        load_structure(path)
    capsys.readouterr()
    assert run("train", "--synthetic.dim", "3", "--structures", f'["{path}"]',
               "--model.attach_stages", "[0]", "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_STRUCTURE_TEXT = ('{"name": "s", "superclasses": ["u", "v"], '
                   '"subclasses": ["a", "b", "c"], '
                   '"parent_of": {"a": "u", "b": "v", "c": "u"}}')


@pytest.mark.parametrize("source, key, repeat", [
    ("structure", "a", ('"a": "u"', '"a": "u", "a": "v"')),
    ("structure", "name", ('"name": "s"', '"name": "s", "name": "t"')),
    ("config", "seed", None),
    ("flag", "dim", None),
], ids=["structure-parent", "structure-name", "config", "flag"])
def test_a_duplicate_json_key_is_one_error_line_naming_it(tmp_path, capsys, source,
                                                          key, repeat):
    # json.loads would keep the last value of a repeated key
    structure = tmp_path / "structure.json"
    structure.write_text(_STRUCTURE_TEXT.replace(*repeat) if repeat else _STRUCTURE_TEXT)
    argv = ["train", "--synthetic.superclass_count", "1",
            "--synthetic.subclasses_per_superclass", "3",
            "--structures", f'["{structure}"]', "--model.attach_stages", "[0]",
            "--out", str(tmp_path / "out")]
    if source == "structure":
        with pytest.raises(StructureError, match=f"structure.json: duplicate key '{key}'"):
            load_structure(structure)
    elif source == "config":
        config = tmp_path / "run.json"
        config.write_text('{"seed": 1, "seed": 2}')
        argv += ["--config", str(config)]
    else:
        argv += ["--synthetic", '{"dim": 3, "dim": 4}']
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"duplicate key '{key}'" in err
    assert not (tmp_path / "out" / "model.ckpt").exists()


# -- every artifact is written atomically ---------------------------------------

def _fail(*args, **kwargs):
    raise OSError("no space left on device")


class _OneWrite:
    """A byte handle that takes the frame head, then fails on the tensors."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.write = _fail
        return self.fh.write(data)


def _write_checkpoint(path, monkeypatch):
    config = FusionConfig(stage_dims=(4, 3), epochs=1)
    model = init_model(config, StructureSet(()), 2, ("c0", "c1"))
    real_writer = serialization_module.atomic_text_writer

    @contextlib.contextmanager
    def full_disk_writer(target, *, binary):
        with real_writer(target, binary=binary) as fh:
            yield _OneWrite(fh)

    # save_frame writes the checkpoint
    monkeypatch.setattr(serialization_module, "atomic_text_writer", full_disk_writer)
    save_checkpoint(model, config, path)


class _FullDisk:
    """A text handle that takes the header, then fails on the rows."""

    def __init__(self, fh):
        self.write = fh.write

    def writelines(self, lines):
        _fail()


def _write_history(path, monkeypatch):
    # the header is written inside the atomic writer; the rows fail
    history = TrainHistory(total_loss=[1.0], subclass_loss=[1.0],
                           super_losses=np.zeros((1, 0)), train_accuracy=[0.5],
                           structure_names=())
    real_writer = model_module.atomic_text_writer

    @contextlib.contextmanager
    def full_disk_writer(target):
        with real_writer(target) as fh:
            yield _FullDisk(fh)

    monkeypatch.setattr(model_module, "atomic_text_writer", full_disk_writer)
    save_history(history, path)


class _Unwritable(str):
    """A name whose text cannot be formatted into a row."""

    def __str__(self):
        raise OSError("no space left on device")


def _write_predictions(path, monkeypatch):
    # the header is written; the first row fails
    save_predictions(PredictionBatch([0, 1], [0, 0], (_Unwritable("a"), "b")), path)


def _write_predictions_midway(path, monkeypatch):
    # the header and the first row are written; the second row fails
    save_predictions(PredictionBatch([0, 1], [0, 0], ("a", _Unwritable("b"))), path)


def _write_structure(path, monkeypatch):
    structure = LabelStructure(name="s", superclasses=("u",), subclass_names=("x",),
                               parent_index=np.zeros(1, dtype=np.int64))
    monkeypatch.setattr(taxonomy_module, "dump_json", _fail)
    save_structure(structure, path)


@pytest.mark.parametrize("write", [_write_checkpoint, _write_history,
                                   _write_predictions, _write_predictions_midway,
                                   _write_structure])
def test_failed_artifact_write_leaves_no_file(tmp_path, monkeypatch, write):
    with pytest.raises(OSError, match="no space left on device"):
        write(tmp_path / "artifact", monkeypatch)
    assert list(tmp_path.iterdir()) == []


# -- the feature codec in row ranges ----------------------------------------------

def _pipeline_digests(tmp_path, tag):
    """{relative path: sha256} of every file gen-synthetic -> train ->
    evaluate writes under one root, hidden files included.

    The features' binary twin is hashed and deleted once gen-synthetic has
    written it, so train and evaluate parse the CSV itself."""
    root = tmp_path / tag
    data = root / "data"
    twin = data / ".features.csv.table"
    base = {"seed": 4, "features": str(data / "features.csv"),
            "names_from": str(data / "structure_planted.json"),
            "structures": [str(data / "structure_planted.json")],
            "split": {"fraction": 0.75}, "model": dict(MODEL, attach_stages=[0])}
    steps = [
        ("gen-synthetic", {"seed": 4, "synthetic": SYNTH, "out": str(data)}),
        ("train", dict(base, out=str(root / "fit"))),
        ("evaluate", dict(base, out=str(root / "scored"),
                          checkpoint=str(root / "fit" / "model.ckpt"))),
    ]
    for command, raw in steps:
        config = write_config(tmp_path / f"{tag}_{command}.json", raw)
        assert run(command, "--config", config) == 0
        if command == "gen-synthetic":
            twin_digest = hashlib.sha256(twin.read_bytes()).hexdigest()
            twin.unlink()
    digests = {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(root.rglob("*")) if path.is_file()}
    digests[str(twin.relative_to(root))] = twin_digest
    return digests


def test_a_rerun_over_a_killed_runs_leftovers_writes_a_clean_runs_bytes(tmp_path):
    # a killed write leaves its hidden .partial file; the next run overwrites it
    def gen_and_train(root, leftovers):
        data, fit = root / "data", root / "fit"
        for path in leftovers:
            path = root / path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"junk from a killed run")
        assert run("gen-synthetic", "--seed", "2", "--out", str(data),
                   "--synthetic", json.dumps(SYNTH)) == 0
        assert run("train", "--seed", "2", "--features", str(data / "features.csv"),
                   "--model", json.dumps(MODEL), "--out", str(fit)) == 0
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    clean = gen_and_train(tmp_path / "clean", [])
    rerun = gen_and_train(tmp_path / "rerun", ["data/.features.csv.partial",
                                               "data/..features.csv.table.partial",
                                               "fit/.model.ckpt.partial"])
    assert rerun == clean
    assert not any(name.endswith(".partial") for name in rerun)


def test_pipeline_artifacts_are_the_same_in_many_ranges_or_one(tmp_path):
    with many_ranges() as forks:
        ranged = _pipeline_digests(tmp_path, "ranged")
    assert forks
    single = one_range(lambda: _pipeline_digests(tmp_path, "single"))
    assert len(single) == 7
    assert ranged == single


# -- loads of a file the toolkit wrote ---------------------------------------------

def test_no_command_parses_the_text_of_a_file_gen_synthetic_wrote(tmp_path):
    # the file's binary twin serves every load
    data = tmp_path / "data"
    gen = write_config(tmp_path / "gen.json",
                       {"seed": 0, "synthetic": SYNTH, "out": str(data)})
    fit = tmp_path / "fit"
    config = write_config(tmp_path / "run.json", dict(
        sweep_base(tmp_path, data, tmp_path / "sweep"),
        checkpoint=str(fit / "model.ckpt")))
    with parser_calls() as calls:
        assert run("gen-synthetic", "--config", gen) == 0
        assert run("build-structure", "--features", str(data / "features.csv"),
                   "--builder.k", "2", "--out", str(tmp_path / "built")) == 0
        assert run("train", "--config", config, "--out", str(fit)) == 0
        assert run("evaluate", "--config", config, "--out", str(tmp_path / "scored")) == 0
        assert run("sweep", "--config", config, "--axis", "lambda",
                   "--values", "0.0,0.2", "--seeds", "1") == 0
    assert calls == []
    assert (tmp_path / "sweep" / "sweep_lambda.csv").is_file()
