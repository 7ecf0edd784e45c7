"""Acceptance checks for the shipped guarantees.

Each test covers one guarantee end to end, prints a single PASS/FAIL
line with the measured numbers, and asserts the stated tolerance and
runtime budget. Tolerances here are contractual; do not loosen them to
make a failing build green.
"""

import json
import time

import numpy as np

from hierfusion.cli import main
from hierfusion.features import (
    FeatureTable,
    SyntheticSpec,
    generate_synthetic,
    load_feature_table,
    save_feature_table,
    train_test_split,
)
from hierfusion.metrics import PredictionBatch, evaluate
from hierfusion.model import (
    FusionConfig,
    gradient_check,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from hierfusion.structure_builder import (
    adjusted_rand_index,
    affinity_matrix,
    build_visual_structure,
    symmetric_eigen,
)
from hierfusion.taxonomy import (
    LabelStructure,
    StructureSet,
    load_structure,
    save_structure,
)
from oracles import (
    class_distance,
    random_structure,
    squaring_eigensystem,
    tree_walk_report,
)

from test_structure_builder import stats_for


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"acceptance {number}/9 {'PASS' if ok else 'FAIL'}: {detail}")


# -- 1: fixed-depth identities and reference value pairs ----------------------

def test_01_metric_identities(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(20240816)
    pool = {
        n: [random_structure(rng, n, name=f"h{n}_{i}") for i in range(30)]
        for n in (4, 6, 8)
    }
    worst_f = 0.0
    worst_tie = 0.0
    for it in range(100_000):
        n = (4, 6, 8)[it % 3]
        members = pool[n]
        count = 1 + it % 3
        picks = rng.integers(0, len(members), size=count)
        structures = StructureSet(tuple(members[j] for j in picks))
        size = int(rng.integers(1, 13))
        batch = PredictionBatch(
            predicted=rng.integers(0, n, size=size),
            truth=rng.integers(0, n, size=size),
            subclass_names=structures.subclass_names,
        )
        rep = evaluate(structures, batch)
        worst_f = max(worst_f, abs(rep.f_ha - (1.0 - rep.tie_a / 6.0)))
        worst_tie = max(worst_tie, abs(rep.tie_a - 2.0 * rep.lca_a))

    # tie/F pairs on the percent scale that must reconcile through the
    # same identity (reference values rounded to two decimals)
    pairs = ((0.9015, 84.97), (0.7114, 88.14), (0.4979, 91.70), (0.4274, 92.88))
    worst_pair = max(
        abs(100.0 * (1.0 - tie / 6.0) - f_pct) for tie, f_pct in pairs
    )
    elapsed = time.perf_counter() - started

    ok = (worst_f < 1e-12 and worst_tie < 1e-12
          and worst_pair <= 0.005 + 1e-9 and elapsed < 30.0)
    report(capsys, 1, ok,
           f"identities on 100000 random batches: |f-(1-tie/6)| "
           f"{worst_f:.2e}, |tie-2*lca| {worst_tie:.2e}, reference pairs "
           f"off by {worst_pair:.4f} pct, {elapsed:.1f}s")
    assert worst_f < 1e-12
    assert worst_tie < 1e-12
    assert worst_pair <= 0.005 + 1e-9
    assert elapsed < 30.0


# -- 2: agreement with the tree-walk reference --------------------------------

def test_02_tree_walk_oracle_agreement(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        count = int(rng.integers(1, 4))
        structures = StructureSet(tuple(
            random_structure(rng, n, name=f"h{j}") for j in range(count)
        ))
        size = int(rng.integers(1, 51))
        batch = PredictionBatch(
            predicted=rng.integers(0, n, size=size),
            truth=rng.integers(0, n, size=size),
            subclass_names=structures.subclass_names,
        )
        rep = evaluate(structures, batch)
        ref = tree_walk_report(structures, batch.predicted, batch.truth)
        for key in ("accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a"):
            worst = max(worst, abs(getattr(rep, key) - ref[key]))
        for ours, theirs in zip(rep.per_structure, ref["per_structure"]):
            for key in ("p_h", "r_h", "f_h", "tie", "lca"):
                worst = max(worst, abs(getattr(ours, key) - theirs[key]))
    elapsed = time.perf_counter() - started

    ok = worst < 1e-12 and elapsed < 10.0
    report(capsys, 2, ok,
           f"tree-walk oracle, 1000 cases (n<=50, N<=10, M<=3): "
           f"max deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


# -- 3: distance and affinity unit values --------------------------------------

def test_03_distance_affinity_hand_values(capsys):
    worst = 0.0

    worst = max(worst, abs(class_distance([0.0], 0.0, [0.0], 0.0)))
    worst = max(worst, abs(class_distance([0.0], 0.0, [2.0], 0.0) - 2.0))
    worst = max(worst,
                abs(class_distance([0.0], 1.0, [2.0], 1.0) - np.sqrt(6.0)))

    flat = affinity_matrix(stats_for([[0.0], [2.0]], [0.0, 0.0]))
    worst = max(worst, abs(flat.values[0, 1] - np.exp(-2.0)))
    spread = affinity_matrix(stats_for([[0.0], [2.0]], [1.0, 1.0]))
    worst = max(worst, abs(spread.values[0, 1] - np.exp(-np.sqrt(6.0))))
    worst = max(worst, abs(flat.values[0, 0]), abs(spread.values[1, 1]))

    ok = worst < 1e-12
    report(capsys, 3, ok,
           f"distance/affinity hand values (2, sqrt6, exp(-2), "
           f"exp(-sqrt6), zero diagonal): max deviation {worst:.2e}")
    assert worst < 1e-12


# -- 4: planted partition recovery ---------------------------------------------

def test_04_planted_partition_recovery(capsys):
    started = time.perf_counter()
    perfect = 0
    for seed in range(10):
        spec = SyntheticSpec(
            superclass_count=4, subclasses_per_superclass=5,
            samples_per_subclass=100, dim=16, superclass_separation=10.0,
            subclass_separation=3.0, noise_scale=1.0, seed=seed,
        )
        table, planted = generate_synthetic(spec)
        built = build_visual_structure(table, 4, 1.0, seed)
        ari = adjusted_rand_index(built.parent_index, planted.parent_index)
        perfect += ari == 1.0
    elapsed = time.perf_counter() - started

    ok = perfect >= 9 and elapsed < 60.0
    report(capsys, 4, ok,
           f"planted 4x5 partition recovered exactly on {perfect}/10 seeds "
           f"(need >= 9), {elapsed:.1f}s")
    assert perfect >= 9
    assert elapsed < 60.0


# -- 5: eigensolver against the squaring oracle --------------------------------

def test_05_eigensolver_vs_oracle(capsys):
    rng = np.random.default_rng(11)
    worst_residual = 0.0
    worst_value = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        raw = rng.normal(size=(n, n))
        matrix = (raw + raw.T) / 2.0
        values, vectors = symmetric_eigen(matrix)
        residual = matrix @ vectors - vectors * values
        worst_residual = max(
            worst_residual, float(np.linalg.norm(residual, axis=0).max())
        )
        ref_values, _ = squaring_eigensystem(matrix)
        worst_value = max(worst_value, float(np.abs(values - ref_values).max()))

    ok = worst_residual <= 1e-8 and worst_value <= 1e-8
    report(capsys, 5, ok,
           f"eigensolver, 100 random symmetric matrices (N<=20): "
           f"max residual {worst_residual:.2e}, max eigenvalue gap vs "
           f"squaring oracle {worst_value:.2e}")
    assert worst_residual <= 1e-8
    assert worst_value <= 1e-8


# -- 6: analytic gradients across the head/weight matrix -----------------------

PARTITIONS = (
    (("left", "right"), (0, 0, 1, 1)),
    (("even", "odd"), (0, 1, 0, 1)),
    (("one", "rest"), (0, 1, 1, 1)),
)


def grid_structure(index):
    superclasses, parents = PARTITIONS[index]
    return LabelStructure(
        name=f"g{index}",
        superclasses=superclasses,
        subclass_names=("c0", "c1", "c2", "c3"),
        parent_index=np.array(parents),
    )


def test_06_gradient_check_matrix(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    features = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    table = FeatureTable(features, labels, ("c0", "c1", "c2", "c3"))
    worst = 0.0
    combos = 0
    for count in range(4):
        structures = StructureSet(tuple(grid_structure(i) for i in range(count)))
        lambdas = (0.0,) if count == 0 else (0.0, 0.1, 0.5)
        stages = ((),) if count == 0 else ((0,) * count, (1,) * count)
        for lam in lambdas:
            for attach in stages:
                config = FusionConfig(
                    stage_dims=(6, 5), attach_stages=attach,
                    lambda_total=lam, seed=17,
                )
                model = init_model(config, structures, 4, ("c0", "c1", "c2", "c3"))
                err = gradient_check(model, table, structures, config)
                worst = max(worst, err)
                combos += 1
    elapsed = time.perf_counter() - started

    ok = worst < 1e-6 and elapsed < 60.0
    report(capsys, 6, ok,
           f"gradient check over {combos} configs (M 0..3, lambda 0/0.1/0.5, "
           f"attach stage 0 and 1): max relative error {worst:.2e}, "
           f"{elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


# -- 7: benchmark ordering of the three training modes -------------------------

BENCH_SPEC = dict(
    superclass_count=4, subclasses_per_superclass=5, samples_per_subclass=60,
    dim=16, superclass_separation=10.0, subclass_separation=3.0,
    noise_scale=1.0,
)
BENCH_MODEL = dict(stage_dims=(16, 8), learning_rate=9.5, epochs=200,
                   batch_size=960)


def bench_arm(train_side, test_side, planted, structures, lam, attach, seed):
    config = FusionConfig(attach_stages=attach, lambda_total=lam, seed=seed,
                          **BENCH_MODEL)
    model, _ = train(config, train_side, structures)
    score_set = structures if len(structures) else StructureSet((planted,))
    rep = evaluate(score_set, PredictionBatch(
        predicted=predict(model, test_side.features), truth=test_side.labels,
        subclass_names=test_side.subclass_names,
    ))
    return rep.accuracy, rep.tie_a


def test_07_benchmark_ordering(capsys):
    started = time.perf_counter()
    rows = []
    for seed in range(5):
        table, planted = generate_synthetic(
            SyntheticSpec(seed=seed, **BENCH_SPEC))
        train_side, test_side = train_test_split(table, 0.8, seed=seed)
        visual = build_visual_structure(train_side, 4, 1.0, seed)
        args = (train_side, test_side, planted)
        rows.append((
            bench_arm(*args, StructureSet(()), 0.0, (), seed),
            bench_arm(*args, StructureSet((planted,)), 0.4, (0,), seed),
            bench_arm(*args, StructureSet((planted, visual)), 0.4, (0, 0),
                      seed),
        ))
    arr = np.array(rows)  # (seed, arm, metric) with arms base/one/two
    acc = arr[:, :, 0].mean(axis=0)
    tie = arr[:, :, 1].mean(axis=0)
    elapsed = time.perf_counter() - started

    ok = (acc[1] >= acc[0] + 0.005
          and acc[2] >= acc[1] - 0.005
          and tie[1] < tie[0] and tie[2] < tie[0]
          and elapsed < 300.0)
    report(capsys, 7, ok,
           f"benchmark means over 5 seeds: accuracy "
           f"{acc[0] * 100:.2f}/{acc[1] * 100:.2f}/{acc[2] * 100:.2f} pct "
           f"(none/one/two structures), tie {tie[0]:.4f}/{tie[1]:.4f}/"
           f"{tie[2]:.4f}, {elapsed:.1f}s")
    assert acc[1] >= acc[0] + 0.005, "one structure must beat the flat baseline"
    assert acc[2] >= acc[1] - 0.005, "second structure must not cost accuracy"
    assert tie[1] < tie[0] and tie[2] < tie[0], "tie must strictly improve"
    assert elapsed < 300.0


# -- 8: byte-identical command-line reruns --------------------------------------

CLI_SYNTH = {
    "superclass_count": 2, "subclasses_per_superclass": 2,
    "samples_per_subclass": 12, "dim": 4, "superclass_separation": 8.0,
    "subclass_separation": 2.0, "noise_scale": 0.5,
}
CLI_MODEL = {"stage_dims": [8, 4], "learning_rate": 0.2, "epochs": 3,
             "batch_size": 16, "attach_stages": [0], "lambda_total": 0.2}


def run_all_commands(tmp_path, tag):
    """Run every command into fresh directories; return {relative: bytes}."""
    root = tmp_path / tag
    data = root / "data"
    built = root / "built"
    fit = root / "fit"
    scored = root / "scored"
    swept = root / "swept"

    def config(name, raw):
        path = tmp_path / f"{tag}_{name}.json"
        path.write_text(json.dumps(raw, indent=2) + "\n")
        return str(path)

    base = {
        "seed": 4,
        "features": str(data / "features.csv"),
        "names_from": str(data / "structure_planted.json"),
        "structures": [str(data / "structure_planted.json")],
        "split": {"fraction": 0.75},
        "model": CLI_MODEL,
    }
    steps = [
        ("gen-synthetic", config("gen", {"seed": 4, "synthetic": CLI_SYNTH,
                                         "out": str(data)})),
        ("build-structure", config("build", dict(base, builder={"k": 2},
                                                 out=str(built)))),
        ("train", config("train", dict(base, out=str(fit)))),
        ("evaluate", config("eval", dict(base, out=str(scored),
                                         checkpoint=str(fit / "model.ckpt")))),
    ]
    for command, path in steps:
        assert main([command, "--config", path]) == 0
    sweep_cfg = config("sweep", dict(base, out=str(swept)))
    assert main(["sweep", "--config", sweep_cfg, "--axis", "lambda",
                 "--values", "0.0,0.2", "--seeds", "4"]) == 0

    artifacts = {}
    for directory in (data, built, fit, scored, swept):
        for file in sorted(directory.iterdir()):
            artifacts[f"{directory.name}/{file.name}"] = file.read_bytes()
    return artifacts


def test_08_cli_reruns_byte_identical(tmp_path, capsys):
    first = run_all_commands(tmp_path, "first")
    second = run_all_commands(tmp_path, "second")
    same_names = sorted(first) == sorted(second)
    diffs = [name for name in first if first[name] != second.get(name)]

    ok = same_names and not diffs and len(first) >= 7
    report(capsys, 8, ok,
           f"all 5 commands rerun: {len(first)} artifacts, "
           f"{'all byte-identical' if not diffs else 'DIFFER: ' + ', '.join(diffs)}")
    assert same_names
    assert diffs == []
    assert len(first) >= 7


# -- 9: serialization round-trips -----------------------------------------------

def test_09_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(5)

    structure = random_structure(rng, 7, name="round")
    save_structure(structure, tmp_path / "s.json")
    structure_ok = load_structure(tmp_path / "s.json") == structure

    table = FeatureTable(
        features=rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-8, 9, (40, 5)),
        labels=rng.integers(0, 7, size=40),
        subclass_names=structure.subclass_names,
    )
    save_feature_table(table, tmp_path / "f.csv")
    loaded = load_feature_table(tmp_path / "f.csv", structure.subclass_names)
    table_ok = (np.array_equal(loaded.features, table.features)
                and np.array_equal(loaded.labels, table.labels))

    spec = SyntheticSpec(superclass_count=2, subclasses_per_superclass=2,
                         samples_per_subclass=10, dim=3,
                         superclass_separation=6.0, subclass_separation=2.0,
                         noise_scale=0.5, seed=2)
    data, planted = generate_synthetic(spec)
    config = FusionConfig(stage_dims=(6, 4), attach_stages=(0,),
                          lambda_total=0.3, epochs=4, batch_size=8, seed=2)
    model, _ = train(config, data, StructureSet((planted,)))
    save_checkpoint(model, config, tmp_path / "m.ckpt")
    restored, restored_config = load_checkpoint(tmp_path / "m.ckpt")
    tensors = lambda m: (
        list(m.trunk_weights) + list(m.trunk_biases)
        + [m.subclass_weight, m.subclass_bias]
        + list(m.super_weights) + list(m.super_biases)
    )
    model_ok = (
        restored_config == config
        and all(np.array_equal(a, b)
                for a, b in zip(tensors(model), tensors(restored)))
        and restored.subclass_names == model.subclass_names
        and restored.structure_names == model.structure_names
        and restored.attach_stages == model.attach_stages
    )

    ok = structure_ok and table_ok and model_ok
    report(capsys, 9, ok,
           f"round-trips bit-exact: structure {structure_ok}, "
           f"feature table {table_ok}, checkpoint {model_ok}")
    assert structure_ok
    assert table_ok
    assert model_ok
