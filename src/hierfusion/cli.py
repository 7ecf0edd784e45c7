"""Command-line pipeline harness.

Subcommands: ``gen-synthetic`` (write a feature file plus the planted
structure), ``build-structure`` (induce a visual structure from features),
``train`` (fit the multi-task model, write checkpoint and history),
``evaluate`` (score a checkpoint, write the report), and ``sweep`` (train
and evaluate across one axis of values and several seeds).

One JSON config document drives everything. Its top-level fields and each
of its sections (``synthetic``, ``split``, ``builder``, ``model``,
``sweep``) are typed by the converters their dataclasses declare on each
field (see config.py), so an unknown field or a value of the wrong type
anywhere is InvalidConfig naming the field. Any
field can be overridden on the command line by a flag of the same dotted
name, e.g. ``--model.lambda_total 0.3`` or ``--builder.k 5``; ``--seed``,
``--out`` and the sweep's ``--axis``, ``--values`` and ``--seeds`` set
their fields the same way. Section seeds left null derive
deterministically from the master seed, one fixed stream per section, so a
single ``--seed`` reseeds the whole pipeline coherently. A malformed
command line is InvalidConfig too, one ``error:`` line like any bad input.

Only ``train``, ``evaluate`` and ``sweep`` run the trainer, so only they
import `hierfusion.model`, when they run; ``gen-synthetic`` and
``build-structure`` never load it.

Every command is deterministic given its config: rerunning writes
byte-identical artifacts. Diagnostics go to stderr; files carry the data;
the exit code is 0 exactly when no error occurred.

A process ends through `entry`, both as ``python -m hierfusion.cli`` and
as the ``hierfusion`` console script: it runs `main`, freezes the garbage
collector (``gc.freeze``) and exits with main's code, so the
interpreter's final collections skip the objects that die with the
process anyway. Exit handlers and the stdio flush still run. `main`
itself has no process-level effect: it returns the exit code and may be
called any number of times in one interpreter.
"""

import argparse
import copy
import gc
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

from .config import (
    FusionConfig,
    config_choice,
    config_int,
    config_list,
    config_optional,
    config_path,
    config_real,
    config_seed,
    type_fields,
    typed_section,
)
from .exceptions import (
    DivergedLoss,
    HierFusionError,
    InvalidConfig,
    SubclassSpaceMismatch,
)
from .features import (
    SyntheticSpec,
    generate_synthetic,
    load_feature_table,
    save_feature_table,
    train_test_split,
)
from .metrics import PredictionBatch, evaluate, save_predictions
from .rng import (
    STREAM_BUILDER,
    STREAM_MODEL,
    STREAM_SPLIT,
    STREAM_SYNTHETIC,
    derive_seed,
)
from .serialization import atomic_text_writer, dump_json, format_float, load_json
from .structure_builder import build_visual_structure
from .taxonomy import StructureSet, load_structure, load_structure_set, save_structure

_AXIS_COLUMNS = {"lambda": "lambda", "attach_stage": "stage", "k": "k"}


def _untyped(value, field: str):
    """A value typed later: a section by its own class, sweep values by axis."""
    return value


@dataclass(frozen=True)
class SplitParams:
    fraction: Annotated[float, config_real]
    seed: Annotated[int, config_seed] = 0

    def __post_init__(self):
        type_fields(self)
        if not 0.0 < self.fraction < 1.0:
            raise InvalidConfig("split fraction must lie in (0, 1)")


@dataclass(frozen=True)
class BuilderParams:
    k: Annotated[int | None, config_optional(config_int)] = None
    delta: Annotated[float, config_real] = 1.0
    seed: Annotated[int, config_seed] = 0

    def __post_init__(self):
        type_fields(self)
        if self.delta <= 0:
            raise InvalidConfig(f"builder delta must be > 0, got {self.delta!r}")


@dataclass(frozen=True)
class SweepParams:
    """The axis a sweep varies, its values and its run seeds, each sorted.

    lambda values are finite numbers, k and attach_stage values integers.
    No seeds means one run per value under the master seed. A value or
    seed listed twice (after typing, so 2 and 2.0 are one k) would train
    identical runs under one (value, seed) row key, so it is refused.
    """

    axis: Annotated[str, config_choice(_AXIS_COLUMNS)]
    values: Annotated[tuple, config_list(_untyped)]
    seeds: Annotated[tuple[int, ...], config_optional(config_list(config_seed))] = ()

    def __post_init__(self):
        type_fields(self)
        if not self.values:
            raise InvalidConfig("sweep needs a non-empty list of values")
        convert = config_real if self.axis == "lambda" else config_int
        values = sorted(convert(v, f"sweep {self.axis} value") for v in self.values)
        seeds = sorted(self.seeds or ())
        for what, items in ((f"{self.axis} value", values), ("seed", seeds)):
            for a, b in zip(items, items[1:]):
                if a == b:
                    raise InvalidConfig(f"sweep {what} {b!r} is listed twice")
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "seeds", tuple(seeds))


_FILE_PATH = config_optional(config_path("file"))


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: all section seeds are concrete.

    Sections are typed by their own classes once the master seed is known.
    """

    seed: Annotated[int, config_seed] = 0
    builder: Annotated[BuilderParams, _untyped] = BuilderParams()
    model: Annotated[FusionConfig, _untyped] = FusionConfig()
    synthetic: Annotated[SyntheticSpec | None, _untyped] = None
    features: Annotated[str | None, _FILE_PATH] = None
    structures: Annotated[
        tuple[str, ...], config_optional(config_list(config_path("file")))
    ] = ()
    names_from: Annotated[str | None, _FILE_PATH] = None
    checkpoint: Annotated[str | None, _FILE_PATH] = None
    split: Annotated[SplitParams | None, _untyped] = None
    sweep: Annotated[SweepParams | None, _untyped] = None
    out: Annotated[str | None, config_optional(config_path("directory"))] = None

    def __post_init__(self):
        type_fields(self)


# Each section: its class, and the stream a null seed in it derives from
# (None for the sweep, whose runs each take their own master seed).
_SECTIONS = {
    "synthetic": (SyntheticSpec, STREAM_SYNTHETIC),
    "split": (SplitParams, STREAM_SPLIT),
    "builder": (BuilderParams, STREAM_BUILDER),
    "model": (FusionConfig, STREAM_MODEL),
    "sweep": (SweepParams, None),
}


def experiment_config_from_dict(raw: dict) -> ExperimentConfig:
    """Type the config document and resolve derived section seeds.

    A null path field or section is left at its default: a null section
    is off, except `builder` and `model`, which are always on. A section
    seed that is absent or null derives from the master seed through that
    section's fixed stream; an explicit integer wins.
    """
    if not isinstance(raw, dict):
        raise InvalidConfig("the config must be a JSON object")
    fields = {"builder": {}, "model": {}}
    for key, value in typed_section(raw, "", ExperimentConfig).items():
        if value is not None:
            fields[key] = value
    master = fields.setdefault("seed", 0)
    for name, (cls, stream) in _SECTIONS.items():
        section = fields.get(name)
        if section is None:
            continue
        seeded = stream is not None and isinstance(section, dict)
        if seeded and section.get("seed") is None:
            section = dict(section, seed=derive_seed(master, stream))
        fields[name] = cls(**typed_section(section, name, cls))
    if "synthetic" in fields and "features" in fields:
        raise InvalidConfig("configure exactly one data source, not both")
    return ExperimentConfig(**fields)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(config: ExperimentConfig) -> Path:
    if config.out is None:
        raise InvalidConfig("no output directory (set 'out' or pass --out)")
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_table(config: ExperimentConfig, names_hint=None):
    """Materialize the configured data source as a table, which owns its
    subclass name table.

    The name table comes from, in order: the hint (usually the training
    structures), the planted structure for synthetic data, `names_from`,
    or the feature file's own first-appearance order.
    """
    if config.synthetic is not None:
        table = generate_synthetic(config.synthetic)[0]
        if names_hint is not None and tuple(names_hint) != table.subclass_names:
            raise SubclassSpaceMismatch(
                "synthetic subclass names disagree with the requested table"
            )
        return table
    if config.features is None:
        raise InvalidConfig("no data source (set 'synthetic' or 'features')")
    if names_hint is None and config.names_from is not None:
        names_hint = load_structure(config.names_from).subclass_names
    return load_feature_table(config.features, names_hint)


def _split(config: ExperimentConfig, table):
    """(training side, held-out side); the whole table twice without a split."""
    if config.split is None:
        return table, table
    return train_test_split(table, config.split.fraction, config.split.seed)


def _induce(config: ExperimentConfig, table):
    """The visual structure the builder section induces from `table`."""
    builder = config.builder
    return build_visual_structure(table, builder.k, builder.delta, builder.seed)


# -- commands ----------------------------------------------------------------

def cmd_gen_synthetic(config: ExperimentConfig) -> None:
    """Write features.csv and structure_planted.json to the out directory."""
    if config.synthetic is None:
        raise InvalidConfig("gen-synthetic needs a 'synthetic' section")
    out = _out_dir(config)
    table, planted = generate_synthetic(config.synthetic)
    features_path = out / "features.csv"
    save_feature_table(table, features_path)
    structure_path = out / "structure_planted.json"
    save_structure(planted, structure_path)
    _note(f"wrote {features_path}")
    _note(f"wrote {structure_path}")


def cmd_build_structure(config: ExperimentConfig) -> None:
    """Induce a visual structure from the data and write H_A_k{k}.json.

    When a split is configured, only the training side feeds the builder,
    so the induced structure never sees evaluation data.
    """
    if config.builder.k is None:
        raise InvalidConfig("build-structure needs 'builder.k'")
    out = _out_dir(config)
    table = _split(config, _load_table(config))[0]  # only the training side stays
    structure = _induce(config, table)
    path = out / f"{structure.name}.json"
    save_structure(structure, path)
    _note(f"wrote {path}")


def cmd_train(config: ExperimentConfig) -> None:
    """Train on the configured data and write model.ckpt and history.csv."""
    from .model import save_checkpoint, save_history, train

    out = _out_dir(config)
    structures = load_structure_set(config.structures)
    names_hint = structures.subclass_names if len(structures) else None
    table = _split(config, _load_table(config, names_hint))[0]
    model, history = train(config.model, table, structures)
    checkpoint_path = out / "model.ckpt"
    save_checkpoint(model, config.model, checkpoint_path)
    history_path = out / "history.csv"
    save_history(history, history_path)
    _note(f"wrote {checkpoint_path}")
    _note(f"wrote {history_path}")


def cmd_evaluate(config: ExperimentConfig) -> None:
    """Score a checkpoint and write report.json and predictions.csv.

    When a split is configured, the held-out side is scored, mirroring
    cmd_train's use of the training side.
    """
    if config.checkpoint is None:
        raise InvalidConfig("evaluate needs a 'checkpoint' path")
    from .model import load_checkpoint

    out = _out_dir(config)
    model, _ = load_checkpoint(config.checkpoint)
    structures = load_structure_set(config.structures)
    if len(structures) == 0:
        raise InvalidConfig("evaluate needs at least one structure file")
    table = _split(config, _load_table(config, model.subclass_names))[1]
    batch, report = _score(model, structures, table)
    report_path = out / "report.json"
    with atomic_text_writer(report_path) as fh:
        fh.write(dump_json(report.to_dict()))
    predictions_path = out / "predictions.csv"
    save_predictions(batch, predictions_path)
    _note(f"wrote {report_path}")
    _note(f"wrote {predictions_path}")


def _score(model, structures: StructureSet, table):
    """Predict the table's subclasses; return (batch, evaluation report)."""
    from .model import predict

    batch = PredictionBatch(
        predict(model, table.features), table.labels, model.subclass_names
    )
    return batch, evaluate(structures, batch)


_METRIC_COLUMNS = ("accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a")


def cmd_sweep(config: ExperimentConfig, raw: dict) -> None:
    """Train and evaluate per (value, seed); write sweep_{axis}.csv.

    Each run re-resolves the whole config under its own master seed, so
    null section seeds vary across runs while pinned ones stay put. All
    runs are resolved before the first one starts, so a run config that
    fails is InvalidConfig and no file. Each distinct data source (the
    resolved synthetic spec, or the feature file with its name table) is
    parsed or generated once per sweep, and split once per distinct split
    (fraction, seed). Runs that share layout shapes, training rows, batch
    size and epochs (model.stack_key) train together in one
    train_stacked pass, which gives each the parameters a separate run
    would. Rows appear sorted by (value, seed), each value closing with a
    seed="mean" row averaging its runs; the CSV is written atomically
    after the last run, so a failed sweep leaves no CSV behind.
    """
    if config.sweep is None:
        raise InvalidConfig("sweep needs an axis (a 'sweep' section or --axis)")
    from .model import stack_key, train_stacked

    axis, values = config.sweep.axis, config.sweep.values
    seeds = config.sweep.seeds or (config.seed,)
    runs = [
        (value, seed, _sweep_config(raw, axis, value, seed))
        for value in values
        for seed in seeds
    ]

    path = _out_dir(config) / f"sweep_{axis}.csv"
    header = [_AXIS_COLUMNS[axis], "seed"] + list(_METRIC_COLUMNS)
    # Axes never touch the structure files, so every run shares them and
    # their name table; a data source is then keyed by its resolved spec.
    structures = load_structure_set(config.structures)
    names_hint = structures.subclass_names if len(structures) else None
    sources, splits, held_out = {}, {}, []
    stacks = {}  # stack key -> [(run, model config, training side, structures)]
    for run, (_, _, cfg) in enumerate(runs):
        source = (cfg.synthetic, cfg.features, cfg.names_from)
        if source not in sources:
            sources[source] = _load_table(cfg, names_hint)
        table = sources[source]
        if (source, cfg.split) not in splits:
            splits[source, cfg.split] = _split(cfg, table)
        train_side, test_side = splits[source, cfg.split]
        if axis == "k":
            run_structures = StructureSet((_induce(cfg, train_side),))
        else:
            run_structures = structures
        held_out.append((run_structures, test_side))
        key = stack_key(cfg.model, train_side, run_structures)
        stacks.setdefault(key, []).append((run, cfg.model, train_side, run_structures))
    del sources, table  # the splits hold all that training and scoring read

    reports = [None] * len(runs)
    for stack in stacks.values():
        members, configs, tables, structure_sets = zip(*stack)
        try:
            trained = train_stacked(configs, tables, structure_sets)
        except DivergedLoss as exc:
            value, seed, _ = runs[members[exc.run or 0]]
            label = f"{axis} {_sweep_value_str(value)}, seed {seed}"
            raise DivergedLoss(exc.epoch, exc.sample, label) from exc
        for run, (model, _) in zip(members, trained):
            reports[run] = _score(model, *held_out[run])[1].to_dict()

    mean_by_value = []
    with atomic_text_writer(path) as fh:
        fh.write(",".join(header) + "\n")
        for v, value in enumerate(values):
            value_reports = reports[v * len(seeds) : (v + 1) * len(seeds)]
            for seed, report in zip(seeds, value_reports):
                fh.write(_sweep_row(value, str(seed), report) + "\n")
            mean = {
                column: sum(r[column] for r in value_reports) / len(value_reports)
                for column in _METRIC_COLUMNS
            }
            mean_by_value.append((value, mean))
            fh.write(_sweep_row(value, "mean", mean) + "\n")
    _note(f"wrote {path}")
    if axis == "k":
        best = max(mean_by_value, key=lambda pair: pair[1]["accuracy"])
        _note(f"best k by mean accuracy: {best[0]}")


def _sweep_value_str(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _sweep_row(value, seed: str, metrics: dict) -> str:
    cells = [_sweep_value_str(value), seed]
    cells += [format_float(metrics[column]) for column in _METRIC_COLUMNS]
    return ",".join(cells)


def _sweep_config(raw: dict, axis, value, seed: int) -> ExperimentConfig:
    """The resolved config of one sweep run: master seed and axis field set."""
    run_raw = copy.deepcopy(raw)
    run_raw.pop("sweep", None)
    fields = {"seed": seed}
    if axis == "lambda":
        fields.update({"model.lambda_total": value, "model.lambda_split": None})
    elif axis == "attach_stage":
        heads = len(run_raw.get("structures") or [])
        if heads == 0:
            raise InvalidConfig("attach_stage sweep needs structure files")
        fields["model.attach_stages"] = [value] * heads
    else:
        fields["builder.k"] = value
    _apply_overrides(run_raw, fields.items())
    return experiment_config_from_dict(run_raw)


# -- argument handling --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are InvalidConfig, so a bad
    flag ends in one `error:` line and exit code 1 like any bad input."""

    def error(self, message):
        raise InvalidConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hierfusion",
        allow_abbrev=False,
        description="Hierarchical classification pipeline: synthesize data, "
        "build label structures, train, evaluate, sweep.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-synthetic": "write a synthetic feature file and its planted structure",
        "build-structure": "induce a visual label structure from features",
        "train": "train the multi-task model, write checkpoint and history",
        "evaluate": "score a checkpoint, write the evaluation report",
        "sweep": "train and evaluate across one axis of values and seeds",
    }
    for name, help_text in commands.items():
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", metavar="PATH", help="JSON experiment config")
        sub.add_argument(
            "--seed", type=_flag_value, metavar="N", help="override the master seed"
        )
        sub.add_argument("--out", metavar="DIR", help="override the output directory")
        if name == "sweep":
            sub.add_argument(
                "--axis",
                metavar="{" + ",".join(sorted(_AXIS_COLUMNS)) + "}",
                help="which config field the sweep varies",
            )
            sub.add_argument(
                "--values", metavar="LIST", help="comma-separated axis values"
            )
            sub.add_argument(
                "--seeds", metavar="LIST", help="comma-separated run seeds"
            )
    return parser


def _parse_overrides(tokens: list) -> list:
    """``--dotted.name value`` (or ``--name=value``) pairs into (key, value)."""
    overrides = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise InvalidConfig(f"unexpected argument {token!r}")
        key = token[2:]
        if "=" in key:
            key, text = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise InvalidConfig(f"flag --{key} needs a value")
            text = tokens[i + 1]
            i += 2
        overrides.append((key, _flag_value(text)))
    return overrides


def _flag_value(text: str):
    """A flag's text as JSON, or the text itself when it is not JSON."""
    try:
        return load_json(text, InvalidConfig, "flag value")
    except (ValueError, RecursionError):  # not JSON, too long a number, too deep
        return text


def _apply_overrides(raw: dict, overrides) -> None:
    """Set each dotted (key, value) field; a null or absent section becomes {}."""
    for key, value in overrides:
        parts = key.split(".")
        node = raw
        for part in parts[:-1]:
            if node.get(part) is None:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise InvalidConfig(f"--{key} does not address an object field")
        node[parts[-1]] = value


def _parse_value_list(text):
    if text is None:
        return None
    values = []
    for cell in text.split(","):
        cell = cell.strip()
        if not cell:
            continue
        try:
            values.append(json.loads(cell))
        except (ValueError, RecursionError) as exc:
            raise InvalidConfig(f"cannot parse list item {cell!r}") from exc
    if not values:
        raise InvalidConfig("empty value list")
    return values


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        overrides = _parse_overrides(extra)
        if args.config is not None:
            config_path("file")(args.config, "config")
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    raw = load_json(fh.read(), InvalidConfig, args.config)
                except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
                    raise InvalidConfig(f"{args.config}: {exc}") from exc
            if not isinstance(raw, dict):
                raise InvalidConfig(f"{args.config}: the config must be a JSON object")
        else:
            raw = {}
        flags = {"seed": args.seed, "out": args.out}
        if args.command == "sweep":
            flags["sweep.axis"] = args.axis
            flags["sweep.values"] = _parse_value_list(args.values)
            flags["sweep.seeds"] = _parse_value_list(args.seeds)
        flags = [(key, value) for key, value in flags.items() if value is not None]
        _apply_overrides(raw, flags + overrides)
        config = experiment_config_from_dict(raw)
        if args.command == "sweep":
            cmd_sweep(config, raw)
        elif args.command == "gen-synthetic":
            cmd_gen_synthetic(config)
        elif args.command == "build-structure":
            cmd_build_structure(config)
        elif args.command == "train":
            cmd_train(config)
        else:
            cmd_evaluate(config)
    except (HierFusionError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """Run `main` on the process's argv and end the process with its code.

    Every object alive now lives until the process ends, so the collector
    is frozen first and the interpreter's final collections skip them
    (25-30 ms less shutdown per command at the benchmark's sizes on a
    2-core host).
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
