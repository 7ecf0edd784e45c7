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
anywhere is InvalidConfig naming the field. Section seeds left null derive
deterministically from the master seed, one fixed stream per section, so a
single ``--seed`` reseeds the whole pipeline coherently.

The command line has one grammar, ``hierfusion COMMAND [FLAG ...]``: each
flag is ``--<dotted.field> VALUE`` or ``--<dotted.field>=VALUE`` and sets
that config field (``--seed 3``, ``--builder.k=5``), its VALUE read as
JSON, else as text, so ``--out 2024`` is a number and InvalidConfig.
Flags apply in argv order, so the last one to set a field wins.
``--config PATH`` names the JSON document, read first wherever the flag
stands; ``--axis``, ``--values`` and ``--seeds`` are short for the sweep
fields, the lists comma-separated. ``-h`` or ``--help`` anywhere prints
the usage to stdout and main returns 0. A malformed command line is
InvalidConfig, one ``error:`` line like any bad input.

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

import copy
import gc
import sys
from dataclasses import asdict, dataclass
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
    select_rows,
    split_rows,
)
from .metrics import EvalReport, PredictionBatch, evaluate, save_predictions
from .rng import (
    STREAM_BUILDER,
    STREAM_MODEL,
    STREAM_SPLIT,
    STREAM_SYNTHETIC,
    derive_seed,
)
from .serialization import (
    atomic_text_writer,
    dump_json,
    format_float,
    load_json,
    load_json_file,
)
from .structure_builder import build_visual_structure
from .taxonomy import StructureSet, load_structure, load_structure_set, save_structure

_AXIS_COLUMNS = {"lambda": "lambda", "attach_stage": "stage", "k": "k"}


def _untyped(value, field: str):
    """A value typed later: sweep values, by their axis."""
    return value


def _section(cls):
    """The type of a config section field: an instance of `cls`."""

    def typed(value, field: str):
        if not isinstance(value, cls):
            raise InvalidConfig(f"{field} must be a {cls.__name__}, got {value!r}")
        return value

    return typed


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

    Each section is an instance of its class, or None where it is off;
    sections are built from a config document once the seed is known.
    """

    seed: Annotated[int, config_seed] = 0
    builder: Annotated[BuilderParams, _section(BuilderParams)] = BuilderParams()
    model: Annotated[FusionConfig, _section(FusionConfig)] = FusionConfig()
    synthetic: Annotated[
        SyntheticSpec | None, config_optional(_section(SyntheticSpec))
    ] = None
    features: Annotated[str | None, _FILE_PATH] = None
    structures: Annotated[
        tuple[str, ...], config_optional(config_list(config_path("file")))
    ] = ()
    names_from: Annotated[str | None, _FILE_PATH] = None
    checkpoint: Annotated[str | None, _FILE_PATH] = None
    split: Annotated[SplitParams | None, config_optional(_section(SplitParams))] = None
    sweep: Annotated[SweepParams | None, config_optional(_section(SweepParams))] = None
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
    rest = {key: value for key, value in raw.items() if key not in _SECTIONS}
    for key, value in {**raw, **typed_section(rest, "", ExperimentConfig)}.items():
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


def _load_table(config: ExperimentConfig, names_hint):
    """Materialize the configured data source as a table, which owns its
    subclass name table: the hint, else the planted structure's for
    synthetic data, else `names_from`'s, else the feature file's own
    first-appearance order.
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


def _runs(configs, structures: StructureSet | None, names_hint=None) -> list:
    """Each run's (table, training rows, held-out rows, structure set), in
    order: the one plan of every command that reads data.

    The name table is `names_hint`, else that of `structures` when there
    are any, else the data source's own (see _load_table). Each distinct
    data source (the resolved synthetic spec, or the feature file with its
    name table) is parsed or generated once, and its rows split once per
    distinct split (fraction, seed) by features.split_rows; without a
    split both sides are all of its rows, None. Runs keep the table
    itself, so the runs of one source read one copy of its features:
    a command gathers only a side it scores (features.select_rows), and
    trains and induces on the rows in place. With `structures` None, each
    run's one structure is the one its builder section induces from its
    training rows.
    """
    if names_hint is None and structures:
        names_hint = structures.subclass_names
    tables, sides, keys = {}, {}, []
    for config in configs:
        source = (config.synthetic, config.features, config.names_from)
        keys.append((source, config.split))
        if source not in tables:
            tables[source] = _load_table(config, names_hint)
        if keys[-1] not in sides:
            table, split = tables[source], config.split
            sides[keys[-1]] = (table, *((None, None) if split is None
                                        else split_rows(table, split.fraction, split.seed)))
    runs = []
    for config, key in zip(configs, keys):
        table, train_rows, test_rows = sides[key]
        run_structures = structures
        if structures is None:
            builder = config.builder
            run_structures = StructureSet((build_visual_structure(
                table, builder.k, builder.delta, builder.seed, train_rows),))
        runs.append((table, train_rows, test_rows, run_structures))
    return runs


# -- commands ----------------------------------------------------------------

def cmd_gen_synthetic(config: ExperimentConfig, raw: dict) -> None:
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


def cmd_build_structure(config: ExperimentConfig, raw: dict) -> None:
    """Induce a visual structure from the data and write H_A_k{k}.json.

    When a split is configured, only the training side feeds the builder,
    so the induced structure never sees evaluation data.
    """
    if config.builder.k is None:
        raise InvalidConfig("build-structure needs 'builder.k'")
    out = _out_dir(config)
    [(_, _, _, (structure,))] = _runs([config], None)
    path = out / f"{structure.name}.json"
    save_structure(structure, path)
    _note(f"wrote {path}")


def cmd_train(config: ExperimentConfig, raw: dict) -> None:
    """Train on the configured data and write model.ckpt and history.csv."""
    from .model import save_checkpoint, save_history, train

    out = _out_dir(config)
    structures = load_structure_set(config.structures)
    [(table, rows, _, _)] = _runs([config], structures)
    model, history = train(config.model, table, structures, rows)
    checkpoint_path = out / "model.ckpt"
    save_checkpoint(model, config.model, checkpoint_path)
    history_path = out / "history.csv"
    save_history(history, history_path)
    _note(f"wrote {checkpoint_path}")
    _note(f"wrote {history_path}")


def cmd_evaluate(config: ExperimentConfig, raw: dict) -> None:
    """Score a checkpoint and write report.json and predictions.csv.

    When a split is configured, the held-out side is scored, mirroring
    cmd_train's use of the training side.
    """
    if config.checkpoint is None:
        raise InvalidConfig("evaluate needs a 'checkpoint' path")
    from .model import load_checkpoint

    out = _out_dir(config)
    model, _ = load_checkpoint(config.checkpoint)
    structures = _structures(config, "evaluate")
    [(table, _, rows, _)] = _runs([config], structures, model.subclass_names)
    held_out = select_rows(table, rows)
    del table  # released before the forward pass allocates its activations
    batch, report = _score(model, structures, held_out)
    report_path = out / "report.json"
    with atomic_text_writer(report_path) as fh:
        fh.write(dump_json(asdict(report)))
    predictions_path = out / "predictions.csv"
    save_predictions(batch, predictions_path)
    _note(f"wrote {report_path}")
    _note(f"wrote {predictions_path}")


def _structures(config: ExperimentConfig, scoring: str) -> StructureSet:
    """The configured structure files; a score averages over them, so the
    command `scoring` against them needs at least one (else InvalidConfig)."""
    structures = load_structure_set(config.structures)
    if len(structures) == 0:
        raise InvalidConfig(f"{scoring} needs at least one structure file")
    return structures


def _score(model, structures: StructureSet, table):
    """Predict the table's subclasses; return (batch, evaluation report)."""
    from .model import predict

    batch = PredictionBatch(
        predict(model, table.features), table.labels, model.subclass_names
    )
    return batch, evaluate(structures, batch)


_METRIC_COLUMNS = tuple(k for k, kind in EvalReport.__annotations__.items() if kind is float)


def cmd_sweep(config: ExperimentConfig, raw: dict) -> None:
    """Train and evaluate per (value, seed); write sweep_{axis}.csv.

    Each run re-resolves the whole config under its own master seed, so
    null section seeds vary across runs while pinned ones stay put. All
    runs are resolved before the first one starts, so a run config that
    fails is InvalidConfig and no file. Runs score against the structure
    files, except on the k axis, which reads none: each run scores
    against the structure it induces, the one build-structure writes
    under that run's config. A sweep with nothing to score against is
    refused before any run trains. Every run trains in one train_stacked
    call, which stacks the runs that share a shape into one pass and
    gives each run the parameters a separate run would. Rows appear
    sorted by (value, seed), each value closing with a seed="mean" row
    averaging its runs; the CSV is written atomically after the last run,
    so a failed sweep leaves no CSV behind.
    """
    if config.sweep is None:
        raise InvalidConfig("sweep needs an axis (a 'sweep' section or --axis)")
    from .model import train_stacked

    axis, values = config.sweep.axis, config.sweep.values
    seeds = config.sweep.seeds or (config.seed,)
    keys = [(value, seed) for value in values for seed in seeds]
    configs = [_sweep_config(raw, axis, value, seed) for value, seed in keys]

    path = _out_dir(config) / f"sweep_{axis}.csv"
    header = [_AXIS_COLUMNS[axis], "seed"] + list(_METRIC_COLUMNS)
    structures = None if axis == "k" else _structures(config, "sweep")
    tables, train_rows, test_rows, structure_sets = zip(*_runs(configs, structures))
    try:
        trained = train_stacked([c.model for c in configs], tables, structure_sets,
                                train_rows)
    except DivergedLoss as exc:
        value, seed = keys[exc.run or 0]
        label = f"{axis} {_sweep_value_str(value)}, seed {seed}"
        raise DivergedLoss(exc.epoch, exc.sample, label) from exc
    # each held-out side is gathered as it is scored, and released after
    reports = [asdict(_score(model, run_structures, select_rows(table, rows))[1])
               for (model, _), table, rows, run_structures
               in zip(trained, tables, test_rows, structure_sets)]

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
    return format_float(value) if isinstance(value, float) else str(value)


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
    config = experiment_config_from_dict(run_raw)
    heads = len(config.model.attach_stages)
    if axis == "k" and heads != 1:  # a k run's one head is its induced structure
        raise InvalidConfig(f"k sweep needs one model.attach_stages entry, got {heads}")
    return config


# -- the command line ---------------------------------------------------------

# Each command with its one-line help, in usage order. A command takes the
# resolved config and the document it was resolved from, which the sweep
# re-resolves once per run.
_COMMANDS = {
    "gen-synthetic": (cmd_gen_synthetic,
                      "write a synthetic feature file and its planted structure"),
    "build-structure": (cmd_build_structure,
                        "induce a visual label structure from features"),
    "train": (cmd_train, "train the multi-task model, write checkpoint and history"),
    "evaluate": (cmd_evaluate, "score a checkpoint, write the evaluation report"),
    "sweep": (cmd_sweep, "train and evaluate across one axis of values and seeds"),
}
_USAGE = """usage: hierfusion COMMAND [--config PATH] [--FIELD VALUE | --FIELD=VALUE] ...

commands:
{}

--config PATH, the JSON experiment config, is read first wherever it stands.
Every other flag sets the config field of its dotted name (--seed N, --out
DIR, --model.lambda_total 0.3) in argv order, so the last one wins; VALUE
reads as JSON, else as text. --axis {{{}}}, --values LIST
and --seeds LIST set sweep.axis, sweep.values and sweep.seeds, each LIST
comma-separated. -h, --help prints this text.""".format(
    "\n".join(f"  {name:<17}{text}" for name, (_, text) in _COMMANDS.items()),
    ",".join(sorted(_AXIS_COLUMNS)))


def _parse_argv(argv: list) -> tuple[str, dict]:
    """The command and its config document with every flag applied."""
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command"
        raise InvalidConfig(f"{what} (choose from {', '.join(_COMMANDS)})")
    flags = _parse_overrides(argv[1:])
    paths = [value for key, value in flags if key == "config"]
    raw = {} if not paths else load_json_file(
        config_path("file")(paths[-1], "config"), InvalidConfig)
    _apply_overrides(raw, [flag for flag in flags if flag[0] != "config"])
    return argv[0], raw


def _parse_overrides(tokens: list) -> list:
    """``--name value`` (or ``--name=value``) tokens as (field, value) pairs
    in order, each value read by its flag."""
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
        field, read = _FLAGS.get(key, (key, _flag_value))
        overrides.append((field, read(text)))
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


def _parse_value_list(text: str) -> list:
    """A comma-separated list flag: each non-empty cell read as a flag value."""
    values = [_flag_value(cell) for cell in map(str.strip, text.split(",")) if cell]
    if not values:
        raise InvalidConfig("empty value list")
    return values


# The flags that are not a dotted field's own: the field each sets (the
# config file is no field) and how its text reads.
_FLAGS = {"config": ("config", str),
          "axis": ("sweep.axis", _flag_value),
          "values": ("sweep.values", _parse_value_list),
          "seeds": ("sweep.seeds", _parse_value_list)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if any(token in ("-h", "--help") for token in argv):
            print(_USAGE)
            return 0
        command, raw = _parse_argv(argv)
        _COMMANDS[command][0](experiment_config_from_dict(raw), raw)
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
