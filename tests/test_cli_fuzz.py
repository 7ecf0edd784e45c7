"""Any command line built from the override grammar, and any bytes given
as the ``--config`` file, end `main()` in 0, or in 1 with one `error:`
line on stderr; no exception escapes.

Every example runs in a fresh copy of a tiny workspace (a feature file,
its structure, a checkpoint and a config that names them), so paths drawn
from the workspace reach real commands. Integers are drawn small, so a
command that runs trains or writes only a few rows.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfusion import cli
from hierfusion.cli import main

COMMANDS = ("gen-synthetic", "build-structure", "train", "evaluate", "sweep")

_SECTIONS = {name: [field.name for field in dataclasses.fields(cls)]
             for name, (cls, _) in cli._SECTIONS.items()}
_TOP = [field.name for field in dataclasses.fields(cli.ExperimentConfig)]
# every config field by its dotted name, and a few that no config has
_KEYS = (*_TOP, *(f"{s}.{f}" for s, fields in _SECTIONS.items() for f in fields),
         "bogus", "model.bogus", "seed.x", "sweep.axis.x", "")
_LEAVES = sorted({key.rsplit(".", 1)[-1] for key in _KEYS})

_CONFIGS = ("base.json", "gen.json", "sweep.json")
_PATHS = ("data/features.csv", "data/structure_planted.json", "fit/model.ckpt",
          *_CONFIGS, "data", "out", "out/deeper", "missing.csv", "",
          "a\x00b", "\ud800")

_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-4, 4) | st.sampled_from([math.nan, math.inf, 1e308, 10**30])
    | st.sampled_from(_PATHS + ("lambda", "k", "attach_stage"))
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_LEAVES) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=6,
)


def _json_text(value) -> str:
    return json.dumps(value, allow_nan=True)


# A flag's value: JSON text, any text (JSON or not), a workspace path, or a
# value some field takes.
_VALUE = (_JSON.map(_json_text) | st.text(max_size=6) | st.sampled_from(_PATHS)
          | st.sampled_from(["0", "1", "2", "0.5", "null", "[0]", "[4]", "[]"]))
_LIST = st.lists(st.integers(-2, 6).map(str) | st.floats(-1, 2).map(repr)
                 | st.text(max_size=3), max_size=4).map(",".join)
# settings that commands on the workspace take
_SETTINGS = st.sampled_from([
    ("seed", "2"), ("builder.k", "3"), ("builder.delta", "0.5"),
    ("split.fraction", "0.5"), ("split", "null"), ("model.epochs", "1"),
    ("model.lambda_total", "0.3"), ("model.attach_stages", "[1]"),
    ("model.stage_dims", "[3]"), ("synthetic.dim", "2"), ("sweep.axis", "k"),
    ("sweep.values", "[2, 3]"), ("sweep.seeds", "[0, 4]"), ("features", "null"),
])
_STRAY = st.text(max_size=5) | st.sampled_from(["-h", "--help"])


@st.composite
def _flags(draw):
    """One or two argv tokens of the override grammar, or a stray one."""
    kind = draw(st.sampled_from(
        ["setting", "pair", "joined", "stray", "sweep", "config", "seed", "out"]))
    if kind == "setting":
        key, value = draw(_SETTINGS)
        return ["--" + key, value]
    if kind == "pair":
        return ["--" + draw(st.sampled_from(_KEYS)), draw(_VALUE)]
    if kind == "joined":
        return ["--" + draw(st.sampled_from(_KEYS)) + "=" + draw(_VALUE)]
    if kind == "stray":
        return [draw(_STRAY)]
    if kind == "sweep":
        flag = draw(st.sampled_from(["--axis", "--values", "--seeds"]))
        value = draw(st.sampled_from(["lambda", "k", "attach_stage", "x"])
                     if flag == "--axis" else _LIST)
        return [flag, value]
    if kind == "config":
        return ["--config", draw(st.sampled_from(_PATHS))]
    return ["--" + kind, draw(_VALUE)]


_ARGV = st.builds(
    lambda command, base, flags: [command] + base + [t for f in flags for t in f],
    st.sampled_from(COMMANDS),
    st.sampled_from([[]] + [["--config", name] for name in _CONFIGS]),
    st.lists(_flags(), max_size=4),
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with data/, fit/model.ckpt and the _CONFIGS, made by main().

    base.json names the data, structure and checkpoint, gen.json a tiny
    synthetic set, and sweep.json adds a lambda sweep to base.json."""
    root = tmp_path_factory.mktemp("workspace")
    synthetic = {"superclass_count": 2, "subclasses_per_superclass": 2,
                 "samples_per_subclass": 6, "dim": 3}
    base = {"seed": 1, "features": "data/features.csv",
            "names_from": "data/structure_planted.json",
            "structures": ["data/structure_planted.json"],
            "checkpoint": "fit/model.ckpt", "builder": {"k": 2},
            "model": {"stage_dims": [4, 3], "attach_stages": [0], "epochs": 2,
                      "batch_size": 8},
            "out": "out"}
    configs = {"base.json": base, "gen.json": {"synthetic": synthetic, "out": "out"},
               "sweep.json": dict(base, sweep={"axis": "lambda", "values": [0, 0.5]})}
    for name, raw in configs.items():
        (root / name).write_text(json.dumps(raw))
    with _inside(root):
        assert main(["gen-synthetic", "--out", "data", "--synthetic",
                     json.dumps(synthetic)]) == 0
        assert main(["train", "--config", "base.json", "--out", "fit"]) == 0
    return root


@contextlib.contextmanager
def _inside(directory):
    here = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(here)


def _assert_one_outcome(workspace: Path, argv: list) -> None:
    """main(argv), run in a copy of the workspace, returns 0 with no
    `error:` line or 1 with exactly one, its last line."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ws"
        shutil.copytree(workspace, root)
        err = io.StringIO()
        with _inside(root), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert code in (0, 1), (argv, code)
    if code == 0:
        assert errors == [], (argv, lines)
    else:
        assert errors == lines[-1:], (argv, lines)


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV)
def test_any_override_argv_is_exit_0_or_one_error_line(workspace, argv):
    _assert_one_outcome(workspace, argv)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       blob=st.binary(max_size=64)
       | (_JSON | st.dictionaries(st.sampled_from(_TOP), _JSON, max_size=4))
       .map(_json_text).map(str.encode))
def test_any_config_file_bytes_are_exit_0_or_one_error_line(workspace, command, blob):
    path = Path(tempfile.mkdtemp()) / "config.json"
    try:
        path.write_bytes(blob)
        _assert_one_outcome(workspace, [command, "--config", str(path)])
    finally:
        shutil.rmtree(path.parent)
