"""The CLI as a process: its entry, SIGKILL at any moment, and forked
workers whose parent dies.

Each child runs with one BLAS thread and without writing bytecode, as the
benchmark runs its commands.
"""

import contextlib
import gc
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest

from hierfusion import features as features_module
from hierfusion import model as model_module
from hierfusion.cli import main
from hierfusion.serialization import load_frame
from test_cli import MODEL, SYNTH, write_config

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p),
    PYTHONDONTWRITEBYTECODE="1",
    OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
)
CLI = (sys.executable, "-m", "hierfusion.cli")
# What the console script pip writes runs: the pyproject entry point, exited.
SCRIPT = "import sys; from {} import {} as entry; sys.exit(entry())".format(
    *tomllib.loads((ROOT / "pyproject.toml").read_text())
    ["project"]["scripts"]["hierfusion"].split(":"))


def child(*argv, **kwargs):
    return subprocess.run(argv, env=ENV, capture_output=True, text=True,
                          timeout=60, **kwargs)


def tree(root: Path) -> dict:
    """{relative path: bytes} of every file under `root`, hidden ones too."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def gen_argv(out) -> list:
    return ["gen-synthetic", "--seed", "3", "--synthetic", json.dumps(SYNTH),
            "--out", str(out)]


# -- the entry ----------------------------------------------------------------------

def test_a_child_writes_the_bytes_of_an_in_process_run(tmp_path):
    proc = child(*CLI, *gen_argv(tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr
    assert main(gen_argv(tmp_path / "here")) == 0
    written = tree(tmp_path / "child")
    assert sorted(written) == [".features.csv.table", "features.csv",
                               "structure_planted.json"]
    assert written == tree(tmp_path / "here")


def test_a_bad_flag_ends_a_child_in_one_error_line_and_exit_1(tmp_path):
    proc = child(*CLI, "train", "--seed", "x", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
sys.argv[0] = "hierfusion"
"""


@pytest.mark.parametrize("start", [
    'runpy.run_module("hierfusion.cli", run_name="__main__", alter_sys=True)',
    SCRIPT,
], ids=["python-m", "console-script"])
@pytest.mark.parametrize("argv, code", [
    (["gen-synthetic"], 0),  # the out directory is filled in below
    (["train", "--seed", "x"], 1),
], ids=["ok", "error"])
def test_a_process_ends_with_its_collector_frozen(tmp_path, start, argv, code):
    if code == 0:
        argv = gen_argv(tmp_path / "out")
    proc = child(sys.executable, "-c", PROBE + start, *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "frozen True\n"


@pytest.mark.parametrize("ok", [True, False], ids=["ok", "error"])
def test_main_in_process_leaves_the_collector_as_it_was(tmp_path, ok):
    before = gc.get_freeze_count()
    argv = gen_argv(tmp_path / "out") if ok else ["train", "--seed", "x"]
    assert main(argv) == (0 if ok else 1)
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


# -- SIGKILL ------------------------------------------------------------------------

KILLS_PER_COMMAND = 5


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A feature file, its structure, a checkpoint, and one config for every
    command's run over them (the out directory is given per run)."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    assert main(gen_argv(data)) == 0
    base = {"seed": 5, "features": str(data / "features.csv"),
            "names_from": str(data / "structure_planted.json"),
            "structures": [str(data / "structure_planted.json")],
            "split": {"fraction": 0.75}, "builder": {"k": 2},
            "model": dict(MODEL, attach_stages=[0]),
            "checkpoint": str(root / "fit" / "model.ckpt")}
    config = write_config(root / "base.json", base)
    assert main(["train", "--config", config, "--out", str(root / "fit")]) == 0
    return root


def command_argv(command: str, inputs: Path, out: Path) -> list:
    if command == "gen-synthetic":
        return gen_argv(out)
    argv = [command, "--config", str(inputs / "base.json"), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "lambda", "--values", "0.0,0.3", "--seeds", "1,2"]
    return argv


def final_names(root: Path) -> dict:
    """`tree(root)` without the hidden `.partial` files of writes in flight."""
    return {name: blob for name, blob in tree(root).items()
            if not name.endswith(".partial")}


def check_frames(out: Path) -> None:
    """A twin's closing hash holds and its `source` is its CSV's hash; a
    checkpoint's closing hash holds."""
    twin = out / ".features.csv.table"
    if twin.exists():
        header, _ = load_frame(twin, features_module.TABLE_MAGIC,
                               features_module._twin_layout)
        csv = (out / "features.csv").read_bytes()
        assert header["source"] == hashlib.sha256(csv).hexdigest()
    checkpoint = out / "model.ckpt"
    if checkpoint.exists():
        load_frame(checkpoint, model_module.CHECKPOINT_MAGIC,
                   model_module._tensor_layout)


def run_child(command: str, inputs: Path, out: Path, kill_after=None) -> float:
    """Run `command` in a child writing to `out`; the seconds from the
    moment `out` appears until the child ends, which is `kill_after`
    seconds when given: SIGKILL then ends the child."""
    proc = subprocess.Popen(CLI + tuple(command_argv(command, inputs, out)),
                            env=ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    while not out.exists() and proc.poll() is None:
        time.sleep(0.001)
    appeared = time.perf_counter()
    if kill_after is not None:
        time.sleep(kill_after)
        proc.send_signal(signal.SIGKILL)
    _, err = proc.communicate(timeout=60)
    if kill_after is None:
        assert proc.returncode == 0, err
    return time.perf_counter() - appeared


@pytest.mark.parametrize("command", ["gen-synthetic", "build-structure", "train",
                                     "evaluate", "sweep"])
def test_a_killed_command_leaves_only_whole_artifacts(tmp_path, inputs, command):
    # every command makes its out directory just before its work begins
    took = run_child(command, inputs, tmp_path / "whole")
    whole = final_names(tmp_path / "whole")
    assert whole
    draw = random.Random(command)
    for kill in range(KILLS_PER_COMMAND):
        out = tmp_path / f"killed{kill}"
        run_child(command, inputs, out, kill_after=draw.uniform(0.0, took))
        if out.exists():
            left = final_names(out)
            assert left == {name: whole[name] for name in left}, (kill, sorted(left))
            check_frames(out)


LOADED = """\
import sys
from hierfusion.cli import main
code = main(sys.argv[2:])
print(code, sys.argv[1] in sys.modules)
"""


def loaded(module: str, command: str, inputs: Path, out: Path) -> str:
    """"<exit code> <whether `module` was imported>" of a child running `command`."""
    proc = child(sys.executable, "-c", LOADED, module,
                 *command_argv(command, inputs, out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["gen-synthetic", "build-structure", "train",
                                     "evaluate", "sweep"])
def test_no_command_imports_numpy_ma(tmp_path, inputs, command):
    # a flag-less np.unique calls np.ma.is_masked, a 10-14 ms import
    assert loaded("numpy.ma", command, inputs, tmp_path / "out") == "0 False"


@pytest.mark.parametrize("command", ["gen-synthetic", "build-structure", "train",
                                     "evaluate", "sweep"])
def test_only_the_commands_that_train_or_score_import_the_trainer(tmp_path, inputs,
                                                                  command):
    # model.py, the largest module, is compiled anew in every child that loads it
    trains = command in ("train", "evaluate", "sweep")
    assert loaded("hierfusion.model", command, inputs, tmp_path / "out") \
        == f"0 {trains}"


# -- forked workers -----------------------------------------------------------------

WORKER = """\
import os, sys, time
from hierfusion import workers
lifeline = int(sys.argv[1])
workers.cpus = lambda: [0, 1, 2]  # three parts wherever the test runs

def part(index):
    if index:
        os.write(lifeline, b"%d\\n" % os.getpid())
    time.sleep(60)

workers.in_parts(3, part)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_a_worker_ends_soon_after_its_parent_is_killed():
    # every process holding the lifeline's write end has ended once the
    # read end meets end of file: the parent and both of its workers
    read_end, write_end = os.pipe()
    started, ended = b"", False
    try:
        parent = subprocess.Popen([sys.executable, "-c", WORKER, str(write_end)],
                                  env=ENV, pass_fds=(write_end,))
        os.close(write_end)
        while started.count(b"\n") < 2:
            chunk = os.read(read_end, 64)
            assert chunk, "a worker never started"
            started += chunk
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=60)
        ready, _, _ = select.select([read_end], [], [], 5.0)
        ended = bool(ready) and os.read(read_end, 64) == b""
        assert ended, "a worker outlived its parent"
    finally:
        os.close(read_end)
        if not ended:  # the workers still hold the lifeline, so their pids are theirs
            for pid in started.split():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)
