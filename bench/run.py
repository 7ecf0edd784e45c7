"""Benchmark of the hierfusion command-line loop, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sweep-lambda --seed 1 --seconds 38 --trace 0

Each workload is a closed loop: one client runs its commands back to back,
each command as its own child process with one BLAS thread, the way a
researcher runs them.
The seed makes the inputs (the synthetic data and the experiment's master
seed); the program sees only the generated files.

  sweep-lambda  set-up: gen-synthetic, 4 x 5 subclasses x 100 samples, 64-d.
                Timed: one `sweep --axis lambda` over 3 values x 3 seeds.
                The loop researchers run most: small-batch training
                dominates and the CSV is parsed again for each of the 9 runs.
  induce-wide   set-up: gen-synthetic, 10 x 20 subclasses x 20 samples, 64-d.
                Timed: `build-structure` with k=10 over 200 classes, where
                the cubic Jacobi eigensolve dominates; no training.
  fit-wide      set-up: configs only.  Timed: gen-synthetic (4 x 5 x 250,
                256-d, a 26 MB CSV) -> train -> evaluate.  CSV write and
                parse dominate and training is bound by BLAS.

--trace 0 repeats the timed sequence for about --seconds and reports the
end-to-end metrics: wall_ratio (the mean pass time over the mean time of
bench/reference.py's fixed computation, run before the first pass and
after each; see that file and measure() for why), setup_s (median
of the set-up repeats: inputs plus one warm-up child importing
hierfusion.cli),
peak_rss_mb (largest ru_maxrss of any timed child, from os.wait4) and
quality (held-out top-1 accuracy, the mean over the sweep's per-seed rows
on sweep-lambda; the adjusted Rand index of induced against planted
superclasses on induce-wide).  wall_s (the median pass in seconds),
reference_s, accuracy, f_ha, ari and failed_ops (failed commands /
attempted) are printed where they exist.

--trace 1 runs the sequence once as child processes, then twice in this
process, untraced and then with every layer function wrapped in a span
(see tracing.py), and reports per-layer self times, call counts and the
computed rates and ratios, with reference.s, the median of three
reference computations, to scale them by.  --smoke shrinks every
workload to a few seconds.

Every command's artifacts are checked (shape, finiteness, loadability,
byte-identical reruns).  Human-readable lines, including an environment
stamp, go to stdout first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Results and spans are
also written under .bench-work/ in the repository root.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread per child: with the benchmark's own process beside it, a
# second thread would oversubscribe a two-core machine, and on this loop's
# small matrices it makes training slower and its timings noisier.
BLAS_THREADS = 1
RUN_LIMIT_S = 165.0  # no child outlives this, so a run ends inside 180 s
SETUP_REPEATS = 5
SPLIT = 0.8
SWEEP_VALUES = "0.0,0.2,0.4"
SWEEP_SEEDS = "0,1,2"
REPORT_FIELDS = ("accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a")
WORKLOADS = ("sweep-lambda", "induce-wide", "fit-wide")
COMMANDS = ("gen-synthetic", "build-structure", "train", "evaluate", "sweep")
CLI = (sys.executable, "-m", "hierfusion.cli")


def _data(superclasses, per, samples, dim):
    return {
        "superclass_count": superclasses,
        "subclasses_per_superclass": per,
        "samples_per_subclass": samples,
        "dim": dim,
        "superclass_separation": 9.0,
        "subclass_separation": 2.5,
        "noise_scale": 0.8,
    }


# Workload sizes: (data, model section or builder k), full and --smoke.
SIZES = {
    False: {
        "sweep-lambda": (
            _data(4, 5, 100, 64),
            {"stage_dims": [32, 16], "attach_stages": [0], "learning_rate": 0.3,
             "epochs": 30, "batch_size": 32},
        ),
        "induce-wide": (_data(10, 20, 20, 64), 10),
        "fit-wide": (
            _data(4, 5, 250, 256),
            {"stage_dims": [256, 128], "attach_stages": [0], "lambda_total": 0.2,
             "learning_rate": 0.05, "epochs": 8, "batch_size": 64},
        ),
    },
    True: {
        "sweep-lambda": (
            _data(2, 3, 20, 8),
            {"stage_dims": [8, 4], "attach_stages": [0], "learning_rate": 0.3,
             "epochs": 2, "batch_size": 16},
        ),
        "induce-wide": (_data(3, 3, 10, 8), 3),
        "fit-wide": (
            _data(2, 3, 20, 16),
            {"stage_dims": [8, 4], "attach_stages": [0], "lambda_total": 0.2,
             "learning_rate": 0.05, "epochs": 2, "batch_size": 16},
        ),
    },
}


class CheckFailed(Exception):
    """A command's artifacts are missing, malformed or not reproducible."""


@dataclass(frozen=True)
class Plan:
    """One workload at one size, with its inputs under `setup_dir`."""

    data: dict
    configs: dict  # config file name -> document, written during set-up
    setup_commands: tuple  # argv tails for hierfusion.cli, run in setup_dir
    commands: tuple  # the timed sequence, run in a fresh pass directory
    k: int | None = None
    model: dict | None = None

    @property
    def rows(self) -> int:
        d = self.data
        return (
            d["superclass_count"] * d["subclasses_per_superclass"]
            * d["samples_per_subclass"]
        )

    @property
    def classes(self) -> int:
        return self.data["superclass_count"] * self.data["subclasses_per_superclass"]

    @property
    def n_train(self) -> int:
        per_class = self.data["samples_per_subclass"]
        return self.classes * math.floor(per_class * SPLIT)


def make_plan(workload: str, seed: int, setup_dir: Path, smoke: bool) -> Plan:
    data, extra = SIZES[smoke][workload]
    gen = {"seed": seed, "synthetic": data}
    if workload == "fit-wide":
        inputs = Path("gen-synthetic")  # written by the timed sequence
    else:
        inputs = setup_dir / "gen-synthetic"
    source = {
        "seed": seed,
        "features": str(inputs / "features.csv"),
        "names_from": str(inputs / "structure_planted.json"),
        "split": {"fraction": SPLIT},
    }
    setup_gen = (("gen-synthetic", "--config", str(setup_dir / "gen.json"),
                  "--out", str(setup_dir / "gen-synthetic")),)
    if workload == "sweep-lambda":
        config = {**source, "structures": [source["names_from"]], "model": extra}
        return Plan(
            data, {"gen.json": gen, "sweep.json": config}, setup_gen,
            (("sweep", "--config", str(setup_dir / "sweep.json"), "--axis", "lambda",
              "--values", SWEEP_VALUES, "--seeds", SWEEP_SEEDS, "--out", "sweep"),),
            model=extra,
        )
    if workload == "induce-wide":
        config = {**source, "builder": {"k": extra}}
        return Plan(
            data, {"gen.json": gen, "induce.json": config}, setup_gen,
            (("build-structure", "--config", str(setup_dir / "induce.json"),
              "--out", "build-structure"),),
            k=extra,
        )
    config = {
        **source,
        "structures": [source["names_from"]],
        "checkpoint": "train/model.ckpt",
        "model": extra,
    }
    fit = str(setup_dir / "fit.json")
    return Plan(
        data, {"gen.json": gen, "fit.json": config}, (),
        (("gen-synthetic", "--config", str(setup_dir / "gen.json"),
          "--out", "gen-synthetic"),
         ("train", "--config", fit, "--out", "train"),
         ("evaluate", "--config", fit, "--out", "evaluate")),
        model=extra,
    )


# -- output checks -----------------------------------------------------------

def _finite(value, what) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return float(value)


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def adjusted_rand_index(a, b) -> float:
    """Pair-counting ARI of two partitions given as equal-length label lists."""
    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    index = pairs(Counter(zip(a, b)).values())
    sum_a, sum_b = pairs(Counter(a).values()), pairs(Counter(b).values())
    expected = sum_a * sum_b / pairs([len(a)])
    top = (sum_a + sum_b) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def check_command(command: str, out: Path, plan: Plan) -> dict:
    """Verify one command's artifacts in `out`; return its quality figures."""
    from hierfusion.exceptions import HierFusionError
    from hierfusion.model import load_checkpoint
    from hierfusion.taxonomy import load_structure

    try:
        if command == "gen-synthetic":
            with open(out / "features.csv", encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n").split(",")
            if header != ["label"] + [f"f{j}" for j in range(plan.data["dim"])]:
                raise CheckFailed("features.csv header does not match the spec")
            if _line_count(out / "features.csv") != plan.rows + 1:
                raise CheckFailed("features.csv row count does not match the spec")
            planted = load_structure(out / "structure_planted.json")
            if planted.subclass_count != plan.classes:
                raise CheckFailed("planted structure has the wrong subclass count")
            return {}
        if command == "sweep":
            with open(out / "sweep_lambda.csv", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            values, seeds = SWEEP_VALUES.split(","), SWEEP_SEEDS.split(",")
            if len(lines) != 1 + len(values) * (len(seeds) + 1):
                raise CheckFailed(f"sweep CSV has {len(lines)} lines")
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            for row in rows:
                for name in REPORT_FIELDS:
                    _finite(float(row[name]), f"sweep {name}")
            runs = [row for row in rows if row["seed"] != "mean"]
            if len(runs) != len(values) * len(seeds):
                raise CheckFailed("sweep CSV has the wrong number of per-seed rows")
            return {
                name: statistics.fmean(float(row[name]) for row in runs)
                for name in ("accuracy", "f_ha")
            }
        if command == "build-structure":
            induced = load_structure(out / f"H_A_k{plan.k}.json")
            planted_path = Path(plan.configs["induce.json"]["names_from"])
            planted = load_structure(planted_path)
            if induced.superclass_count != plan.k:
                raise CheckFailed(f"induced structure has {induced.superclass_count} superclasses")
            if induced.subclass_names != planted.subclass_names:
                raise CheckFailed("induced structure has another subclass table")
            ari = adjusted_rand_index(
                induced.parent_index.tolist(), planted.parent_index.tolist()
            )
            return {"ari": _finite(ari, "ari")}
        if command == "train":
            load_checkpoint(out / "model.ckpt")
            if _line_count(out / "history.csv") != plan.model["epochs"] + 1:
                raise CheckFailed("history.csv does not have one row per epoch")
            return {}
        if command == "evaluate":
            with open(out / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            figures = {name: _finite(report.get(name), f"report {name}")
                       for name in REPORT_FIELDS}
            if _line_count(out / "predictions.csv") != plan.rows - plan.n_train + 1:
                raise CheckFailed("predictions.csv does not hold the held-out side")
            return {name: figures[name] for name in ("accuracy", "f_ha")}
    except (OSError, ValueError, KeyError, HierFusionError) as exc:
        raise CheckFailed(f"{command}: {exc}") from exc
    raise CheckFailed(f"no check for command {command!r}")


def digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- running commands ---------------------------------------------------------

@dataclass
class Ledger:
    """Commands attempted and failed, with the reason for each failure."""

    deadline: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"bench: {message}", file=sys.stderr)


@dataclass(frozen=True)
class Child:
    wall_s: float
    maxrss_mb: float
    ok: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv, cwd: Path, log: Path, ledger: Ledger) -> Child:
    """Run one command to completion; read its peak RSS with os.wait4."""
    ledger.attempted += 1
    remaining = ledger.deadline - time.perf_counter()
    if remaining <= 0:
        ledger.fail(f"no time left to run {argv[1:4]}")
        return Child(0.0, 0.0, False)
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        # A blocking wait keeps this process off the cores the child uses;
        # the timer kills a child that outlives the run's deadline.
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        ledger.fail(f"{' '.join(argv[1:4])} exited {proc.returncode}: {tail}")
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode == 0)


def run_sequence(commands, cwd: Path, ledger: Ledger):
    """Run commands back to back; stop at the first failure.

    Returns (wall seconds, {command: child} for the commands that ran,
    whether all of them succeeded).
    """
    cwd.mkdir(parents=True, exist_ok=True)
    children = {}
    start = time.perf_counter()
    for args in commands:
        child = run_child(CLI + tuple(args), cwd, cwd / f"{args[0]}.log", ledger)
        children[args[0]] = child
        if not child.ok:
            break
    wall = time.perf_counter() - start
    return wall, children, all(c.ok for c in children.values())


def verify_pass(plan: Plan, pass_dir: Path, done, digests: dict,
                ledger: Ledger) -> dict:
    """Check the artifacts of each command in `done`; return quality figures.

    The first pass checked sets the digest of each command's
    artifacts; every later pass must reproduce it byte for byte.
    """
    quality = {}
    for command in done:
        out = pass_dir / command
        try:
            quality.update(check_command(command, out, plan))
            fingerprint = digest(out)
            if digests.setdefault(command, fingerprint) != fingerprint:
                raise CheckFailed(f"{command}: artifacts differ from the first pass")
        except CheckFailed as exc:
            ledger.fail(str(exc))
    return quality


def setup(plan: Plan, setup_dir: Path, ledger: Ledger):
    """Write the configs, generate the inputs, warm up one CLI import.

    Returns (set-up seconds, import seconds).
    """
    start = time.perf_counter()
    setup_dir.mkdir(parents=True)
    for name, document in plan.configs.items():
        (setup_dir / name).write_text(json.dumps(document, indent=2) + "\n")
    run_sequence(plan.setup_commands, setup_dir, ledger)
    warm = run_child(
        (sys.executable, "-c", "import hierfusion.cli"), setup_dir,
        setup_dir / "import.log", ledger,
    )
    return time.perf_counter() - start, warm.wall_s


# -- the two modes -------------------------------------------------------------

def run_reference(ledger: Ledger) -> float | None:
    """Seconds one call of reference.main takes, or None if it failed."""
    import reference  # after main() has set the BLAS thread count

    ledger.attempted += 1
    start = time.perf_counter()
    code = reference.main()
    wall = time.perf_counter() - start
    if code != 0:
        ledger.fail("the reference computation gave a wrong result")
        return None
    return wall


def measure(plan: Plan, run_dir: Path, seconds: float, ledger: Ledger) -> dict:
    """Repeat the timed sequence for about `seconds`; end-to-end metrics.

    reference.main runs before the first pass and after each pass, and
    wall_ratio is the mean pass time over the mean reference time, so that
    it follows the program's cost and not the shared machine's speed of
    the moment.  Means, not medians: single timings on a shared host fall
    into a fast and a slow mode, and the median of the few passes a run
    holds jumps between the two.
    A new pass starts only while the run is expected to end closer to
    `seconds` with it than without it, so runs overshoot by half a pass
    at most on average.
    """
    walls, refs, rss, quality, digests = [], [], 0.0, {}, {}
    start = time.perf_counter()
    ref = run_reference(ledger)
    while ref is not None:
        refs.append(ref)
        if walls:
            step = statistics.median(walls) + statistics.median(refs)
            if (time.perf_counter() - start + step / 2 >= seconds
                    or time.perf_counter() + 2 * step > ledger.deadline):
                break
        pass_dir = run_dir / f"pass-{len(walls)}"
        wall, children, ok = run_sequence(plan.commands, pass_dir, ledger)
        done = [name for name, child in children.items() if child.ok]
        quality = verify_pass(plan, pass_dir, done, digests, ledger) or quality
        shutil.rmtree(pass_dir)
        if not ok:
            break
        walls.append(wall)
        rss = max([rss] + [c.maxrss_mb for c in children.values()])
        ref = run_reference(ledger)
    if not walls:
        return {}
    return {"wall_ratio": statistics.fmean(walls) / statistics.fmean(refs),
            "wall_s": statistics.median(walls), "wall_s.passes": walls,
            "reference_s": statistics.median(refs), "reference_s.runs": refs,
            "peak_rss_mb": rss, **quality}


def trace_pass(plan: Plan, run_dir: Path, ledger: Ledger, trace_file: Path) -> dict:
    """One child pass, then untraced and traced passes in this process."""
    import numpy as np

    from hierfusion import cli

    references = [run_reference(ledger) for _ in range(3)]
    digests = {}
    pass_dir = run_dir / "pass-child"
    _, children, ok = run_sequence(plan.commands, pass_dir, ledger)
    verify_pass(plan, pass_dir, [c for c in children if children[c].ok],
                digests, ledger)
    if not ok:
        return {}

    def in_process(pass_dir: Path, tracer):
        """Run the sequence through cli.main; wall seconds, or None on failure."""
        pass_dir.mkdir(parents=True)
        done = []
        start = time.perf_counter()
        with open(pass_dir / "stderr.log", "w") as log, \
                contextlib.redirect_stderr(log):
            here = os.getcwd()
            os.chdir(pass_dir)
            try:
                for run, args in enumerate(plan.commands):
                    ledger.attempted += 1
                    if tracer is None:
                        code = cli.main(list(args))
                    else:
                        tracer.run = run
                        code = tracer.call(f"cli.{args[0]}", cli.main, (list(args),), {})
                    if code != 0:
                        ledger.fail(f"in-process {args[0]} returned {code}")
                        break
                    done.append(args[0])
            finally:
                os.chdir(here)
        wall = time.perf_counter() - start
        verify_pass(plan, pass_dir, done, digests, ledger)
        return wall if len(done) == len(plan.commands) else None

    plain_wall = in_process(run_dir / "pass-plain", None)
    tracer = tracing.Tracer(capture={"structure_builder.symmetric_eigen",
                                     "features.load_feature_table"})
    patches = tracing.install(tracer)
    try:
        traced_wall = in_process(run_dir / "pass-traced", tracer)
    finally:
        tracing.uninstall(patches)
    tracer.write(trace_file)
    if plain_wall is None or traced_wall is None:
        return {}

    self_s = tracing.self_times(tracer.spans)
    calls = tracing.call_counts(tracer.spans)
    metrics = {}
    for module, names in tracing.LAYER_FUNCTIONS.items():
        for name in names:
            span = f"{module}.{name}"
            metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
            metrics[f"{span}.calls"] = calls.get(span, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = plan.rows * plan.data["dim"]  # computed: rows x d of every file
    loads = calls.get("features.load_feature_table", 0)
    saves = calls.get("features.save_feature_table", 0)
    metrics["features.parse_values_per_s"] = rate(
        loads * values, metrics["features.load_feature_table.self_s"])
    metrics["features.write_values_per_s"] = rate(
        saves * values, metrics["features.save_feature_table.self_s"])
    paths = {str(args[0]) for args, _, _ in tracer.captured["features.load_feature_table"]}
    metrics["features.parse_unique_ratio"] = rate(len(paths), loads)

    trains = calls.get("model.train", 0)
    batches = samples = 0
    if plan.model is not None:  # computed: epochs x ceil(n_train / batch)
        epochs, batch = plan.model["epochs"], plan.model["batch_size"]
        batches = epochs * math.ceil(plan.n_train / batch)
        samples = epochs * plan.n_train
    train_s = metrics["model.train.self_s"]
    metrics["model.train.batches"] = batches if trains else 0
    metrics["model.train.batches_per_s"] = rate(trains * batches, train_s)
    metrics["model.train.samples_per_s"] = rate(trains * samples, train_s)

    n = residual = 0
    for args, kwargs, (eigenvalues, vectors) in tracer.captured[
            "structure_builder.symmetric_eigen"]:
        a = np.asarray(args[0], dtype=np.float64)
        a = (a + a.T) / 2.0
        n = max(n, a.shape[0])
        residual = max(residual, float(np.abs(a @ vectors - vectors * eigenvalues).max()))
    metrics["structure_builder.symmetric_eigen.n"] = n
    metrics["structure_builder.symmetric_eigen.residual"] = residual

    if None not in references:
        metrics["reference.s"] = statistics.median(references)
    metrics["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for command in COMMANDS:
        child = children.get(command)
        metrics[f"cli.{command}.s"] = child.wall_s if child else 0.0
    in_layers = sum(v for k, v in self_s.items() if not k.startswith("cli."))
    metrics["trace.coverage"] = in_layers / traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


# -- reporting ------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
        "system": platform.platform(),
    }


def load_metric_units() -> dict:
    """name -> (unit, section) for every metric BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {}
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            units[metric["name"]] = (metric["unit"], section)
    return units


def unit_of(name: str, units: dict) -> str:
    """The declared unit, or one read off the name of a reported-only metric."""
    if name in units:
        return units[name][0]
    if name.endswith(".calls"):
        return "count"
    if name.endswith(("_s", "_s.passes", "_s.repeats", "_s.runs")):
        return "s"
    return "ratio"  # accuracy, f_ha, ari, failed_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "hierfusion" / "cli.py").is_file():
        print(f"bench: no hierfusion sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for name in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    units = load_metric_units()

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    ledger = Ledger(deadline=time.perf_counter() + RUN_LIMIT_S)

    setups, imports = [], []
    for i in range(SETUP_REPEATS):
        setup_dir = run_dir / f"setup-{i}"
        plan = make_plan(args.workload, args.seed, setup_dir, args.smoke)
        setup_s, import_s = setup(plan, setup_dir, ledger)
        setups.append(setup_s)
        imports.append(import_s)
    inputs = {digest(run_dir / f"setup-{i}" / "gen-synthetic")
              for i in range(SETUP_REPEATS) if plan.setup_commands}
    if len(inputs) > 1:
        ledger.fail("set-up inputs differ between repeats with the same seed")
    plan = make_plan(args.workload, args.seed, run_dir / "setup-0", args.smoke)

    if args.trace:
        found = trace_pass(plan, run_dir, ledger, WORK / f"{tag}.spans.jsonl")
        found["cli.import_s"] = statistics.median(imports)
    else:
        found = measure(plan, run_dir, args.seconds, ledger)
        found["setup_s"] = statistics.median(setups)
        found["setup_s.repeats"] = setups
        found["quality"] = found.get("ari", found.get("accuracy"))

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [name for name, (_, s) in units.items() if s == section]
    missing = [name for name in wanted if found.get(name) is None]
    for name in missing:
        ledger.fail(f"metric {name} was not measured")
    correct = ledger.failed == 0
    found["failed_ops"] = ledger.failed / ledger.attempted
    env = environment()

    print(f"# environment: {json.dumps(env)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{ledger.attempted} commands attempted, {ledger.failed} failed")
    for name, value in found.items():
        print(f"{name:48s} {value!r} {unit_of(name, units)}")
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "environment": env, "metrics": found,
               "errors": ledger.errors}
    (WORK / f"{tag}.results.json").write_text(json.dumps(results, indent=2) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    line = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": found[name], "unit": units[name][0]}
                    for name in wanted if name not in missing},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
