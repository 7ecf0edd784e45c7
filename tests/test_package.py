"""The package root's public surface, and import hygiene in its modules."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hierfusion
from hierfusion import model

SRC = Path(hierfusion.__file__).parent

PUBLIC = """
    AffinityMatrix CheckpointError ClassStats ClassTooSmall DegeneratePoints
    DimensionMismatch DivergedLoss DuplicateSubclass EigensolverFailure
    EmptyBatch EmptySuperclass EvalReport FeatureFileError FeatureTable
    FusionConfig FusionModel HierFusionError IdOutOfRange InvalidConfig
    InvalidSpec InvalidValue IsolatedClass LabelStructure MalformedRow
    NonFiniteValue OrphanSubclass PredictionBatch SpectralEmbedding
    StructureError StructureScores StructureSet SubclassSpaceMismatch
    SyntheticSpec TrainHistory UnknownLabel UnknownSubclass UnknownSuperclass
    adjusted_rand_index affinity_matrix build_visual_structure
    class_distance_matrix class_statistics derive_seed dump_json evaluate
    format_float forward generate_synthetic gradient_check init_model kmeans
    lca_heights load_checkpoint load_feature_table load_predictions
    load_structure load_structure_set predict rng_from_seed save_checkpoint
    save_feature_table save_history save_predictions save_structure
    select_rows spectral_embedding split_rows symmetric_eigen train train_stacked
    train_test_split validate_structure
""".split()


def test_all_is_the_sorted_public_surface():
    assert hierfusion.__all__ == PUBLIC == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_a_library_class_or_function(name):
    value = getattr(hierfusion, name)
    assert inspect.isclass(value) or inspect.isfunction(value)
    assert value.__module__.startswith("hierfusion.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_a_star_import_binds_exactly_all():
    namespace = {}
    exec("from hierfusion import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == hierfusion.__all__


def fresh(script: str) -> list:
    """The stdout words of `script` run in a new interpreter."""
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_does_not_load_the_trainer():
    assert fresh("import sys, hierfusion; print('hierfusion.model' in sys.modules)") \
        == ["False"]


def test_the_cli_loads_no_argument_parser_and_no_other_package_module():
    # the command line is parsed by hand; bench/tracing.py needs every layer
    # module the commands call loaded with the CLI
    assert fresh(
        "import sys, hierfusion.cli\n"
        "print('argparse' in sys.modules, *sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'hierfusion'))\n"
    ) == ["False", "hierfusion", "hierfusion.cli", "hierfusion.config",
          "hierfusion.exceptions", "hierfusion.features", "hierfusion.metrics",
          "hierfusion.rng", "hierfusion.serialization",
          "hierfusion.structure_builder", "hierfusion.taxonomy", "hierfusion.workers"]


def test_a_trainer_name_loads_the_trainer_on_first_access():
    assert fresh(
        "import sys, hierfusion\n"
        "from hierfusion import train_stacked\n"
        "model = sys.modules['hierfusion.model']\n"
        "print(train_stacked is model.train_stacked, hierfusion.train is model.train)\n"
    ) == ["True", "True"]


def test_each_layer_function_the_benchmark_traces_is_a_function_of_its_module():
    # bench/tracing.py wraps these by name for the --trace pass, so a
    # rename here would break that pass alone
    tree = ast.parse((SRC.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]]
    for module, names in traced.items():
        namespace = importlib.import_module(f"hierfusion.{module}")
        for name in names:
            value = getattr(namespace, name, None)
            assert inspect.isfunction(value), f"hierfusion.{module}.{name}"
            assert value.__module__ == namespace.__name__, f"hierfusion.{module}.{name}"


def test_the_model_section_class_is_the_trainers():
    assert hierfusion.FusionConfig is model.FusionConfig


def test_dir_lists_every_public_name():
    assert set(hierfusion.__all__) <= set(dir(hierfusion))


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hierfusion.no_such_name
    with pytest.raises(ImportError):
        exec("from hierfusion import no_such_name", {})


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []


def _byte_layout_calls(path: Path) -> list:
    """Each readinto or from_bytes attribute and struct import in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("readinto", "from_bytes"):
            found.append(f"{path.name}:{node.lineno}: {node.attr}")
        imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                    else [node.module] if isinstance(node, ast.ImportFrom) else [])
        if "struct" in imported:
            found.append(f"{path.name}:{node.lineno}: import struct")
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "serialization.py"),
                         ids=lambda p: p.name)
def test_only_serialization_lays_out_bytes(path):
    # a binary file's layout is known to serialization.save_frame/load_frame alone
    assert _byte_layout_calls(path) == []


def _float_formats(path: Path) -> list:
    """Each string in the code of `path`, docstrings aside, that holds a
    ``.17g`` format."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".17g" in node.value and id(node) not in docstrings]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "serialization.py"),
                         ids=lambda p: p.name)
def test_only_serialization_formats_float_text(path):
    # every float the toolkit writes is serialization.format_float's text
    assert _float_formats(path) == []


def _worker_calls(path: Path) -> list:
    """Each use of os.fork, os.sched_setaffinity or worker_count in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        names = ([alias.name for alias in node.names]
                 if isinstance(node, ast.ImportFrom) else [])
        for used in {name, *names} & {"fork", "sched_setaffinity", "worker_count"}:
            found.append(f"{path.name}:{node.lineno}: {used}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "workers.py"),
                         ids=lambda p: p.name)
def test_only_workers_forks_or_counts_workers(path):
    # how work is cut into parts and run on CPUs is known to workers.py alone
    assert _worker_calls(path) == []


_PLAN_STEPS = ("_load_table", "build_visual_structure", "split_rows")


def _plan_step_calls(path: Path, steps=_PLAN_STEPS) -> list:
    """Each call in `path` of one of `steps`, by default those that make a
    run's sides or structures, as "<innermost enclosing function>: <step>";
    a step called as an attribute (``features.step(...)``) counts too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for function in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(function, ast.FunctionDef):
            owner.update((id(node), function.name) for node in ast.walk(function))
    called = ((node, getattr(node.func, "id", getattr(node.func, "attr", None)))
              for node in ast.walk(tree) if isinstance(node, ast.Call))
    return sorted(f"{owner.get(id(node), '<module>')}: {name}"
                  for node, name in called if name in steps)


def test_only_the_run_plan_makes_sides_and_structures():
    # every command gets its sides and structures from cli._runs, so a k
    # sweep scores what build-structure would write under the same config
    assert _plan_step_calls(SRC / "cli.py") == [f"_runs: {step}" for step in _PLAN_STEPS]


def test_the_cli_gathers_no_training_side():
    # a run trains and induces on its table's rows in place; train_test_split
    # would gather both sides of every split
    assert _plan_step_calls(SRC / "cli.py", ("train_test_split",)) == []


_HEAD_FIELDS = {"subclass_weight", "subclass_bias", "super_weights", "super_biases"}


def test_only_the_model_class_and_the_head_list_read_head_fields():
    # the subclass head is head 0 of model._heads, so the forward pass, the
    # training step and gradient_check treat every head alike
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    readers = {getattr(top, "name", "<module>") for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr in _HEAD_FIELDS}
    assert sorted(readers) == ["FusionModel", "_heads"]
