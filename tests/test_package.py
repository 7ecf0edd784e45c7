"""The package root's public surface, and import hygiene in its modules."""

import ast
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
    spectral_embedding stack_key symmetric_eigen train train_stacked
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


def test_a_trainer_name_loads_the_trainer_on_first_access():
    assert fresh(
        "import sys, hierfusion\n"
        "from hierfusion import train_stacked\n"
        "model = sys.modules['hierfusion.model']\n"
        "print(train_stacked is model.train_stacked, hierfusion.train is model.train)\n"
    ) == ["True", "True"]


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
