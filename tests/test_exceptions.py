"""Every error class the library declares is one it can raise, and
survives the pickle round trip that carries it out of a forked worker."""

import ast
import pickle
from pathlib import Path

import pytest

import hierfusion.exceptions

SRC = Path(hierfusion.exceptions.__file__).parent


def _raised_names() -> set:
    """Names of the classes that a `raise` under the package raises, or
    that a call is handed as the error it raises (a name-table converter
    is given the class to raise for a repeated name)."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.Call):
                names.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    return names


def test_every_error_class_is_raised_or_a_base_of_one():
    classes = _classes()
    raised = [c for c in classes if c.__name__ in _raised_names()]
    dead = [c.__name__ for c in classes
            if not any(issubclass(r, c) for r in raised)]
    assert dead == []


def _classes():
    return [value for value in vars(hierfusion.exceptions).values()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == hierfusion.exceptions.__name__]


# The arguments each class is raised with; a class not named takes a message.
_ARGUMENTS = {
    "ClassTooSmall": [(0,), (3, "class 3: split 0/4 leaves a side empty"), (0, "x")],
    "DivergedLoss": [(1, 2), (1, 2, 3), (0, 8, "lambda 0.2, seed 1")],
}


@pytest.mark.parametrize("cls", _classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_survives_a_pickle_round_trip(cls):
    for args in _ARGUMENTS.get(cls.__name__, [("path:3: a message",)]):
        error = cls(*args)
        back = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls
        assert vars(back) == vars(error)
        assert str(back) == str(error)
        assert back.args == error.args
