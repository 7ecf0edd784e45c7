"""Every error class the library declares is one it can raise."""

import ast
from pathlib import Path

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
    classes = [value for value in vars(hierfusion.exceptions).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == hierfusion.exceptions.__name__]
    raised = [c for c in classes if c.__name__ in _raised_names()]
    dead = [c.__name__ for c in classes
            if not any(issubclass(r, c) for r in raised)]
    assert dead == []
