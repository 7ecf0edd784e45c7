"""The oracles stay independent of the library paths they check."""

import ast
from pathlib import Path

# What tests/oracles.py may import from the package: its exceptions, and
# the structure file representation it walks.
ALLOWED = {
    "hierfusion.exceptions": None,  # any name
    "hierfusion.taxonomy": {"structure_to_dict", "validate_structure"},
}


def test_oracles_import_only_exceptions_and_the_structure_file_form():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "hierfusion", alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hierfusion":
                assert module in ALLOWED, module
                names = {alias.name for alias in node.names}
                allowed = ALLOWED[module]
                assert allowed is None or names <= allowed, names - allowed
