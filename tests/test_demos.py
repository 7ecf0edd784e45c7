"""Every script in demos/ and every ```python block of README.md runs to
completion against the library, with every warning an error as in the
rest of the suite."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
    )


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_exits_zero(tmp_path, demo):
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_zero(tmp_path, block):
    result = _run(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
