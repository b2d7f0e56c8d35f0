"""The README's "Library entry points" block names the public API.  A rename
or deletion there leaves every other test passing, so this test runs the
block as written, in a fresh interpreter that imports ecoprod from `src`."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_entry_points_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library entry points\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert block, "no python block opens the README's Library entry points section"
    result = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
