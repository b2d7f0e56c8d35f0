"""The README's "Library entry points" block names the public API and its
"Pipeline config" table the config keys.  A rename or deletion there leaves
every other test passing, so one test runs the block as written, in a fresh
interpreter that imports ecoprod from `src`, and one compares the table's
keys with those `cli.PipelineConfig` accepts."""

import dataclasses
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

from ecoprod import cli

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


def _readme_config_keys() -> set[str]:
    """Dotted keys of the README's "Pipeline config" table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Pipeline config\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows[0].replace(" ", "") == "|section|key|type|default|", rows[0]
    keys = set()
    for row in rows[2:]:  # past the header and its rule
        prefix, names = row.split("|")[1:3]
        prefix = prefix.strip().strip("`")
        keys.update(f"{prefix}.{name}" if prefix else name for name in re.findall(r"`([^`]+)`", names))
    return keys


def _accepted_config_keys(cls, prefix: str = "") -> set[str]:
    """Dotted keys `cli.PipelineConfig` accepts, renamed sections included."""
    keys = cli._JSON_KEYS.get(prefix) or {f.name: f.name for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    accepted = set()
    for key, name in keys.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if dataclasses.is_dataclass(hints[name]):
            accepted |= _accepted_config_keys(hints[name], dotted)
        else:
            accepted.add(dotted)
    return accepted


def test_readme_config_table_lists_every_accepted_key():
    assert _readme_config_keys() == _accepted_config_keys(cli.PipelineConfig)
