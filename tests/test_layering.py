"""Which modules of ecoprod may import which.  The algorithm modules work on
arrays, and the records of `ecoprod.dataset` stop at the stages in `cli`, so
`spectral` needs nothing of the package but its errors, seeding and the one
process pool in `parallel`, which in turn needs nothing but the errors; and
no module but `cli` itself reaches into `cli`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ecoprod"


def package_imports(path: Path) -> set[str]:
    """The ecoprod modules that the module at `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x import ... / from . import x
            names.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ecoprod":
            rest = node.module.split(".")[1:]
            names.update(rest[:1] or (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ecoprod."))
    return names


def test_spectral_imports_only_errors_seeding_and_parallel():
    assert package_imports(SRC / "spectral.py") <= {"errors", "seeding", "parallel"}


def test_importing_spectral_loads_only_errors_seeding_and_parallel():
    """The package `__init__` imports nothing, so `import ecoprod.spectral`
    loads no module of the package that spectral.py does not import."""
    code = ("import sys, ecoprod.spectral\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('ecoprod.'))))")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["ecoprod.errors", "ecoprod.parallel", "ecoprod.seeding", "ecoprod.spectral"]


def test_parallel_imports_only_errors():
    assert package_imports(SRC / "parallel.py") <= {"errors"}


def test_only_cli_imports_cli():
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if path.stem != "cli" and "cli" in package_imports(path)]
    assert importers == []


def test_package_imports_reads_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import ecoprod.cli\nfrom ecoprod import dea\nfrom ecoprod.gbm import kmeans\n"
                      "from . import lp\nfrom .errors import ConfigError\n", encoding="utf-8")
    assert package_imports(module) == {"cli", "dea", "gbm", "lp", "errors"}
