"""natstrat has no runtime dependency beyond the standard library: every
absolute import under src/natstrat names a standard-library module or
natstrat itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "natstrat"


def _absolute_imports(path: Path):
    """(line, top-level module name) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "model.py" in modules and PACKAGE / "casestudy" / "__init__.py" in modules
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules for line, name in _absolute_imports(path)
               if name != "natstrat" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_a_foreign_import_is_seen(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os.path\nfrom numpy import array\nfrom . import model\n")
    names = [name for _, name in _absolute_imports(src)]
    assert names == ["os", "numpy"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy"]
