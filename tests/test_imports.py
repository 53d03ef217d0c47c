"""Static checks that stand in for a linter over the package and the tests:
every imported name is read in its module, and every name a qcatlab module
lists in __all__ exists.  bench/ is not scanned."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcatlab"


def _listed_in_all(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for name in ast.literal_eval(node.value)}


def _unused_imports(path: Path) -> list[str]:
    """'file:line: name' for each name the file imports and never reads.
    Exempt: __future__ imports, everything an __init__.py imports (its
    re-exports), names listed in __all__ and lines marked '# noqa: F401'."""
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exempt = read | _listed_in_all(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            name = alias.asname or alias.name.split(".")[0]
            if name not in exempt and "# noqa: F401" not in lines[line - 1]:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return unused


def test_imports_are_read_and_all_resolves():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert PACKAGE / "hecke.py" in files, "package sources not found"
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert not unused, "imported and never read:\n" + "\n".join(unused)
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "qcatlab" if path.stem == "__init__" else f"qcatlab.{path.stem}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", [])
                    if not hasattr(module, name)]
    assert not missing, "listed in __all__ but not defined: " + ", ".join(missing)
