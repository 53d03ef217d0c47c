"""Static checks that stand in for a linter over the package and the tests:
every imported name is read in its module, every name a qcatlab module
lists in __all__ exists and is read in the package or the benchmark, and
every private module-level name the package defines is read somewhere in
the package, and halving mod p is written only in arith.  bench/ is read
for its names only, not linted."""

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


def _private_definitions(path: Path) -> list[tuple[str, str]]:
    """(name, 'file:line') for each module-level _name (not __dunder__) the
    file defines by def, class or assignment."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, f"{path.relative_to(ROOT)}:{node.lineno}") for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _read_names(files) -> set[str]:
    """Every name the files load, as a bare name or as an attribute."""
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_private_names_are_read_in_the_package():
    # a private helper that only the tests read belongs in tests/oracles.py
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "models.py" in files, "package sources not found"
    read = _read_names(files)
    unread = [f"{where}: {name}" for path in files
              for name, where in _private_definitions(path) if name not in read]
    assert not unread, "defined and read nowhere in src/qcatlab:\n" + "\n".join(unread)


def _traced_names() -> set[str]:
    """The function names bench/tracer.py's TRACED wraps."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    return {name for _, name in ast.literal_eval(value)}


def test_public_names_are_read_in_the_package_or_the_benchmark():
    # a public name that only the tests read belongs in tests/oracles.py
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "models.py" in files, "package sources not found"
    read = _read_names(files) | _read_names(sorted((ROOT / "bench").glob("*.py")))
    read |= _traced_names()
    unread = [f"{path.relative_to(ROOT)}: {name}" for path in files
              for name in sorted(_listed_in_all(ast.parse(path.read_text())))
              if name not in read]
    assert not unread, ("listed in __all__ and read nowhere in src/qcatlab or bench/:\n"
                        + "\n".join(unread))


def test_halving_mod_p_is_written_only_in_arith():
    # (p + 1) // 2 is the inverse of 2: every other module halves by half_mod
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "arith.py" in files, "package sources not found"
    written = [f"{path.relative_to(ROOT)}:{n}" for path in files if path.name != "arith.py"
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if "(p + 1) // 2" in line]
    assert not written, "halved mod p outside arith.half_mod:\n" + "\n".join(written)
