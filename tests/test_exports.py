import ast
import importlib
import sys
from pathlib import Path

import halfpoisson


def test_package_reexports_only_public_names():
    """Every name ``halfpoisson/__init__.py`` imports from a submodule is in
    that submodule's ``__all__``, and every name in that ``__all__`` exists
    in the submodule and is the same object under the package."""
    tree = ast.parse(Path(halfpoisson.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"halfpoisson.{node.module}")
        missing = [a.name for a in node.names if a.name not in mod.__all__]
        assert not missing, f"{node.module}.__all__ lacks {missing}"
        absent = [a for a in mod.__all__ if not hasattr(mod, a)]
        assert not absent, f"{node.module}.__all__ names {absent}, which it lacks"
        hidden = [a for a in mod.__all__
                  if getattr(halfpoisson, a, None) is not getattr(mod, a)]
        assert not hidden, f"halfpoisson does not re-export {node.module}.{hidden}"


def test_runtime_imports_only_the_stdlib_and_numpy():
    """Every import in ``src/halfpoisson``, function-level ones included,
    names a standard-library module, NumPy or the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "halfpoisson"}
    sources = sorted(Path(halfpoisson.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside the stdlib and NumPy: {foreign}"
