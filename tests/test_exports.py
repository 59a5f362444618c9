import ast
import importlib
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
