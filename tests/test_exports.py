import ast
import importlib
from pathlib import Path

import halfpoisson


def test_package_reexports_only_public_names():
    """Every name ``halfpoisson/__init__.py`` imports from a submodule is in
    that submodule's ``__all__``."""
    tree = ast.parse(Path(halfpoisson.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"halfpoisson.{node.module}")
        missing = [a.name for a in node.names if a.name not in mod.__all__]
        assert not missing, f"{node.module}.__all__ lacks {missing}"
