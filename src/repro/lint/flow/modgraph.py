"""Module graph — the whole package parsed once, imports resolved.

The flow session's foundation: every ``.py`` file under one package
root is parsed into a :class:`ModuleInfo`, and each module's import
statements are resolved into a *binding map* from local names to the
dotted path of the thing they name (module, class, or function).
Bindings into the analyzed package feed the call graph; stdlib and
third-party bindings stay as plain dotted names, which is exactly what
the determinism source tables key on (``time``, ``random``, …).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Directory names never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".hypothesis",
    ".benchmarks",
})


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed package."""

    name: str       #: dotted module name (``repro.memo.engine``)
    path: str       #: filesystem path (as reported in findings)
    source: str     #: full source text
    tree: ast.Module
    #: local name -> dotted target. ``from repro.memo.compile import
    #: compile_segment as cs`` binds ``cs`` to
    #: ``repro.memo.compile.compile_segment``; ``import repro.memo``
    #: binds ``repro`` to ``repro``.
    bindings: Dict[str, str] = field(default_factory=dict)


class ModuleGraph:
    """Every module of one package, with import bindings resolved."""

    def __init__(self, package: str, modules: Dict[str, ModuleInfo]):
        self.package = package
        self.modules = modules
        #: path -> ModuleInfo for finding attribution.
        self.by_path = {info.path: info for info in modules.values()}

    @classmethod
    def build(cls, root: str,
              package: Optional[str] = None) -> "ModuleGraph":
        """Parse every ``.py`` file under the package rooted at
        directory *root*. *package* defaults to the root directory's
        basename."""
        root = os.path.abspath(root)
        if package is None:
            package = os.path.basename(root.rstrip(os.sep))
        modules: Dict[str, ModuleInfo] = {}
        paths = []
        for dirpath, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    paths.append(os.path.join(dirpath, name))
        for path in paths:
            relative = os.path.relpath(path, root)
            parts = relative[:-3].replace(os.sep, "/").split("/")
            if parts[-1] == "__init__":
                parts = parts[:-1]
            name = ".".join([package] + parts) if parts else package
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=path)
            except (OSError, SyntaxError):
                continue  # per-file lint reports these; skip here
            modules[name] = ModuleInfo(name=name, path=path,
                                       source=source, tree=tree)
        graph = cls(package, modules)
        for info in modules.values():
            graph._resolve_imports(info)
        return graph

    # -- import resolution ------------------------------------------------

    def _resolve_imports(self, info: ModuleInfo) -> None:
        # Bindings outside the analyzed package stay as plain dotted
        # names (``perf_counter`` -> ``time.perf_counter``): the call
        # graph ignores them, but taint-source detection keys on the
        # stdlib module they root in.
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    info.bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = self._from_module(info, node)
                if module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.bindings[local] = f"{module}.{alias.name}"
    def _from_module(self, info: ModuleInfo,
                     node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: resolve against the importing module.
        base = info.name.split(".")
        if not self._is_package_module(info):
            base = base[:-1]
        cut = node.level - 1
        if cut:
            base = base[:-cut] if cut < len(base) else []
        if not base:
            return None
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _is_package_module(self, info: ModuleInfo) -> bool:
        return os.path.basename(info.path) == "__init__.py"

    # -- lookups ----------------------------------------------------------

    def split(self, dotted: str):
        """Split *dotted* into ``(module_name, remainder)`` using the
        longest module-name prefix, or ``(None, dotted)``."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate, ".".join(parts[i:])
        return None, dotted
