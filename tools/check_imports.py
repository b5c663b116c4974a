#!/usr/bin/env python3
"""Import lint: eager products and differences stay at construction sites.

Classification and consistency paths answer emptiness questions with
the lazy engine (``repro.afsa.lazy``, ``k_language_included``); they
never materialize an eager product or difference automaton.  This lint
enforces that boundary by *import*, not by name: it parses every module
of ``src/repro`` outside the ``repro.afsa`` package and fails when one
imports a forbidden constructor —

* ``repro.afsa.product.intersect`` and ``repro.afsa.difference.difference``
  (the public operators),
* ``repro.afsa.kernel.k_intersect`` and ``repro.afsa.kernel.k_difference``
  (the kernel constructions behind them)

— however it is reached: ``from … import`` (aliased, relative, or via a
package that re-exports the name, such as ``repro.afsa``), or an
attribute of an imported module (``import repro.afsa.product as p`` then
``p.intersect``).  :data:`ALLOWED` names the construction sites: each
may import the constructors listed for it, for the stated reason, and
an allowlisted import that is gone is reported too, so the list stays
exact.

Used by CI and mirrored by ``tests/test_import_lint.py``.

Usage:  python tools/check_imports.py [SRC_ROOT]   (default: src/repro)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: The forbidden constructors, as (defining module, name).
FORBIDDEN = frozenset(
    {
        ("repro.afsa.product", "intersect"),
        ("repro.afsa.difference", "difference"),
        ("repro.afsa.kernel", "k_intersect"),
        ("repro.afsa.kernel", "k_difference"),
    }
)

#: Modules (relative to the ``repro`` package) that may import some
#: of them: ``module -> (allowed constructors, reason)``.
ALLOWED = {
    "core/propagate.py": (
        {"repro.afsa.kernel.k_difference"},
        "Sect. 5.2/5.3 steps 1-2 construct A'' and the proposal B' - "
        "the one Fig. 4 step whose output is an automaton",
    ),
    "scenario/figures.py": (
        {"repro.afsa.product.intersect"},
        "reproduces the paper's Fig. 5 intersection automaton for display",
    ),
    "__init__.py": (
        {"repro.afsa.product.intersect", "repro.afsa.difference.difference"},
        "the package's public API re-exports the operator algebra; "
        "it constructs nothing",
    ),
}

#: The package whose modules define and may freely use the operators.
EXEMPT_PACKAGE = "afsa"


class _Resolver:
    """Resolves names imported from ``repro`` modules to the module
    that defines them, following re-exports through the source tree."""

    def __init__(self, root: Path):
        self.root = root
        self._bindings: dict = {}

    def module_path(self, module: str) -> Path | None:
        """The source file of a ``repro`` module, or None."""
        parts = module.split(".")
        if parts[0] != self.root.name:
            return None
        base = self.root.joinpath(*parts[1:])
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                return candidate
        return None

    def _imports_of(self, module: str) -> dict:
        """``name -> (source module, source name)`` for every
        ``from … import`` binding at the top level of *module*."""
        if module not in self._bindings:
            bindings: dict = {}
            path = self.module_path(module)
            if path is not None:
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in tree.body:
                    if isinstance(node, ast.ImportFrom):
                        source = absolute_module(module, path, node)
                        for alias in node.names:
                            bindings[alias.asname or alias.name] = (
                                source,
                                alias.name,
                            )
            self._bindings[module] = bindings
        return self._bindings[module]

    def origin(self, module: str, name: str, depth: int = 0) -> tuple:
        """Follow ``module.name`` through re-exports to its definition.

        Returns ``(module, name)`` of the defining site; a name that is
        itself a submodule resolves to ``(submodule, None)``.  A package
        binding shadows a submodule of the same name, as at run time
        (``repro.afsa.difference`` the function, not the module).
        """
        if (module, name) in FORBIDDEN or depth > 8:
            return module, name
        source = self._imports_of(module).get(name)
        if source is not None:
            return self.origin(source[0], source[1], depth + 1)
        submodule = f"{module}.{name}"
        if self.module_path(submodule) is not None:
            return submodule, None
        return module, name


def absolute_module(module: str, path: Path, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in *module* refers to."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def violations(path: Path, module: str, resolver: _Resolver) -> list:
    """``(line, text)`` of every forbidden import in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list = []
    module_aliases: dict = {}

    def flag(node, source, name):
        found.append((node.lineno, f"{source}.{name}"))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = absolute_module(module, path, node)
            for alias in node.names:
                origin = resolver.origin(source, alias.name)
                if origin in FORBIDDEN:
                    flag(node, *origin)
                elif origin[1] is None:
                    module_aliases[alias.asname or alias.name] = origin[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module_aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    module_aliases[top] = top
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node.value)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if head not in module_aliases:
                continue
            target = module_aliases[head] + ("." + rest if rest else "")
            if resolver.origin(target, node.attr) in FORBIDDEN:
                flag(node, target, node.attr)
    return sorted(set(found))


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute accesses on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def check(root: Path) -> list:
    """All lint failures under the ``repro`` source *root*, as
    printable lines (empty when the tree is clean)."""
    resolver = _Resolver(root)
    failures: list = []
    used: set = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] == EXEMPT_PACKAGE:
            continue
        module = ".".join((root.name, *relative.with_suffix("").parts))
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        key = relative.as_posix()
        allowed = ALLOWED.get(key, (set(), ""))[0]
        for lineno, name in violations(path, module, resolver):
            if name in allowed:
                used.add((key, name))
                continue
            failures.append(
                f"{root.name}/{key}:{lineno}: imports {name} "
                "(classification and consistency paths must not "
                "materialize a product or a difference; use "
                "repro.afsa.lazy / k_language_included)"
            )
    for key, (names, _) in sorted(ALLOWED.items()):
        for name in sorted(names):
            if (key, name) not in used:
                failures.append(
                    f"{root.name}/{key}: allowlisted {name} is not "
                    "imported any more; drop it from ALLOWED"
                )
    return failures


def main(argv) -> int:
    """CLI entry: print failures, exit 1 when any."""
    root = Path(argv[0]) if argv else Path("src/repro")
    failures = check(root.resolve())
    for line in failures:
        print(line)
    if failures:
        print(f"{len(failures)} import lint failure(s)")
        return 1
    print(f"import lint OK ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
