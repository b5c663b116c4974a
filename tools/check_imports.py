#!/usr/bin/env python3
"""Import lint: eager automata are built only where they belong, and
shared memory and the process environment nowhere.

Four boundaries, all checked on the AST of every module of
``src/repro``:

1. **Eager products and differences stay at construction sites.**
   Classification and consistency paths answer emptiness questions
   with the lazy engine (``repro.afsa.lazy``, ``k_language_included``);
   they never materialize an eager product or difference automaton.
   Every module outside the ``repro.afsa`` package fails when it
   imports a forbidden constructor —

   * ``repro.afsa.product.intersect`` and
     ``repro.afsa.difference.difference`` (the public operators),
   * ``repro.afsa.kernel.k_intersect`` and
     ``repro.afsa.kernel.k_difference`` (the kernel constructions
     behind them)

   — however it is reached: ``from … import`` (aliased, relative, or
   via a package that re-exports the name, such as ``repro.afsa``), or
   an attribute of an imported module (``import repro.afsa.product as
   p`` then ``p.intersect``).  :data:`ALLOWED` names the construction
   sites: each may import the constructors listed for it, for the
   stated reason.

2. **A validated ``AFSA(...)`` is built only at input boundaries.**
   The validating constructor normalizes and re-checks everything it
   is given; automata derived on the kernel are materialized through
   ``repro.afsa.kernel.materialize`` (the trusted path) instead.  Every
   call of ``repro.afsa.automaton.AFSA`` — by any imported name,
   module attribute, or the class's own name in its module — must sit
   in a function listed in :data:`CONSTRUCTION_SITES` with its reason.

3. **No shared-memory segment is ever created.**  Kernel payloads
   reach shards over their own connections (fetch-on-miss), so no
   module — ``repro.afsa`` included — may import
   ``multiprocessing.shared_memory``, ``SharedMemoryManager`` or
   ``_posixshmem``, by ``import``, ``from … import``, a ``repro``
   module that re-exports it, or an attribute of an imported module.
   A static rule, unlike a ``/dev/shm`` diff, cannot be failed by
   another process on the same host.

4. **No module reads or writes the process environment.**  What the
   library does is set by its arguments alone, so no module —
   ``repro.afsa`` included — may reach ``os.environ``,
   ``os.environb``, ``os.getenv``, ``os.putenv`` or ``os.unsetenv``,
   by any import alias, ``from … import``, a ``repro`` module that
   re-exports it, or an attribute of an imported module.

Each module is parsed once: every name it imports or reaches through
an imported module is resolved to its defining site, and boundaries
1, 3 and 4 filter that one list.  An allowlisted import or construction
that is gone is reported too, so both lists stay exact.

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

#: The validating constructor, as (defining module, name).
VALIDATING = ("repro.afsa.automaton", "AFSA")

#: Functions (``module::qualified name``, module relative to the
#: ``repro`` package) that may call the validating constructor, with
#: the reason each one is an input boundary.
CONSTRUCTION_SITES = {
    "afsa/serialize.py::afsa_from_dict": (
        "JSON input: partner-exchange documents, CLI files and service "
        "payloads are untrusted and must be validated"
    ),
    "afsa/automaton.py::AFSABuilder.build": (
        "the builder is the input boundary for incrementally assembled "
        "automata (the compiler's raw automaton, figures, tests)"
    ),
    "afsa/automaton.py::AFSA.trimmed": (
        "public rebuild helper on a caller-supplied automaton; not on "
        "any compile, projection or serving path"
    ),
    "afsa/automaton.py::AFSA.relabel_states": (
        "public renaming helper for rendering caller-supplied "
        "automata; not on any compile, projection or serving path"
    ),
    "workload/generator.py::random_afsa": (
        "workload generator: synthesizes fresh random automata"
    ),
    "workload/generator.py::random_annotated_afsa": (
        "workload generator: synthesizes fresh random automata"
    ),
}


#: Shared-memory modules and names (dotted) no module may import.
SHARED_MEMORY = (
    "multiprocessing.shared_memory",
    "multiprocessing.managers.SharedMemoryManager",
    "_posixshmem",
)

#: The process environment's names (dotted) no module may reach.
ENVIRONMENT = (
    "os.environ",
    "os.environb",
    "os.getenv",
    "os.putenv",
    "os.unsetenv",
)


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


class _Imports:
    """What the names of one parsed module refer to: every imported
    module and ``from … import`` binding resolved to its defining site,
    and every module alias usable in attribute chains."""

    def __init__(self, tree, module: str, path: Path, resolver: _Resolver):
        self.resolver = resolver
        #: ``(line, bound name, origin)`` per imported name; an
        #: ``import`` entry's origin is ``(module, None)``.
        self.bindings: list = []
        self.module_aliases: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = absolute_module(module, path, node)
                for alias in node.names:
                    origin = resolver.origin(source, alias.name)
                    bound = alias.asname or alias.name
                    self.bindings.append((node.lineno, bound, origin))
                    if origin[1] is None:
                        self.module_aliases[bound] = origin[0]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.bindings.append(
                        (node.lineno, bound, (alias.name, None))
                    )
                    self.module_aliases[bound] = (
                        alias.name if alias.asname else bound
                    )

    def attribute_origin(self, node: ast.Attribute) -> tuple | None:
        """The defining site of ``alias.….name``, or None when the
        chain does not start at a module alias."""
        dotted = _dotted(node.value)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head not in self.module_aliases:
            return None
        target = self.module_aliases[head] + ("." + rest if rest else "")
        return self.resolver.origin(target, node.attr)

    def named(self, tree) -> list:
        """``(line, dotted origin, origin)`` of every name the module
        imports or reaches as an attribute of an imported module,
        resolved to its defining site."""
        found = {(lineno, origin) for lineno, _, origin in self.bindings}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                origin = self.attribute_origin(node)
                if origin is not None:
                    found.add((node.lineno, origin))
        return sorted(
            (lineno, ".".join(part for part in origin if part), origin)
            for lineno, origin in found
        )


def constructions(tree, module: str, imports: _Imports) -> list:
    """``(line, qualified function name)`` of every call of the
    validating ``AFSA`` constructor in one parsed module."""
    names = {
        bound for _, bound, origin in imports.bindings if origin == VALIDATING
    }
    if module == VALIDATING[0]:
        names.add(VALIDATING[1])

    def validating(func) -> bool:
        if isinstance(func, ast.Name):
            return func.id in names
        if isinstance(func, ast.Attribute):
            return imports.attribute_origin(func) == VALIDATING
        return False

    found: list = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and validating(child.func):
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


def within(name: str, banned: tuple) -> bool:
    """Whether dotted *name* is, or lies inside, one of the *banned*
    modules or names."""
    return any(
        name == entry or name.startswith(entry + ".") for entry in banned
    )


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
    built: set = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        module = ".".join((root.name, *relative.with_suffix("").parts))
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        key = relative.as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = _Imports(tree, module, path, resolver)
        named = imports.named(tree)
        for lineno, name, _ in named:
            if within(name, SHARED_MEMORY):
                failures.append(
                    f"{root.name}/{key}:{lineno}: imports {name} (the "
                    "runtime creates no shared-memory segment; kernel "
                    "payloads reach shards over their connections)"
                )
            if within(name, ENVIRONMENT):
                failures.append(
                    f"{root.name}/{key}:{lineno}: reaches {name} (no "
                    "module reads or writes the process environment; "
                    "behaviour is set by arguments)"
                )
        for lineno, scope in constructions(tree, module, imports):
            site = f"{key}::{scope}"
            if site in CONSTRUCTION_SITES:
                built.add(site)
                continue
            failures.append(
                f"{root.name}/{key}:{lineno}: builds a validated AFSA in "
                f"{scope} (only input boundaries validate; materialize "
                "kernel results with repro.afsa.kernel.materialize)"
            )
        if relative.parts[0] == EXEMPT_PACKAGE:
            continue
        allowed = ALLOWED.get(key, (set(), ""))[0]
        for lineno, name, origin in named:
            if origin not in FORBIDDEN:
                continue
            if name in allowed:
                used.add((key, name))
                continue
            failures.append(
                f"{root.name}/{key}:{lineno}: imports {name} "
                "(classification and consistency paths must not "
                "materialize a product or a difference; use "
                "repro.afsa.lazy / k_language_included)"
            )
    for site in sorted(set(CONSTRUCTION_SITES) - built):
        failures.append(
            f"{root.name}/{site}: allowlisted construction site does "
            "not build a validated AFSA any more; drop it from "
            "CONSTRUCTION_SITES"
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
