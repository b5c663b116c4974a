"""Import lint mirrored by CI: eager products and differences stay at
their construction sites, validated automata at input boundaries, no
module imports shared memory, and none touches the environment.

Classification and consistency paths (Defs. 5/6, version lookup,
bilateral checks) answer emptiness questions lazily; only propagation
(``core/propagate.py``) and the Fig. 5 reproduction
(``scenario/figures.py``) may import ``intersect``, ``difference``,
``k_intersect`` or ``k_difference`` outside :mod:`repro.afsa`.  And the
validating ``AFSA(...)`` constructor is called only by the allowlisted
input boundaries (JSON input, ``AFSABuilder.build``, the workload
generators, …); views, public processes and propagation results are
materialized from their kernels.  ``tools/check_imports.py`` enforces
both on the AST — aliases, relative imports, package re-exports and
module attributes included — and CI runs the same tool; this test runs
it for local runs and names the offender.  The same walk holds the
third boundary: no module under ``src/repro`` imports
``multiprocessing.shared_memory``, ``SharedMemoryManager`` or
``_posixshmem``, so the runtime cannot create a ``/dev/shm`` segment.
And the fourth: no module reads or writes the process environment
(``os.environ``, ``os.environb``, ``os.getenv``, ``os.putenv``,
``os.unsetenv``), so no setting can reach the library except as an
argument.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_imports import ALLOWED, CONSTRUCTION_SITES, check  # noqa: E402


def test_eager_constructions_stay_at_their_sites():
    failures = check(ROOT / "src" / "repro")
    assert not failures, (
        "eager product/difference imported outside its construction "
        "sites:\n" + "\n".join(failures)
    )


def test_every_construction_site_states_its_reason():
    assert set(CONSTRUCTION_SITES) == {
        "afsa/serialize.py::afsa_from_dict",
        "afsa/automaton.py::AFSABuilder.build",
        "afsa/automaton.py::AFSA.trimmed",
        "afsa/automaton.py::AFSA.relabel_states",
        "workload/generator.py::random_afsa",
        "workload/generator.py::random_annotated_afsa",
    }
    assert all(reason.strip() for reason in CONSTRUCTION_SITES.values())


def test_every_allowlisted_site_states_its_reason():
    assert set(ALLOWED) == {
        "core/propagate.py",
        "scenario/figures.py",
        "__init__.py",
    }
    assert all(
        names and reason.strip() for names, reason in ALLOWED.values()
    )


def _tree(root: Path, files: dict) -> Path:
    for relative, text in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "repro"


def test_lint_follows_aliases_reexports_and_attributes(tmp_path):
    """Every way of reaching a forbidden constructor is caught, and a
    lazy import is not."""
    src = _tree(
        tmp_path,
        {
            "__init__.py": "",
            "afsa/__init__.py": (
                "from repro.afsa.product import intersect\n"
                "from repro.afsa.lazy import pair_verdict\n"
            ),
            "afsa/product.py": "def intersect(a, b): pass\n",
            "afsa/lazy.py": "def pair_verdict(a, b): pass\n",
            "afsa/kernel.py": "def k_difference(a, b): pass\n",
            "core/__init__.py": "",
            "core/direct.py": (
                "from repro.afsa.kernel import k_difference as kd\n"
            ),
            "core/reexport.py": "from repro.afsa import intersect\n",
            "core/relative.py": "from ..afsa.product import intersect\n",
            "core/attribute.py": (
                "import repro.afsa.product\n"
                "from repro.afsa import kernel\n"
                "def f(a, b):\n"
                "    kernel.k_difference(a, b)\n"
                "    return repro.afsa.product.intersect(a, b)\n"
            ),
            "core/lazy_only.py": "from repro.afsa import pair_verdict\n",
        },
    )
    failures = "\n".join(check(src))
    for site, name in (
        ("direct.py:1", "kernel.k_difference"),
        ("reexport.py:1", "product.intersect"),
        ("relative.py:1", "product.intersect"),
        ("attribute.py:4", "kernel.k_difference"),
        ("attribute.py:5", "product.intersect"),
    ):
        assert f"repro/core/{site}: imports repro.afsa.{name}" in failures
    assert "lazy_only" not in failures
    # The allowlist is exact: sites that construct nothing are stale.
    assert (
        "repro/core/propagate.py: allowlisted "
        "repro.afsa.kernel.k_difference is not imported any more"
    ) in failures


def test_lint_catches_every_validated_construction(tmp_path):
    """Every way of calling the validating constructor outside an
    allowlisted function is caught; materializing a kernel is not."""
    src = _tree(
        tmp_path,
        {
            "__init__.py": "",
            "afsa/__init__.py": (
                "from repro.afsa.automaton import AFSA\n"
                "from repro.afsa.kernel import materialize\n"
            ),
            "afsa/automaton.py": (
                "class AFSA:\n"
                "    def copy(self):\n"
                "        return AFSA()\n"
                "class AFSABuilder:\n"
                "    def build(self):\n"
                "        return AFSA()\n"
            ),
            "afsa/kernel.py": "def materialize(kernel): pass\n",
            "core/__init__.py": "",
            "core/direct.py": (
                "from repro.afsa.automaton import AFSA as Automaton\n"
                "def direct():\n"
                "    return Automaton()\n"
            ),
            "core/reexport.py": (
                "from repro.afsa import AFSA\n"
                "class Holder:\n"
                "    def method(self):\n"
                "        return AFSA()\n"
            ),
            "core/relative.py": (
                "from ..afsa.automaton import AFSA\n"
                "VALUE = AFSA()\n"
            ),
            "core/attribute.py": (
                "import repro.afsa.automaton\n"
                "from repro.afsa import automaton\n"
                "def attribute():\n"
                "    automaton.AFSA()\n"
                "    return repro.afsa.automaton.AFSA()\n"
            ),
            "core/trusted.py": (
                "from repro.afsa import materialize\n"
                "def trusted(kernel):\n"
                "    return materialize(kernel)\n"
            ),
        },
    )
    failures = "\n".join(check(src))
    for site, scope in (
        ("afsa/automaton.py:3", "AFSA.copy"),
        ("core/direct.py:3", "direct"),
        ("core/reexport.py:4", "Holder.method"),
        ("core/relative.py:2", "<module>"),
        ("core/attribute.py:4", "attribute"),
        ("core/attribute.py:5", "attribute"),
    ):
        assert f"repro/{site}: builds a validated AFSA in {scope}" in failures
    assert "AFSABuilder.build (" not in failures
    assert "trusted" not in failures
    # The allowlist is exact: a site that builds nothing is stale.
    assert (
        "repro/afsa/serialize.py::afsa_from_dict: allowlisted "
        "construction site does not build a validated AFSA any more"
    ) in failures


def test_lint_catches_every_shared_memory_import(tmp_path):
    """Every way of reaching a shared-memory module or the manager is
    caught, in ``repro.afsa`` too; other multiprocessing imports are
    not."""
    src = _tree(
        tmp_path,
        {
            "__init__.py": "",
            "afsa/__init__.py": (
                "from multiprocessing.shared_memory import SharedMemory\n"
            ),
            "core/__init__.py": "",
            "core/direct.py": (
                "from multiprocessing.shared_memory import ShareableList\n"
            ),
            "core/module.py": (
                "import multiprocessing.shared_memory as shm\n"
            ),
            "core/package.py": "from multiprocessing import shared_memory\n",
            "core/manager.py": (
                "from multiprocessing.managers import "
                "SharedMemoryManager as Manager\n"
            ),
            "core/posix.py": "import _posixshmem\n",
            "core/reexport.py": "from repro.afsa import SharedMemory\n",
            "core/attribute.py": (
                "import multiprocessing\n"
                "import multiprocessing.managers as managers\n"
                "def attribute():\n"
                "    managers.SharedMemoryManager()\n"
                "    return multiprocessing.shared_memory.SharedMemory()\n"
            ),
            "core/clean.py": (
                "import multiprocessing\n"
                "from multiprocessing import get_context, managers\n"
                "def clean():\n"
                "    managers.BaseManager()\n"
                "    return multiprocessing.get_context('fork')\n"
            ),
        },
    )
    failures = "\n".join(check(src))
    segments = "multiprocessing.shared_memory"
    manager = "multiprocessing.managers.SharedMemoryManager"
    for site, name in (
        ("afsa/__init__.py:1", f"{segments}.SharedMemory"),
        ("core/direct.py:1", f"{segments}.ShareableList"),
        ("core/module.py:1", segments),
        ("core/package.py:1", segments),
        ("core/manager.py:1", manager),
        ("core/posix.py:1", "_posixshmem"),
        ("core/reexport.py:1", f"{segments}.SharedMemory"),
        ("core/attribute.py:4", manager),
        ("core/attribute.py:5", segments),
    ):
        assert f"repro/{site}: imports {name} (" in failures, site
    assert "clean.py" not in failures


def test_lint_catches_every_environment_access(tmp_path):
    """Every way of reaching the process environment is caught, in
    ``repro.afsa`` too; other ``os`` names are not."""
    src = _tree(
        tmp_path,
        {
            "__init__.py": "",
            "afsa/__init__.py": "from os import environb\n",
            "core/__init__.py": "",
            "core/read.py": (
                "import os\n"
                "VALUE = os.environ.get('X')\n"
            ),
            "core/alias.py": (
                "import os as system\n"
                "def write():\n"
                "    system.putenv('X', '1')\n"
            ),
            "core/names.py": "from os import getenv as read, unsetenv\n",
            "core/reexport.py": "from repro.core.names import read\n",
            "core/clean.py": (
                "import os\n"
                "import os.path\n"
                "def clean():\n"
                "    return os.getpid(), os.path.join('a', 'b')\n"
            ),
        },
    )
    failures = "\n".join(check(src))
    for site, name in (
        ("afsa/__init__.py:1", "os.environb"),
        ("core/read.py:2", "os.environ"),
        ("core/read.py:2", "os.environ.get"),
        ("core/alias.py:3", "os.putenv"),
        ("core/names.py:1", "os.getenv"),
        ("core/names.py:1", "os.unsetenv"),
        ("core/reexport.py:1", "os.getenv"),
    ):
        assert f"repro/{site}: reaches {name} (" in failures, site
    assert "clean.py" not in failures
