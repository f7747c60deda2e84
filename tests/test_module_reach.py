"""Every module under ``src/repro`` earns its place.

A static walk of the import graph -- ``ast`` only, nothing imported --
from the three entry points (``repro.cli``, ``repro.__main__`` and
``repro.service.daemon``) must reach every module, except the few on
:data:`UNREACHED_ALLOWLIST`, each with the reason it stays.  The walk
counts imports by name:

* every ``import`` and ``from ... import`` of a reached module is use,
  lazy imports inside functions included;
* ``from pkg import name`` resolves through the package ``__init__``
  re-exports to the module that defines ``name``;
* a package ``__init__``'s own imports are not use, so a re-export
  alone keeps no module alive.

The unreached set must *equal* the allowlist: a new orphan fails, and
so does a stale entry (a module that is now reached, or gone).  Delete
an orphan with its tests, examples, ``__all__`` entries and doc rows,
or give it a caller.

The scripts no CI job runs get a lighter check: every ``repro`` import
in ``examples/`` and ``benchmarks/`` must name an importable module or
attribute, so a deletion cannot strand them.

Below the module level, every function, method and class defined under
``src/repro`` must be named somewhere besides its own definition, so a
helper nothing calls does not linger.
"""

import ast
import collections
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"

ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.service.daemon")

#: Modules (relative to ``repro``) no entry point reaches, each with
#: the reason it stays.  Keep this list short.
UNREACHED_ALLOWLIST = {
    "circuit.transient": (
        "the MNA transient engine: the F5 pulse-shape check of the "
        "paper-findings tests runs on it; the Sec. 4 pulse-shape bench "
        "and sram.access use it"
    ),
    "ser.heavy_ion": (
        "LET beams as BatchPlan points: tests/test_validation_analytic.py "
        "runs the closed-form vertical beam through it and the FIT kernel"
    ),
    "sram.access": (
        "read-disturb/write analysis, undecided; two examples use it"
    ),
    "analysis.sensitivity": (
        "design sensitivity sweeps, undecided; EXPERIMENTS.md cites it"
    ),
    "baselines.circuit_level": (
        "Qcrit-only circuit-level baseline, undecided; two examples and "
        "EXPERIMENTS.md use it"
    ),
}


def _module_files(src_dir=SRC_DIR, package="repro"):
    """Dotted name -> source file of every module and package."""
    files = {}
    for path in sorted((src_dir / package).rglob("*.py")):
        parts = path.relative_to(src_dir).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


class ImportGraph:
    """The static import graph of ``src/repro``."""

    def __init__(self, files):
        self.files = files
        self._trees = {}

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            path = self.files[module]
            self._trees[module] = ast.parse(path.read_text(), str(path))
        return self._trees[module]

    def absolute(self, module: str, node: ast.ImportFrom) -> str:
        """The absolute source module of ``from ... import`` in ``module``."""
        if not node.level:
            return node.module
        package = module
        if not self.is_package(module):
            package = module.rpartition(".")[0]
        parts = package.split(".")
        if node.level > 1:
            parts = parts[: 1 - node.level]
        return ".".join(parts + ([node.module] if node.module else []))

    def resolve(self, source: str, name: str) -> set:
        """Modules that ``from source import name`` uses.

        A submodule named ``name`` wins; a package is followed through
        the ``__init__`` import that binds ``name``; a plain module is
        itself the use.  Anything outside ``repro`` resolves to nothing.
        """
        if f"{source}.{name}" in self.files:
            return {f"{source}.{name}"}
        if source not in self.files:
            return set()
        if not self.is_package(source):
            return {source}
        for node in self.tree(source).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return self.resolve(
                            self.absolute(source, node), alias.name
                        )
        return set()

    def imports(self, module: str) -> set:
        """Modules used by every import in ``module``, lazy ones too."""
        used = set()
        for node in ast.walk(self.tree(module)):
            if isinstance(node, ast.Import):
                used |= {
                    alias.name
                    for alias in node.names
                    if alias.name in self.files
                }
            elif isinstance(node, ast.ImportFrom):
                source = self.absolute(module, node)
                for alias in node.names:
                    used |= self.resolve(source, alias.name)
        return used

    def reached(self, entry_points) -> set:
        """Modules reachable from ``entry_points``.

        A reached package is not walked: its imports are re-exports.
        """
        seen, queue = set(), list(entry_points)
        while queue:
            module = queue.pop()
            if module in seen:
                continue
            seen.add(module)
            if not self.is_package(module):
                queue.extend(self.imports(module) - seen)
        return seen

    def unreached(self, entry_points) -> set:
        """Non-package modules, relative to ``repro``, nothing reaches."""
        reached = self.reached(entry_points)
        return {
            module.partition(".")[2]
            for module in self.files
            if not self.is_package(module) and module not in reached
        }


@pytest.fixture(scope="module")
def graph():
    return ImportGraph(_module_files())


def test_every_module_is_reached_or_allowlisted(graph):
    unreached = graph.unreached(ENTRY_POINTS)
    orphans = sorted(unreached - set(UNREACHED_ALLOWLIST))
    stale = sorted(set(UNREACHED_ALLOWLIST) - unreached)
    assert not orphans and not stale, (
        f"unreached and not allowlisted: {orphans}; "
        f"allowlisted but reached or gone: {stale}"
    )


def test_allowlist_gives_reasons():
    assert all(reason.strip() for reason in UNREACHED_ALLOWLIST.values())


class TestWalkRules:
    """The walk's rules, on a toy package."""

    TOY = {
        "toy/__init__.py": (
            "from .core import Api\n"
            "from .orphan import Unused\n"
        ),
        "toy/core/__init__.py": "from .impl import Api as Api\n",
        "toy/core/impl.py": (
            "from ..util import helper\n\n"
            "class Api: ...\n"
        ),
        "toy/util.py": "import os\n\ndef helper(): ...\n",
        "toy/orphan.py": "class Unused: ...\n",
        "toy/lazy.py": "X = 1\n",
        "toy/plain.py": "Y = 2\n",
        "toy/cli.py": (
            "import toy.plain\n"
            "from . import Api\n\n"
            "def main():\n"
            "    from .lazy import X\n"
            "    return X\n"
        ),
    }

    @pytest.fixture
    def toy(self, tmp_path):
        for name, text in self.TOY.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        return ImportGraph(_module_files(tmp_path, "toy"))

    def test_reexports_resolve_to_the_defining_module(self, toy):
        assert toy.resolve("toy", "Api") == {"toy.core.impl"}
        assert toy.resolve("toy", "core") == {"toy.core"}
        assert toy.resolve("os", "path") == set()

    def test_lazy_and_plain_imports_count(self, toy):
        assert toy.imports("toy.cli") == {
            "toy.plain",
            "toy.core.impl",
            "toy.lazy",
        }

    def test_reexport_alone_is_not_use(self, toy):
        assert toy.unreached(("toy.cli",)) == {"orphan"}


def _scripts():
    return sorted(
        [*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/**/*.py")]
    )


def _repro_imports(path: Path):
    """``(module, name)`` of every ``repro`` import; ``name`` is None
    for a plain ``import``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif (
            isinstance(node, ast.ImportFrom)
            and not node.level
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize(
    "script", _scripts(), ids=lambda path: str(path.relative_to(ROOT))
)
def test_script_imports_resolve(script):
    """Each ``repro`` import of a script names something importable."""
    missing = []
    for module_name, name in _repro_imports(script):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        if name is None or hasattr(module, name):
            continue
        is_package = hasattr(module, "__path__")
        if not (
            is_package
            and importlib.util.find_spec(f"{module_name}.{name}") is not None
        ):
            missing.append(f"{module_name}.{name}")
    assert not missing, f"{script.name} imports what is gone: {missing}"


#: Where a definition may be named.
NAMING_DIRS = ("src", "tests", "benchmarks", "examples", "serbench")


def test_every_definition_is_named_elsewhere():
    """Each function, method and class under ``src/repro`` (dunders
    aside) is named as a word in some ``.py`` file of
    :data:`NAMING_DIRS` more often than it is defined."""
    definitions = collections.Counter()
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                definitions[node.name] += 1
    words = collections.Counter()
    for directory in NAMING_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    unnamed = sorted(
        name for name, count in definitions.items() if words[name] <= count
    )
    assert not unnamed, f"defined under src/repro but never named: {unnamed}"
