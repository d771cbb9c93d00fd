"""Every ``repro`` module imports with only the declared dependencies.

A package that happens to be installed beside ``repro`` (for example as a
dependency of an unrelated tool) must not be imported by it unless
``pyproject.toml`` declares it: a clean install would raise
``ImportError``.  Two checks enforce that:

* a fresh interpreter, whose import system refuses every third-party
  top-level name not in ``[project].dependencies`` that resolves to
  site-packages, imports every module;
* a static scan reads every ``import`` statement in ``src/repro``,
  including the function-local ones the first check never executes.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: Runs in the child interpreter; DEPS and MODULES are prepended.
CHILD = r"""
import importlib
import importlib.abc
import importlib.machinery
import site
import sys
import sysconfig

site_dirs = tuple(
    {sysconfig.get_path("purelib"), sysconfig.get_path("platlib"), *site.getsitepackages()}
)


class UndeclaredBlocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if path is not None or name == "repro" or name in DEPS:
            return None  # a submodule, or an allowed top-level package
        spec = importlib.machinery.PathFinder.find_spec(name)
        where = spec and (spec.origin or "".join(spec.submodule_search_locations or ()))
        if where and where.startswith(site_dirs):
            raise ModuleNotFoundError(f"{name} is not a declared dependency", name=name)
        return None


sys.meta_path.insert(0, UndeclaredBlocker())
failures = []
for module in MODULES:
    try:
        importlib.import_module(module)
    except ImportError as error:
        failures.append(f"{module}: {error}")
print("\n".join(failures))
sys.exit(1 if failures else 0)
"""


def declared_dependencies() -> list[str]:
    """Import names of ``[project].dependencies``, read with a regex
    (``tomllib`` is 3.11+).  The declared distributions (numpy, scipy)
    import under their own names."""
    text = PYPROJECT.read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml declares no dependencies list"
    specs = re.findall(r"\"([^\"]+)\"", block.group(1))
    return sorted(re.match(r"[A-Za-z0-9_.]+", spec).group(0).lower() for spec in specs)


def repro_modules() -> list[str]:
    """Every module under ``src/repro`` except ``__main__``, which runs
    the CLI when imported."""
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts.pop()
        modules.append(".".join(parts))
    return modules


def test_declared_dependencies_are_read():
    assert {"numpy", "scipy"} <= set(declared_dependencies())


def test_every_module_imports_with_declared_dependencies_only():
    modules = repro_modules()
    assert "repro.core" in modules and "repro.__main__" not in modules
    script = f"DEPS = {declared_dependencies()!r}\nMODULES = {modules!r}\n{CHILD}"
    child = subprocess.run(
        [sys.executable, "-c", script],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, (
        f"modules need undeclared packages:\n{child.stdout}{child.stderr}"
    )


def test_every_import_statement_names_a_declared_dependency():
    """Lazy imports inside functions run only when called, so the import
    check above misses them; this scan reads each one from the source."""
    allowed = set(sys.stdlib_module_names) | {"repro", *declared_dependencies()}
    undeclared = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    undeclared.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert not undeclared, "imports of undeclared packages:\n" + "\n".join(undeclared)
