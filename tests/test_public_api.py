"""The public API surface: everything advertised must exist and import."""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).parent
README = Path(__file__).parent.parent / "README.md"

SUBPACKAGES = [
    "repro.geometry",
    "repro.granularity",
    "repro.core",
    "repro.engine",
    "repro.mod",
    "repro.mobility",
    "repro.ts",
    "repro.attack",
    "repro.baselines",
    "repro.mixzone",
    "repro.metrics",
    "repro.mining",
    "repro.experiments",
    "repro.obs",
    "repro.serve",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, _minor, _patch = repro.__version__.split(".")
        assert int(major) >= 1


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"

    def test_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


#: Packages whose ``__init__`` resolves its exports on first use.
LAZY_PACKAGES = ["repro", "repro.obs", "repro.serve"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_every_export_resolves_in_a_fresh_interpreter(
        self, package, order
    ):
        """Every name resolves with nothing imported before, in either
        order, and a star import still binds all of ``__all__``."""
        script = textwrap.dedent(
            f"""
            import importlib
            import sys

            package = importlib.import_module({package!r})
            names = package.__all__
            assert all(
                getattr(package, name) is not None
                for name in names[::{order}]
            )
            namespace = {{}}
            exec("from {package} import *", namespace)
            print(sorted(set(names) - set(namespace) - set(dir(package))))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_importing_the_package_loads_no_export(self, package):
        script = (
            f"import sys, {package}; "
            f"print(sorted(m for m in sys.modules "
            f"if m.startswith('repro.') and m != 'repro._lazy' "
            f"and m != {package!r}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_export")


class TestDocumentation:
    def test_public_callables_documented(self):
        """Every name exported at the top level carries a docstring."""
        undocumented = []
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented


def imported_modules(path: Path) -> set[str]:
    """Absolute module names a source file imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


class TestLayering:
    """Lower layers never import the layers built on top of them.

    ``repro.core`` holds the paper's formal machinery; the engine that
    runs the Section 6.1 strategy builds on it, and the simulation and
    serving layers build on the engine.
    """

    @pytest.mark.parametrize(
        "package, forbidden",
        [
            ("core", ("repro.engine", "repro.ts", "repro.serve")),
            (
                "engine",
                (
                    "repro.ts",
                    "repro.serve",
                    "repro.metrics",
                    "repro.experiments",
                ),
            ),
        ],
        ids=["core", "engine"],
    )
    def test_package_does_not_import_upper_layers(
        self, package, forbidden
    ):
        offending = sorted(
            f"{path.relative_to(PACKAGE_DIR)} imports {module}"
            for path in (PACKAGE_DIR / package).rglob("*.py")
            for module in imported_modules(path)
            if any(
                module == name or module.startswith(name + ".")
                for name in forbidden
            )
        )
        assert not offending


class TestReadme:
    def test_quickstart_blocks_run(self):
        """The Python blocks under the README's Quickstart heading run,
        in one namespace (its subsections drive a daemon instead)."""
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Quickstart\n", 1)[1]
        section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
        assert len(blocks) == 2
        namespace: dict = {"__name__": "readme_quickstart"}
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
        assert namespace["event"].request.context is not None
        assert len(namespace["events"]) == 1


class TestServeExports:
    def test_dial_lives_beside_the_http_client(self):
        """``dial`` picks a socket client for loadgen and obstop; it
        sits in :mod:`repro.serve.http` with the client it can pick."""
        import repro.serve
        import repro.serve.http

        assert repro.serve.dial is repro.serve.http.dial
        assert "dial" in repro.serve.__all__
