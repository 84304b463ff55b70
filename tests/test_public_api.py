"""Public-API surface tests: everything exported exists and is documented."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.anonymize",
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.knowledge",
    "repro.maxent",
    "repro.utils",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_exports_are_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_resolving_all(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.anonymize.anatomy",
            "repro.anonymize.suppress",
            "repro.baselines.enumeration",
            "repro.baselines.gis",
            "repro.core.invariants",
            "repro.core.utility",
            "repro.data.paper_example",
            "repro.knowledge.compiler",
            "repro.knowledge.skyline",
            "repro.maxent.diagnostics",
            "repro.maxent.dual",
            "repro.experiments.figures",
            "repro.cli",
        ],
    )
    def test_leaf_modules_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40, (
            f"{module_name} needs a real module docstring"
        )


class TestNoAccidentalHeavyImports:
    def test_import_is_fast_enough_for_cli(self):
        # The CLI should not drag in pytest/hypothesis at import time.
        import subprocess
        import sys

        code = (
            "import sys, repro; "
            "banned = {'pytest', 'hypothesis'}; "
            "loaded = banned & set(sys.modules); "
            "sys.exit(1 if loaded else 0)"
        )
        result = subprocess.run([sys.executable, "-c", code])
        assert result.returncode == 0
