"""Public API smoke tests: every subpackage imports and re-exports."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.apps",
    "repro.blaze",
    "repro.cli",
    "repro.compiler",
    "repro.dse",
    "repro.dse.techniques",
    "repro.durable",
    "repro.errors",
    "repro.fpga",
    "repro.hls",
    "repro.hlsc",
    "repro.jvm",
    "repro.merlin",
    "repro.report",
    "repro.s2fa",
    "repro.scala",
    "repro.spark",
    "repro.utils",
    "repro.workloads",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} has no module docstring"


def test_top_level_exports():
    import repro

    assert callable(repro.S2FASession)
    assert not hasattr(repro, "build_accelerator")
    assert not hasattr(repro, "generate_hls_c")
    assert repro.__version__


def test_key_symbols_reachable():
    from repro.apps import ALL_APPS
    from repro.blaze import BlazeRuntime
    from repro.dse import DATunerEngine, OpenTunerRuntime, S2FAEngine
    from repro.hls import VU9P, estimate
    from repro.hlsc import kernel_to_c, lint_kernel
    from repro.merlin import DesignConfig, apply_config
    from repro.spark import SparkContext

    assert len(ALL_APPS) == 8
    assert VU9P.name == "xcvu9p"
    for symbol in (BlazeRuntime, DATunerEngine, OpenTunerRuntime,
                   S2FAEngine, estimate, kernel_to_c, lint_kernel,
                   DesignConfig, apply_config, SparkContext):
        assert symbol is not None


def test_every_public_callable_documented():
    """Public functions/classes across the core packages carry docstrings."""
    import inspect

    undocumented = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr_name in dir(module):
            if attr_name.startswith("_"):
                continue
            attr = getattr(module, attr_name)
            if getattr(attr, "__module__", "").startswith("repro") and (
                    inspect.isclass(attr) or inspect.isfunction(attr)):
                if not inspect.getdoc(attr):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"missing docstrings: {undocumented}"
