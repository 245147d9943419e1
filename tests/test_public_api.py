"""Public-API contract tests: imports, __all__, docstrings.

These pin the surface documented in docs/API.md — a rename or an
accidentally-removed export fails here before it fails a user.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.graph",
    "repro.graph.digraph",
    "repro.graph.generators",
    "repro.graph.io",
    "repro.graph.stats",
    "repro.graph.scc",
    "repro.graph.temporal",
    "repro.graph.datasets",
    "repro.core",
    "repro.core.paths",
    "repro.core.distance",
    "repro.core.plan",
    "repro.core.index",
    "repro.core.construction",
    "repro.core.enumeration",
    "repro.core.maintenance",
    "repro.core.maintenance_strict",
    "repro.core.enumerator",
    "repro.core.monitor",
    "repro.core.batch",
    "repro.core.results",
    "repro.core.estimate",
    "repro.core.serialize",
    "repro.core.verify",
    "repro.baselines",
    "repro.apps",
    "repro.related",
    "repro.workloads",
    "repro.experiments",
    "repro.experiments.report",
    "repro.analysis",
    "repro.analysis.engine",
    "repro.analysis.findings",
    "repro.analysis.registry",
    "repro.analysis.sources",
    "repro.analysis.reporters",
    "repro.analysis.apidoc",
    "repro.analysis.visitor",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.spans",
    "repro.obs.report",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_top_level_exports():
    import repro

    assert set(repro.__all__) >= {
        "CpeEnumerator", "UpdateResult", "DynamicDiGraph", "EdgeUpdate"
    }
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_core_exports():
    from repro import core

    for name in core.__all__:
        assert hasattr(core, name)


def test_baseline_enumerators_share_static_shape():
    from repro.baselines import (
        BcDfsEnumerator,
        BcJoinEnumerator,
        PathEnumEnumerator,
        TDfsEnumerator,
    )

    for cls in (TDfsEnumerator, BcDfsEnumerator, BcJoinEnumerator,
                PathEnumEnumerator):
        assert hasattr(cls, "paths")
        assert cls.name  # display label for experiment tables


def test_dynamic_enumerators_share_protocol():
    from repro.baselines import CsmDcgEnumerator, CsmStarEnumerator
    from repro.baselines.recompute import RecomputeEnumerator
    from repro.core.enumerator import CpeEnumerator

    for cls in (CpeEnumerator, CsmStarEnumerator, CsmDcgEnumerator,
                RecomputeEnumerator):
        for method in ("startup", "insert_edge", "delete_edge", "apply"):
            assert hasattr(cls, method), f"{cls.__name__} lacks {method}"


def test_public_callables_have_docstrings():
    """Every public function/class in the core package is documented."""
    import repro.core.construction
    import repro.core.distance
    import repro.core.enumeration
    import repro.core.enumerator
    import repro.core.index
    import repro.core.maintenance

    for module in (
        repro.core.construction,
        repro.core.distance,
        repro.core.enumeration,
        repro.core.enumerator,
        repro.core.index,
        repro.core.maintenance,
    ):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export
                assert obj.__doc__, f"{module.__name__}.{name} undocumented"
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_"):
                            continue
                        if inspect.isfunction(meth):
                            assert meth.__doc__, (
                                f"{module.__name__}.{name}.{meth_name} "
                                f"undocumented"
                            )


def test_experiment_drivers_expose_run_and_main():
    from repro import experiments

    names = (
        "table1", "fig6_startup", "fig7_update", "fig8_insdel",
        "fig9_vary_k", "fig10_hot", "fig11_scalability", "fig12_memory",
        "ablation", "throughput", "density_sweep", "csm_variants",
    )
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        assert callable(module.run)
        assert callable(module.main)
