"""Smoke tests for the public API surface.

Every name a package advertises in ``__all__`` must actually be
importable from it; the top-level package must expose its version and
the exception hierarchy.  These tests catch broken re-exports early.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_PACKAGES = [
    "repro",
    "repro.crypto",
    "repro.net",
    "repro.agents",
    "repro.platform",
    "repro.attacks",
    "repro.core",
    "repro.core.checkers",
    "repro.baselines",
    "repro.workloads",
    "repro.bench",
    "repro.sim",
    "repro.service",
    "repro.obs",
    "repro.trace",
    "repro.trace.replay",
    "repro.trace.report",
]


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), package_name
    for name in module.__all__:
        assert hasattr(module, name), "%s advertises %r but does not define it" % (
            package_name, name,
        )


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_quickstart_from_module_docstring_works():
    """The quickstart snippet in the package docstring must stay true."""
    from repro.core import ReferenceStateProtocol
    from repro.workloads import build_generic_scenario

    scenario, agent = build_generic_scenario(cycles=1, input_elements=1)
    protocol = ReferenceStateProtocol(trusted_hosts=scenario.trusted_host_names)
    result = scenario.system.launch(agent, scenario.itinerary, protection=protocol)
    assert result.detected_attack() is False


def test_key_classes_are_reachable_from_package_roots():
    from repro.agents import MobileAgent  # noqa: F401
    from repro.attacks import AttackArea  # noqa: F401
    from repro.baselines import VignaTracesMechanism  # noqa: F401
    from repro.bench import TimingCollector  # noqa: F401
    from repro.core import CheckingFramework, ReferenceStateProtocol  # noqa: F401
    from repro.crypto import Signer  # noqa: F401
    from repro.net import EventSimulator  # noqa: F401
    from repro.platform import AgentSystem, Host  # noqa: F401
    from repro.workloads import ShoppingAgent  # noqa: F401


def _tracer_targets():
    """``TARGETS`` of the benchmark's span tracer, loaded by file path
    (the tracer imports only the standard library)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module_name, attribute",
    [target[:2] for target in _tracer_targets()],
)
def test_every_tracer_target_resolves(module_name, attribute):
    """The traced benchmark run wraps each target with a bare lookup, so
    a deleted or renamed target would crash every traced run."""
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.rpartition(".")
    if not owner_name:
        assert callable(getattr(module, attribute))
        return
    owner = getattr(module, owner_name)
    assert callable(getattr(owner.__dict__[method], "__func__",
                            owner.__dict__[method]))
