"""The public names stay what they were while apps and optional
transports load on first use: every exported name is the object its
defining module holds, each registry name builds the class exported
for it, and a process replica still starts under ``spawn``, where the
child imports everything by name. (The registry listing, its errors
and ``make_transport``'s types are checked in ``tests/apps/test_base.py``
and ``tests/core/test_transport.py``.)"""

import importlib
import types

import pytest

import repro
import repro.apps
import repro.core
import repro.core.transport
from repro.apps import create_app
from repro.core import ExecutionConfig, HarnessConfig, run_harness

from .core.test_harness import ConstantApp

#: Where the exported values that are not classes or functions live.
_VALUE_HOMES = {
    "__version__": "repro",
    "BALANCERS": "repro.core.balancer",
    "OUTCOME_KEYS": "repro.core.collector",
    "NO_BATCHING": "repro.core.config",
    "NO_CACHE": "repro.core.config",
    "NO_FANOUT": "repro.core.config",
    "NO_OBSERVABILITY": "repro.core.config",
    "NO_RESILIENCE": "repro.core.config",
    "PAPER_SYSTEM": "repro.core.config",
    "THREADED": "repro.core.config",
}

APP_CLASSES = {
    "img-dnn": "ImgDnnApp",
    "masstree": "MasstreeApp",
    "moses": "MosesApp",
    "shore": "ShoreApp",
    "silo": "SiloApp",
    "specjbb": "SpecJbbApp",
    "sphinx": "SphinxApp",
    "vsearch": "VsearchApp",
    "xapian": "XapianApp",
}


@pytest.mark.parametrize(
    "package", [repro, repro.apps, repro.core, repro.core.transport],
    ids=lambda p: p.__name__,
)
def test_every_exported_name_is_its_defining_modules_object(package):
    for name in package.__all__:
        obj = getattr(package, name)
        if isinstance(obj, (type, types.FunctionType)):
            home = obj.__module__
        else:
            home = _VALUE_HOMES[name]
        assert getattr(importlib.import_module(home), name) is obj, name


@pytest.mark.parametrize(
    "package", [repro.apps, repro.core, repro.core.transport],
    ids=lambda p: p.__name__,
)
def test_unknown_attribute_still_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="NoSuchName"):
        package.NoSuchName
    assert not hasattr(package, "NoSuchName")


@pytest.mark.parametrize("name", sorted(APP_CLASSES))
def test_create_app_builds_the_exported_class(name):
    app = create_app(name)
    assert type(app) is getattr(repro.apps, APP_CLASSES[name])


def test_spawned_process_replica_starts_and_serves():
    # A spawned child starts from a fresh interpreter: the transport's
    # module and the app's both have to load there by name.
    result = run_harness(ConstantApp(), HarnessConfig(
        qps=500, warmup_requests=10, measure_requests=100, seed=5,
        execution=ExecutionConfig(mode="process", start_method="spawn"),
    ))
    assert result.stats.count == 100
    assert result.server_errors == ()
