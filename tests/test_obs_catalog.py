"""The obs catalog is enforced where names are registered, not by lint.

Every metric and event name lives once in :mod:`repro.obs.catalog`.  The
registry refuses to register any other name, and ``events.event`` refuses
to hand out a handle for one, so a typo fails when its module is
imported.  These checks import the whole package and hold the catalog and
the code to each other, in both directions.  They hold with
``REPRO_OBS=0`` too.
"""

import importlib
import pkgutil
import re

import pytest

import repro
from repro.obs import catalog, events, metrics
from repro.obs.metrics import REGISTRY, Registry

#: The gauge the federation renders from member pulls; no process
#: registers it in its own registry.
FEDERATION_ONLY = {"cluster.member.up"}

NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@pytest.fixture(scope="module")
def modules():
    """Every ``repro.*`` module, imported."""
    names = [info.name for info in
             pkgutil.walk_packages(repro.__path__, prefix="repro.")]
    return [importlib.import_module(name) for name in names]


def test_every_module_imports(modules):
    names = {module.__name__ for module in modules}
    assert {"repro.cli", "repro.cluster.worker", "repro.service.server",
            "repro.obs.workload"} <= names


def test_every_cataloged_metric_is_registered_at_import(modules):
    registered = REGISTRY.snapshot()
    for kind, names in (("counters", catalog.COUNTERS),
                        ("gauges", catalog.GAUGES),
                        ("histograms", catalog.HISTOGRAMS)):
        missing = names - set(registered[kind]) - FEDERATION_ONLY
        assert not missing, f"cataloged {kind} nothing registers: {missing}"


def test_every_cataloged_event_is_bound_as_a_handle(modules):
    bound = {value for module in modules for value in vars(module).values()
             if isinstance(value, str) and value in catalog.EVENTS}
    assert bound == catalog.EVENTS


def test_every_name_is_a_dotted_lowercase_path():
    names = (catalog.COUNTERS | catalog.GAUGES | catalog.HISTOGRAMS
             | catalog.EVENTS)
    assert [name for name in sorted(names) if not NAME.match(name)] == []


def test_the_module_shorthands_return_the_registered_metric():
    assert metrics.counter("service.store.updates") is \
        REGISTRY.counter("service.store.updates")
    assert metrics.histogram("service.store.query_ms") is \
        REGISTRY.histogram("service.store.query_ms")
    # a fresh registry takes every cataloged name of each kind
    registry = Registry()
    for factory, names in ((registry.counter, catalog.COUNTERS),
                           (registry.gauge, catalog.GAUGES),
                           (registry.histogram, catalog.HISTOGRAMS)):
        for name in names:
            factory(name)
    assert set(registry.snapshot()["counters"]) == catalog.COUNTERS


def test_an_uncataloged_name_is_refused():
    registry = Registry()
    with pytest.raises(KeyError, match="service.store.upates"):
        registry.counter("service.store.upates")
    with pytest.raises(KeyError):
        registry.counter("Service Store Updates!")
    # each kind checks its own set: a counter's name is no gauge
    with pytest.raises(KeyError):
        registry.gauge("service.store.updates")
    with pytest.raises(KeyError):
        registry.histogram("service.store.updates")
    assert registry.snapshot()["counters"] == {}
    assert registry.snapshot()["gauges"] == {}


def test_the_module_shorthands_refuse_an_uncataloged_name():
    with pytest.raises(KeyError, match="service.store.upates"):
        metrics.counter("service.store.upates")
    with pytest.raises(KeyError):
        metrics.gauge("Process RSS!")
    with pytest.raises(KeyError):
        metrics.histogram("service.store.query_mss")
    assert "service.store.upates" not in REGISTRY.snapshot()["counters"]


def test_an_uncataloged_event_is_refused():
    with pytest.raises(KeyError, match="cluster.event.promotted"):
        events.event("cluster.event.promotted")
    with pytest.raises(KeyError):
        events.event("Cluster Promoted!")
    log = events.EventLog()
    with pytest.raises(KeyError):
        log.record("cluster.event.promotted")
    assert len(log) == 0
    with pytest.raises(KeyError):
        events.EVENTS.record("cluster.event.promotted")

