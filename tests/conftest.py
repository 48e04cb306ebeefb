"""Fixtures shared across test modules."""

import pytest


@pytest.fixture()
def packed_mode():
    """Set the packed-scan mode for one test (``packed_mode(mode)``); the
    mode the test started with comes back at teardown."""
    from repro.mvbt import compression as comp

    previous = comp.packed_mode()
    yield comp.set_packed_mode
    comp.set_packed_mode(previous)


@pytest.fixture()
def scan_modes(packed_mode):
    """``for mode in scan_modes():`` runs the loop body once under each
    packed-scan mode — the modes are a test hook, so identity checks loop
    over them instead of a CI matrix setting them per process."""
    from repro.mvbt import compression as comp

    def each():
        for mode in (comp.PACKED_OFF, comp.PACKED_AUTO, comp.PACKED_FORCE):
            packed_mode(mode)
            yield mode

    return each
