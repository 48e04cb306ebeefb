"""The Prometheus exposition is pinned line for line in both scopes.

``tests/golden/exposition_pins.json`` holds what the process scrape and
the cluster scrape printed before histograms replaced the timers
(``tests/exposition_pins.py``).  Today's output must match it line for
line, less the four timer families on the pinned side and the three
histograms that replaced them on this side.  Nothing else may move: not
a name, a help text, a label order or a number format.  The inputs record
with instrumentation forced on, so these hold with ``REPRO_OBS=0``.
"""

import json
from pathlib import Path

import pytest

from tests import exposition_pins as pins

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "exposition_pins.json").read_text()
)


@pytest.fixture(scope="module")
def current():
    return pins.outputs()


@pytest.mark.parametrize("name", ["zero_filled", "recorded", "cluster"])
def test_exposition_matches_the_pins(current, name):
    assert (pins.without_families(current[name], pins.HISTOGRAM_FAMILIES)
            == pins.without_families(GOLDEN[name], pins.TIMER_FAMILIES))


def test_the_replacement_histograms_are_zero_filled(current):
    lines = current["zero_filled"].splitlines()
    for family in sorted(pins.HISTOGRAM_FAMILIES):
        assert f"# TYPE {family} histogram" in lines
        assert f'{family}_bucket{{le="+Inf"}} 0' in lines
        assert f"{family}_count 0" in lines
    assert not any(
        family in line for line in lines for family in pins.TIMER_FAMILIES
    )
