"""The pins of test_oracle_draws once more, with the closed-disk bound of
every point at inf: each search then draws its rule's random samples and
scans them, which no pinned search does otherwise, and must still give the
pinned results.  Each test also checks that ``_draws`` was called."""

import pytest

from chebbounds import oracle
from chebbounds.oracle import FULL_SYSTEM, PROOF_SET
import test_oracle_draws as pins
from test_oracle_lazy_draws import full_scan


@pytest.fixture
def drawn(monkeypatch):
    """The arguments of every _draws call, with every point drawing."""
    full_scan(monkeypatch)
    calls, draws = [], oracle._draws

    def counting(*args):
        calls.append(args)
        return draws(*args)

    monkeypatch.setattr(oracle, "_draws", counting)
    return calls


@pytest.mark.parametrize("key", [(*k, cleared) for k in pins.PINS for cleared in (True, False)],
                         ids=lambda k: "-".join(map(str, k)))
def test_result_pinned(drawn, key):
    pins.test_result_pinned(key)
    # a quantity without a search rule, an infinite bound, searches nothing
    assert bool(drawn) == (pins.PINS[key[:3]][1] > 0)


def test_alternating_seeds_and_sample_counts(drawn):
    pins.test_alternating_seeds_and_sample_counts()
    assert drawn


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
def test_standalone_equals_sweep_entry(drawn, mode):
    pins.test_standalone_equals_sweep_entry(mode)
    assert drawn


@pytest.mark.parametrize("warm, key", list(pins.WARM.values()), ids=list(pins.WARM))
def test_search_builds_no_generator_once_drawn(drawn, monkeypatch, warm, key):
    pins.test_search_builds_no_generator_once_drawn(monkeypatch, warm, key)
    assert drawn
