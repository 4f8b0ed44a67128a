"""The pins of test_oracle_draws once more, with the closed-disk bound of
every point at inf: no searched result is then settled, so each reads
``unsettled``, and every other pinned field must keep its pin."""

import math

import pytest

from chebbounds.oracle import (FULL_SYSTEM, PROOF_SET, SKIPPED, UNSETTLED, OracleConfig,
                               empirical_sup)
import test_oracle_draws as pins
from test_oracle_lazy_draws import every_bound_at_inf


@pytest.fixture
def unsettled(monkeypatch):
    """From now on no searched result is settled."""
    every_bound_at_inf(monkeypatch)


@pytest.mark.parametrize("key", [(*k, alone) for k in pins.PINS for alone in (True, False)],
                         ids=lambda k: "-".join(map(str, k)))
def test_result_pinned(unsettled, key):
    pins.test_result_pinned(key)
    point, mode, label, _ = key
    res = empirical_sup(pins.QUANTITIES[label], pins.POINTS[point],
                        OracleConfig(mode=mode, n_samples=400, seed=5))
    # an unbounded closed form has nothing to violate, searched or not
    assert res.verdict == (SKIPPED if math.isinf(res.closed_form_bound) else UNSETTLED)


def test_alternating_seeds_and_sample_counts(unsettled):
    pins.test_alternating_seeds_and_sample_counts()


@pytest.mark.parametrize("mode", [PROOF_SET, FULL_SYSTEM])
def test_standalone_equals_sweep_entry(unsettled, mode):
    pins.test_standalone_equals_sweep_entry(mode)


@pytest.mark.parametrize("warm, key", list(pins.WARM.values()), ids=list(pins.WARM))
def test_search_builds_no_generator_once_drawn(unsettled, monkeypatch, warm, key):
    pins.test_search_builds_no_generator_once_drawn(monkeypatch, warm, key)
