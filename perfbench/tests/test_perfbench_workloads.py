import numpy as np

import reference
import workloads


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 11) == workloads.make(name, 11)
        assert workloads.make(name, 11).calls != workloads.make(name, 12).calls


def test_bound_calls_are_admissible_and_clear_of_the_branch_edge():
    wl = workloads.make("bound", 5)
    assert len(wl.calls) == workloads.BOUND_CALLS
    for call in wl.calls:
        lam, mu, delta, t = call.expect["point"]
        assert lam >= 1.0 and mu >= 0.0 and delta >= 0.0 and 0.5 < t < 1.0
        assert 1 <= len(call.expect["etas"]) <= 3
        assert reference.relative_conditioning(lam, mu, delta, t) >= workloads.MIN_CONDITIONING
        m = float(reference.closed_form(lam, mu, delta, t).m)
        for eta in call.expect["etas"]:
            assert abs(abs(eta - 1.0) - m) > 1e-3 * m


def test_sweep_work_does_not_depend_on_the_seed():
    sizes = set()
    for seed in range(5):
        (call,) = workloads.make("sweep", seed).calls
        sizes.add((call.rows, call.results))
        lam, mu, delta, t = reference.sweep_grid(call.expect["ranges"])
        assert lam.min() >= 1.0 and mu.min() >= 0.0 and delta.min() >= 0.0
        assert 0.5 < t.min() and t.max() < 1.0
        m = reference.closed_form(lam, mu, delta, t).m
        low, flat, high = sorted(call.expect["etas"])
        assert abs(flat - 1.0) <= m.min() and 1.0 - low > m.max() and high - 1.0 > m.max()
    assert sizes == {(40_000, 200_000)}


def test_verify_calls_differ_only_in_the_oracle_seed():
    wl = workloads.make("verify", 3)
    seeds = [call.argv[2] for call in wl.calls]
    assert len(set(seeds)) == len(seeds)
    assert {call.argv[:2] + call.argv[3:] for call in wl.calls} == {("verify", "--seed")}
    full = workloads.make("verify-full", 3).calls[0]
    assert full.rows == 1125 and np.prod([r[2] for r in full.expect["ranges"]]) == 1125
