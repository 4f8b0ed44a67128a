"""Every OracleResult of the default ``verify`` grid and of the full-system
benchmark grid at seed 5, pinned as one sha256 per grid: sup bits, sample
and infeasible counts, witness and verdict.  The digest must not depend
on how many points the search scores at a time, and the search's
transient memory must not grow with the grid."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from chebbounds import cli, oracle
from chebbounds.classop import param_points
from chebbounds.oracle import FULL_SYSTEM, PROOF_SET, OracleConfig, sweep_verify

# name -> (lambda, mu, delta and t ranges, mode, samples, digest); etas 0 1 2
GRIDS = {
    "verify": (("1:3:3", "0:2:3", "0:1:3", "0.55:0.95:3"), PROOF_SET, 10_000,
               "605d1847fc59c35aeb0e0f86a2f49c25058f4d8882ac9e32d446ed0b58b58697"),
    "verify-full": (("1:3:5", "0:2:5", "0:1:5", "0.55:0.95:9"), FULL_SYSTEM, 1000,
                    "51a2be487bd4a3e5e808823b80482d547e9b1e4400ad4cae785eb274087ae041"),
}


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.sup_value.hex()} {r.n_samples} {r.n_infeasible} "
                 f"{r.witness!r} {r.verdict}\n".encode())
    return h.hexdigest()


def grid_of(ranges):
    return param_points(*(np.linspace(*cli.parse_range(text)) for text in ranges))


# oracle.CHUNK_ELEMENTS values: one point at a time, seven points of the
# summed and free rules (samples + 25 extremes each), 280 elements, where the
# injected columns alone come in chunks of 11 points (25 extremes), 8 (the
# capped rule's 33) and 1 (the linear rule's 625), the default
CHUNKS = {"1-point": lambda samples: 1, "7-points": lambda samples: 7 * (samples + 25),
          "injected-split": lambda samples: 280,
          "default": lambda samples: oracle.CHUNK_ELEMENTS}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@pytest.mark.parametrize("name", list(GRIDS))
def test_verify_grid_results_pinned(monkeypatch, name, chunk):
    ranges, mode, samples, pin = GRIDS[name]
    monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", CHUNKS[chunk](samples))
    cfg = OracleConfig(mode=mode, n_samples=samples, seed=5)
    assert digest(sweep_verify(grid_of(ranges), [0.0, 1.0, 2.0], cfg)) == pin


def _transient_peak(grid, cfg) -> int:
    """Peak traced memory of one sweep_verify above what it returns."""
    tracemalloc.start()
    try:
        results = sweep_verify(grid, [0.0, 1.0, 2.0], cfg)
        current, peak = tracemalloc.get_traced_memory()
        assert len(results) == 5 * len(grid)
        return peak - current
    finally:
        tracemalloc.stop()


# (mode, oracle.CHUNK_ELEMENTS, lambda counts of the small and large grids, 16 points
# a lambda): 1024 elements hold fewer than the small grid's 32 points in every pass, so
# both grids fill their chunks; None keeps the default, whose pruned chunks hold 496
# points of the capped rule's 33 injected columns, so its grids have 512 and 1024, or
# 1024 and 4096
@pytest.mark.parametrize("mode, elements, counts", [(PROOF_SET, 1024, (2, 16)),
                                                    (FULL_SYSTEM, 1024, (2, 16)),
                                                    (FULL_SYSTEM, None, (32, 64)),
                                                    (FULL_SYSTEM, None, (64, 256))],
                         ids=["proof-set", "full-system", "full-system-default-chunk",
                              "full-system-default-chunk-4096"])
def test_search_memory_does_not_grow_with_the_grid(monkeypatch, mode, elements, counts):
    if elements is not None:
        monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", elements)
    cfg = OracleConfig(mode=mode, n_samples=2000, seed=5)
    small, large = (grid_of(("1:3:%d" % n, "0:2:2", "0:1:2", "0.55:0.95:4")) for n in counts)
    _transient_peak(small, cfg)          # draws the samples once, into the cache
    small_peak, large_peak = _transient_peak(small, cfg), _transient_peak(large, cfg)
    assert large_peak < 1.2 * small_peak, (small_peak, large_peak)
