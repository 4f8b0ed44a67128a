"""The benchmark's 40,000-row sweep and an extreme grid, pinned as the
sha256 of the CSV file that ``sweep`` writes.  The digest must not depend
on how many rows are rendered at a time."""

import hashlib

import pytest

from chebbounds import cli

# the benchmark's seed-7 sweep: 20 x 10 x 10 x 20 rows, three eta columns
BENCHMARK = ["--lambda", "1.38507:3.31704:20", "--mu", "0.0559636:1.55769:10",
             "--delta", "0.0567293:1.05314:10", "--t", "0.516398:0.92451:20",
             "--eta", "0.999996", "--eta", "-1.21092", "--eta", "2.86299"]
# lambda, mu and delta up to PARAM_MAX: most cells are in exponent form
EXTREME = ["--lambda", "1:1e75:7", "--mu", "0:1e75:5", "--delta", "0:1e75:5",
           "--t", "0.5000001:0.9999999:9", "--eta", "0", "--eta=1e75", "--eta=-1e75"]
# name -> (sweep flags, sha256 of the CSV file); the benchmark's etas are
# clear of both thresholds, so its two variants write the same file
SWEEPS = {
    "benchmark": (BENCHMARK,
                  "a520aa6ee070b8bdeb33bd0cebaf5147c4a6a07049d92d9bb403a16f747bdd76"),
    "as-printed": (BENCHMARK + ["--variant", "as-printed"],
                   "a520aa6ee070b8bdeb33bd0cebaf5147c4a6a07049d92d9bb403a16f747bdd76"),
    "extreme": (EXTREME,
                "360b5aa098ed9e66bd5a5033d4ccfea581e16be914d521b01f5a9f20da40145c"),
}


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_csv_pinned(name, chunk, tmp_path, monkeypatch, capsys):
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    flags, pin = SWEEPS[name]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *flags, "--output", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
