"""The benchmark's 40,000-row sweep and an extreme grid, pinned as the
sha256 of the CSV and the JSON file that ``sweep`` writes.  The digests
must not depend on how many rows are rendered at a time."""

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
# name -> (sweep flags, sha256 of the CSV file, sha256 of the JSON file); the
# benchmark's etas are clear of both thresholds, so its two variants write the
# same files
SWEEPS = {
    "benchmark": (BENCHMARK,
                  "a520aa6ee070b8bdeb33bd0cebaf5147c4a6a07049d92d9bb403a16f747bdd76",
                  "0deaaa65a9dd20099f7f3d59db2475d8b6337226aee6286a57cc41cf20f15a57"),
    "as-printed": (BENCHMARK + ["--variant", "as-printed"],
                   "a520aa6ee070b8bdeb33bd0cebaf5147c4a6a07049d92d9bb403a16f747bdd76",
                   "0deaaa65a9dd20099f7f3d59db2475d8b6337226aee6286a57cc41cf20f15a57"),
    "extreme": (EXTREME,
                "360b5aa098ed9e66bd5a5033d4ccfea581e16be914d521b01f5a9f20da40145c",
                "7e696c9a49f4ac861c62f3279a8a37c5df4b5589284ea280cbc35ddedbf6e549"),
}


def sweep_sha256(flags, out_format, chunk, tmp_path, monkeypatch, capsys) -> str:
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    out = tmp_path / f"sweep.{out_format}"
    argv = ["sweep", *flags, "--format", out_format, "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == ("", "")
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_csv_pinned(name, chunk, tmp_path, monkeypatch, capsys):
    flags, pin, _ = SWEEPS[name]
    assert sweep_sha256(flags, "csv", chunk, tmp_path, monkeypatch, capsys) == pin


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_json_pinned(name, chunk, tmp_path, monkeypatch, capsys):
    flags, _, pin = SWEEPS[name]
    assert sweep_sha256(flags, "json", chunk, tmp_path, monkeypatch, capsys) == pin
