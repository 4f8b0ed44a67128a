"""Config files: every key reaches its option, flags win, bad values exit 2."""

import pytest

from chebbounds import cli
from chebbounds.cli import EXIT_OK, EXIT_USAGE, main

BASE = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config(tmp_path, text, name="c.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def same_as_flags(capsys, tmp_path, command, text, flags):
    """The config form and the flag form print the same bytes."""
    code_cfg, out_cfg, _ = run(capsys, [command, "--config", config(tmp_path, text)])
    code_flag, out_flag, _ = run(capsys, [command, *flags])
    assert code_cfg == code_flag == EXIT_OK
    assert out_cfg == out_flag
    return out_cfg


# ---------------------------------------------------------------------------
# every key reaches its option


def test_bound_keys(capsys, tmp_path):
    out = same_as_flags(
        capsys, tmp_path, "bound",
        "lambda = 2\nmu = 0.5\ndelta = 0.25\nt = 0.7\neta = 0.5,3\nvariant = as-printed\n",
        ["--lambda", "2", "--mu", "0.5", "--delta", "0.25", "--t", "0.7",
         "--eta", "0.5", "--eta", "3", "--variant", "as-printed"],
    )
    assert out.splitlines()[:4] == ["lambda = 2", "mu = 0.5", "delta = 0.25", "t = 0.7"]
    assert "fs_bound@0.5 = " in out and "fs_bound@3 = " in out
    assert out.count("variant=as-printed") == 2


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_keys(capsys, tmp_path, out_format):
    from_cfg, from_flags = tmp_path / "cfg.out", tmp_path / "flags.out"
    text = (
        "lambda = 1:2:2\nmu = 0:1:2\ndelta = 0.5\nt = 0.6:0.8:3\neta = 0,2\n"
        f"variant = as-printed\nformat = {out_format}\noutput = {from_cfg}\n"
    )
    flags = [
        "--lambda", "1:2:2", "--mu", "0:1:2", "--delta", "0.5", "--t", "0.6:0.8:3",
        "--eta", "0", "--eta", "2", "--variant", "as-printed",
        "--format", out_format, "--output", str(from_flags),
    ]
    assert same_as_flags(capsys, tmp_path, "sweep", text, flags) == ""
    got = from_cfg.read_text()
    assert got == from_flags.read_text()
    assert got.startswith("[" if out_format == "json" else "lambda,")
    assert got.count("fs_bound@0") == (12 if out_format == "json" else 1)
    assert "fs_bound@2" in got


def test_sweep_variant_key_changes_output(capsys, tmp_path):
    grid = "lambda = 1\nmu = 1\ndelta = 1\nt = 0.6\neta = 1.5\n"
    _, corrected, _ = run(capsys, ["sweep", "--config", config(tmp_path, grid, "a.cfg")])
    _, printed, _ = run(
        capsys, ["sweep", "--config", config(tmp_path, grid + "variant = as-printed\n", "b.cfg")]
    )
    assert corrected != printed


@pytest.fixture
def oracle_calls(monkeypatch):
    """Record what verify hands to the oracle instead of running it."""
    calls = []

    def record(grid, etas, cfg):
        calls.append((grid, list(etas), cfg))
        return []

    monkeypatch.setattr(cli, "sweep_verify", record)
    return calls


def test_verify_keys(capsys, tmp_path, oracle_calls):
    text = (
        "lambda = 1:2:2\nmu = 0.5\ndelta = 0:1:3\nt = 0.6\neta = 1.5\n"
        "samples = 77\nseed = 5\nmode = full-system\nvariant = as-printed\n"
    )
    code, out, _ = run(capsys, ["verify", "--config", config(tmp_path, text)])
    assert code == EXIT_OK
    (grid, etas, cfg), = oracle_calls
    assert [(p.lam, p.mu, p.delta, p.t) for p in grid] == [
        (lam, 0.5, delta, 0.6) for lam in (1.0, 2.0) for delta in (0.0, 0.5, 1.0)
    ]
    assert etas == [1.5]
    assert (cfg.n_samples, cfg.seed, cfg.mode) == (77, 5, "full-system")
    assert "fs branch continuity (as-printed)" in out


def test_verify_defaults_without_config(capsys, oracle_calls):
    code, out, _ = run(capsys, ["verify"])
    assert code == EXIT_OK
    (grid, etas, cfg), = oracle_calls
    assert len(grid) == 81
    assert etas == [0.0, 1.0, 2.0]
    assert (cfg.n_samples, cfg.seed, cfg.mode) == (10_000, 1729, "proof-set")
    assert "fs branch continuity (corrected)" in out


@pytest.mark.parametrize("key", ["n-max", "n_max"])
def test_cheb_keys(capsys, tmp_path, key):
    out = same_as_flags(
        capsys, tmp_path, "cheb", f"t = 0.3\n{key} = 3\n", ["--t", "0.3", "--n-max", "3"]
    )
    assert out.splitlines()[0] == "t = 0.3"
    assert len(out.splitlines()) == 2 + 4


def test_series_keys(capsys, tmp_path):
    out = same_as_flags(
        capsys, tmp_path, "series",
        "coeffs = 0.3,0.1j\norder = 5\nlambda = 1\nmu = 1\ndelta = 0\nt = 0.6\n",
        ["--coeffs", "0.3,0.1j", "--order", "5", *BASE],
    )
    assert "order = 5" in out
    assert "f[3] = 0+0.1j" in out
    assert "admissible = " in out


# ---------------------------------------------------------------------------
# flags beat the file


def test_flag_beats_file(capsys, tmp_path):
    path = config(tmp_path, "lambda = 1\nmu = 1\ndelta = 0\nt = 0.6\neta = 1,2\n")
    code, out, _ = run(capsys, ["bound", "--config", path, "--t", "0.75", "--eta", "3"])
    assert code == EXIT_OK
    assert "t = 0.75" in out.splitlines()
    assert [line.split(" = ")[0] for line in out.splitlines() if "fs_bound@" in line] == [
        "fs_bound@3"
    ]


def test_flag_eta_replaces_file_eta_in_verify(capsys, tmp_path, oracle_calls):
    path = config(tmp_path, "eta = 1,2\nsamples = 5\n")
    code, _, _ = run(capsys, ["verify", "--config", path, "--eta", "3", "--samples", "9"])
    assert code == EXIT_OK
    assert oracle_calls[0][1] == [3.0]
    assert oracle_calls[0][2].n_samples == 9


# ---------------------------------------------------------------------------
# bad values exit 2


@pytest.mark.parametrize(
    "command, text",
    [
        (["sweep", *BASE], "format = xml\n"),
        (["verify"], "mode = bogus\n"),
        (["bound", *BASE], "variant = x\n"),
        (["sweep", *BASE], "variant = x\n"),
        (["verify"], "variant = x\n"),
        (["verify"], "samples = 0\n"),
    ],
)
def test_bad_config_value_exits_two(capsys, tmp_path, command, text):
    code, out, err = run(capsys, [*command, "--config", config(tmp_path, text)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err
    if text == "samples = 0\n":
        # a key verify takes: its value check, not the unknown-key check, rejects it
        assert err == "error: config key samples: must be >= 1, got 0\n"


# ---------------------------------------------------------------------------
# one file serves every command


def test_keys_a_command_does_not_take_are_ignored(capsys, tmp_path):
    other = config(tmp_path, "lambda = 3\n", "other.cfg")
    path = config(
        tmp_path,
        "lambda = 1\nmu = 1\ndelta = 0\nt = 0.6\nsamples = 5\nformat = json\n"
        f"coeffs = 0.3\nn-max = 4\nconfig = {other}\n",
    )
    code, out, _ = run(capsys, ["bound", "--config", path])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "lambda = 1"
    code, out, _ = run(capsys, ["cheb", "--config", path])
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2 + 5


@pytest.mark.parametrize(
    "command, key",
    [(["bound", *BASE], "varient"), (["verify", "--samples", "5"], "sample"),
     (["cheb", "--t", "0.3"], "n_maxx")],
)
def test_key_no_command_takes_exits_two(capsys, tmp_path, command, key):
    path = config(tmp_path, f"variant = as-printed\n{key} = as-printed\n")
    code, out, err = run(capsys, [*command, "--config", path])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"config key {key}:" in err


# the oracle has no refinement pass, so neither the key nor the flags exist
@pytest.mark.parametrize("value", ["true", "false"])
def test_refine_key_exits_two(capsys, tmp_path, oracle_calls, value):
    code, out, err = run(capsys, ["verify", "--config", config(tmp_path, f"refine = {value}\n")])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: config key refine: no command takes this key\n"
    assert oracle_calls == []


@pytest.mark.parametrize("flag", ["--refine", "--no-refine"])
def test_refine_flags_exit_two(capsys, oracle_calls, flag):
    code, out, err = run(capsys, ["verify", flag])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"unrecognized arguments: {flag}" in err
    assert oracle_calls == []


def test_key_another_command_takes_is_ignored(capsys, tmp_path):
    # mode, samples and seed are verify's, format is sweep's, n_max is cheb's
    path = config(tmp_path, "mode = full-system\nsamples = 5\nseed = 3\nformat = json\nn_max = 2\n")
    code, out, _ = run(capsys, ["bound", *BASE, "--config", path])
    assert code == EXIT_OK
    assert out == run(capsys, ["bound", *BASE])[1]


@pytest.mark.parametrize(
    "command, text, message",
    [(["verify"], "seed = -1\n", "config key seed: must be >= 0, got -1"),
     (["verify"], "samples = 0\n", "config key samples: must be >= 1, got 0"),
     (["cheb", "--t", "0.3"], "n_max = -1\n", "config key n_max: must be >= 0, got -1")],
)
def test_integer_floor_error_names_the_key(capsys, tmp_path, command, text, message):
    code, out, err = run(capsys, [*command, "--config", config(tmp_path, text)])
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
