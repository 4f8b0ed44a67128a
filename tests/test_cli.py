import argparse
import json
import subprocess
import sys

import pytest

from chebbounds.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    grid_points,
    main,
    parse_range,
    read_config,
)

BASE = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_bound_output(text):
    vals = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" = ")
        vals[key] = rest.split()[0]
    return vals


# ---------------------------------------------------------------------------
# argument and config plumbing


def test_parse_range_forms():
    assert parse_range("0.6") == (0.6, 0.6, 1)
    assert parse_range("1:3:5") == (1.0, 3.0, 5)
    with pytest.raises(ValueError, match="range"):
        parse_range("1:3")
    with pytest.raises(ValueError, match="count"):
        parse_range("1:3:0")


def test_read_config_comments_and_normalization(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\nlambda = 2   # inline\nn-max = 7\n\nmu=0\n")
    got = read_config(str(cfg))
    assert got == {"lambda": "2", "n_max": "7", "mu": "0"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config(str(bad))


def test_grid_points_order():
    args = argparse.Namespace(lam="1:2:2", mu="0", delta="0", t="0.6:0.8:2")
    pts = grid_points(args)
    assert [(p.lam, p.t) for p in pts] == [(1, 0.6), (1, 0.8), (2, 0.6), (2, 0.8)]


# ---------------------------------------------------------------------------
# bound


def test_bound_basic(capsys):
    code, out, _ = run(capsys, ["bound", *BASE, "--eta", "1"])
    assert code == EXIT_OK
    vals = parse_bound_output(out)
    assert vals["lambda"] == "1"
    assert vals["xi"] == "1"
    assert vals["a2_bound"] == "0.821583836258"
    assert vals["a3_bound"] == "0.76"
    assert vals["fs_bound@1"] == "0.4"
    assert vals["denom"] == "2.56"
    assert vals["singular_flag"] == "false"
    assert "branch=flat" in out
    assert "variant=corrected" in out


def test_bound_missing_required(capsys):
    code, _, err = run(capsys, ["bound", "--lambda", "1", "--mu", "1"])
    assert code == EXIT_USAGE
    assert "--delta" in err and "--t" in err


def test_bound_invalid_domain(capsys):
    code, _, err = run(capsys, ["bound", "--lambda", "0.2", "--mu", "0", "--delta", "0", "--t", "0.6"])
    assert code == EXIT_USAGE
    assert "lambda" in err


def test_bound_config_and_override(capsys, tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("lambda = 1\nmu = 1\ndelta = 0\nt = 0.6\neta = 1,2\n")
    code, out, _ = run(capsys, ["bound", "--config", str(cfg)])
    assert code == EXIT_OK
    assert "fs_bound@1" in out and "fs_bound@2" in out
    code, out2, _ = run(capsys, ["bound", "--config", str(cfg), "--t", "0.75"])
    assert code == EXIT_OK
    assert parse_bound_output(out2)["t"] == "0.75"


def test_unknown_flag_exits_two(capsys):
    assert main(["bound", "--bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_point_matches_bound(capsys):
    etas = ["--eta", "0", "--eta", "1", "--eta", "2"]
    code, bound_out, _ = run(capsys, ["bound", *BASE, *etas])
    assert code == EXIT_OK
    bound_vals = parse_bound_output(bound_out)
    code, sweep_out, _ = run(capsys, ["sweep", *BASE, *etas])
    assert code == EXIT_OK
    header, row = (line.split(",") for line in sweep_out.splitlines())
    sweep_vals = dict(zip(header, row))
    shared = [
        "lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound",
        "fs_bound@0", "fs_bound@1", "fs_bound@2", "denom", "singular_flag",
    ]
    assert header == shared
    for key in shared:
        assert sweep_vals[key] == bound_vals[key], key


def test_sweep_csv_grid_shape(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--lambda", "1:2:2", "--mu", "0:1:2", "--delta", "0", "--t", "0.6:0.8:3"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3
    assert lines[0] == "lambda,mu,delta,t,xi,a2_bound,a3_bound,denom,singular_flag"


def test_sweep_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", *BASE, "--eta", "1", "--format", "json"],
    )
    assert code == EXIT_OK
    objs = json.loads(out)
    assert len(objs) == 1
    assert objs[0]["a3_bound"] == 0.76
    assert objs[0]["singular_flag"] is False
    assert json.dumps(objs, indent=2) + "\n" == out


def test_sweep_singular_row_flagged(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--lambda", "2", "--mu", "0", "--delta", "0",
         "--t", "0.70710678118654752440", "--eta", "0"],
    )
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    header = out.strip().splitlines()[0].split(",")
    vals = dict(zip(header, row))
    assert vals["singular_flag"] == "true"
    assert vals["a2_bound"] == "inf"
    assert vals["fs_bound@0"] == "inf"


def test_sweep_json_singular_is_unbounded_string(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--lambda", "2", "--mu", "0", "--delta", "0",
         "--t", "0.70710678118654752440", "--format", "json"],
    )
    assert code == EXIT_OK
    obj = json.loads(out)[0]
    assert obj["a2_bound"] == "unbounded"
    assert obj["singular_flag"] is True


def test_sweep_output_file_and_determinism(capsys, tmp_path):
    args = ["sweep", "--lambda", "1:3:3", "--mu", "0:2:2", "--delta", "0",
            "--t", "0.55:0.95:3", "--eta", "1"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--output", str(f1)]) == EXIT_OK
    assert main([*args, "--output", str(f2)]) == EXIT_OK
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_output_io_error(capsys):
    code, _, err = run(capsys, ["sweep", *BASE, "--output", "/nonexistent/x.csv"])
    assert code == EXIT_IO
    assert "error" in err


def test_sweep_bad_range_count(capsys):
    code, _, err = run(capsys, ["sweep", "--lambda", "1:2:0", "--mu", "0", "--delta", "0", "--t", "0.6"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# cheb and series


def test_cheb_table(capsys):
    code, out, _ = run(capsys, ["cheb", "--t", "0.6", "--n-max", "4"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t = 0.6"
    assert len(lines) == 2 + 5
    last = lines[-1].split()
    assert last[0] == "4"
    assert last[1] == "-1.2464"


@pytest.mark.parametrize("t", ["0", "-0", "-0.0", "0e-300"])
def test_cheb_prints_zero_unsigned(capsys, t):
    # U_n(0) is 0 at odd n, where the recurrence 2t U(n-1) - U(n-2) gives -0.0
    # for t = 0 at n = 3 and for t = -0.0 at n = 1 and 5
    code, out, _ = run(capsys, ["cheb", "--t", t, "--n-max", "5"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t = 0"
    rows = [line.split() for line in lines[2:]]
    assert [row[1:3] for row in rows] == [[v, v] for v in ("1", "0", "-1", "0", "1", "0")]


def test_cheb_rejects_negative_degree(capsys):
    code, _, err = run(capsys, ["cheb", "--t", "0.6", "--n-max", "-1"])
    assert code == EXIT_USAGE


def test_series_inverse_block(capsys):
    code, out, _ = run(capsys, ["series", "--coeffs", "0.3,0.1", "--order", "4"])
    assert code == EXIT_OK
    vals = parse_bound_output(out)
    assert vals["f[2]"] == "0.3"
    assert vals["inverse[2]"] == "-0.3"
    assert vals["inverse[3]"] == "0.08"
    assert vals["inverse[4]"] == "0.015"


def test_series_operator_block(capsys):
    code, out, _ = run(capsys, ["series", "--coeffs", "0.3,0.1", *BASE])
    assert code == EXIT_OK
    vals = parse_bound_output(out)
    assert vals["c1"] == "0.5"
    assert vals["admissible"] == "true"


def test_series_partial_params_rejected(capsys):
    code, _, err = run(capsys, ["series", "--coeffs", "0.3", "--lambda", "1"])
    assert code == EXIT_USAGE
    assert "operator demo" in err


def test_series_complex_coefficients(capsys):
    code, out, _ = run(capsys, ["series", "--coeffs", "0.1+0.2j,-0.05", "--order", "3"])
    assert code == EXIT_OK
    assert "f[2] = 0.1+0.2j" in out


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_quickly(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "300"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "verify: PASS"
    assert sum(1 for line in lines if line.startswith("[PASS]")) == 5
    assert not any(line.startswith("[FAIL]") for line in lines)


def test_verify_byte_identical(capsys):
    args = ["verify", "--samples", "300", "--seed", "99"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_as_printed_is_informational(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "300", "--variant", "as-printed"])
    assert code == EXIT_OK
    assert "[INFO] fs branch continuity" in out
    assert "verify: PASS" in out


def test_verify_full_system_mode(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "300", "--mode", "full-system"])
    assert code == EXIT_OK
    assert "oracle soundness (full-system)" in out


def test_verify_zero_samples_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--samples", "0"])
    assert code == EXIT_USAGE
    assert "--samples" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["verify", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
     (["verify", "--samples", "-3"], "argument --samples: must be >= 1, got -3"),
     (["cheb", "--t", "0.6", "--n-max", "-2"], "argument --n-max: must be >= 0, got -2")],
)
def test_integer_floor_error_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_verify_restricted_grid(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--samples", "300", "--lambda", "1", "--mu", "0:1:2",
         "--delta", "0", "--t", "0.6", "--eta", "1"],
    )
    assert code == EXIT_OK
    assert "2 points x 3 quantities" in out


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "chebbounds.cli", "bound", *BASE],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "a2_bound = 0.821583836258" in proc.stdout
