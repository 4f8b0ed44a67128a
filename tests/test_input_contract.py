"""The input contract as a property: for any argv of ``bound``, ``sweep``,
``cheb``, ``series`` and ``verify``, flags and config file alike, ``main``
exits 0, 2 or 3, or 1 from a verify that prints a FAIL line, and raises
nothing; a rejected input prints one ``error:`` line or argparse's usage;
standard output holds no nan; and an inf in a sweep row sits on a row whose
singular_flag is true."""

import contextlib
import io
import json
import warnings

import pytest

from chebbounds import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(database=None, max_examples=200, deadline=None)

# numbers as a user types them: non-finite (three times as often as each other
# kind), signed zero, extremes, exponent forms, and text that is no number at all
NON_FINITE = ["inf", "-inf", "+inf", "Infinity", "nan", "-nan", "NaN", "1" + "0" * 400]
EDGES = ["0", "-0", "+0", "-0.0", "1e308", "-1e308", "1e-308", "5e-324", "-5e-324", "1e75",
         "1.0000001e75", "-1e75", "1E3", "2.5e-1", ".5", "5.", "1_000", "0x10", "1e", "e5", "",
         " ", "x"]
NUMBERS = st.one_of(
    st.sampled_from(NON_FINITE), st.sampled_from(NON_FINITE), st.sampled_from(NON_FINITE),
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-3.0, 3.0).map(lambda x: f"{x:g}"),
    st.integers(-(10**30), 10**30).map(str),
)
# values that pass each check, up to the extremes, in the forms a user might use
# (a short form can round a value out of its range)
PLAUSIBLE = {
    "lambda": st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1e75)),
    "mu": st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e75), st.sampled_from([-0.0])),
    "delta": st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e75), st.sampled_from([-0.0])),
    "t": st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    "eta": st.one_of(st.floats(-4.0, 4.0), st.floats(-1e75, 1e75)),
}
FORMS = (repr, "{:g}".format, "{:.3E}".format, "{:.17e}".format)
PARAMS = ("lambda", "mu", "delta", "t")


def _valid(name):
    # the form follows from the value, which saves a draw
    return PLAUSIBLE[name].map(lambda x: FORMS[hash(x) % len(FORMS)](x))


def _range(name):
    """A value or START:STOP:COUNT of a sweep axis."""
    value = _valid(name)
    return st.one_of(value, st.builds(lambda a, b, n: f"{a}:{b}:{n}", value, value,
                                      st.integers(1, 3)))


# a sweep range gone wrong: a count out of range or no integer, or parts missing or extra
WILD_RANGES = st.one_of(
    NUMBERS,
    st.builds(lambda a, b, n: f"{a}:{b}:{n}", NUMBERS, NUMBERS, st.integers(1, 3)),
    st.builds(lambda a, b, n: f"{a}:{b}:{n}", _range("t"), _range("t"),
              st.sampled_from(["0", "-1", "1.5", "1e3", "x", "", "1000001", "9" * 30])),
    st.builds(lambda a, b: f"{a}:{b}", NUMBERS, NUMBERS),
    st.builds(lambda a: f"{a}:1:2:3", NUMBERS),
)
WILD_INTEGERS = st.sampled_from(["-1", "257", "1e2", "2.0", "x", "", "9" * 30])
COEFF = st.one_of(st.floats(-10.0, 10.0).map(repr),
                  st.builds(lambda a, b: f"{a:g}{b:+g}j", st.floats(-1e3, 1e3), st.floats(-1, 1)))
WILD_COEFF = st.one_of(NUMBERS, st.builds(lambda a, b: f"({a}+{b}j)", NUMBERS, NUMBERS))


def _option(name, valid, wild, required=True):
    """The (flag, value) pairs of one option, as two strategies: as a valid
    call gives them (once, twice with the last winning, or, if optional,
    not at all), and broken (a wild value, most often not finite, or, if
    required, left out)."""
    once = valid.map(lambda v: [(name, v)])
    twice = st.tuples(valid, valid).map(lambda vs: [(name, v) for v in vs])
    absent = st.just([])
    wilder = st.one_of(st.sampled_from(NON_FINITE), wild).map(lambda v: [(name, v)])
    if required:
        return st.one_of(once, once, twice), st.one_of(wilder, wilder, absent)
    return st.one_of(once, absent, twice), wilder


def _demo():
    """series' operator demo, as _option gives an option: all four
    parameters or none, or broken: some of them, or wild values."""
    lam = st.floats(1.0, 2.0**53).map(repr)          # the operator series' own ceiling
    every = st.tuples(lam, *map(_valid, PARAMS[1:])).map(lambda vs: list(zip(PARAMS, vs)))
    wild = st.tuples(*(st.one_of(_valid(p), NUMBERS) for p in PARAMS))
    return st.one_of(every, st.just([])), st.one_of(every.map(lambda pairs: pairs[1:]),
                                                    wild.map(lambda vs: list(zip(PARAMS, vs))))


def _invocations(command, *options, demo=(st.just([]),) * 2):
    """(argv, config lines or None) of ``command``: every option valid or,
    as often, one option broken, as _option gives them; the flags turned
    round by a drawn offset, all as ``--name value`` or all as
    ``--name=value``; the config file sets the command's options, now and
    then another command's key or a key of none."""
    good, bad = zip(*(_option(*option) for option in options), demo)
    broken = [st.tuples(*good[:i], bad[i], *good[i + 1:]) for i in range(len(good))]
    flags = st.one_of(st.tuples(*good), st.one_of(*broken))
    own = [st.tuples(st.just(name.replace("-", "_")), valid) for name, valid, *_ in options]
    other = st.tuples(st.sampled_from(["samples", "seed", "mode", "nonsense"]), NUMBERS)
    config = st.one_of(st.none(), st.lists(st.one_of(*own, other), max_size=2))

    def build(flags, turn, joined, config):
        pairs = [pair for pairs in flags for pair in pairs]
        turn %= len(pairs) or 1
        argv = [command]
        for name, value in pairs[turn:] + pairs[:turn]:
            argv += [f"--{name}={value}"] if joined else [f"--{name}", value]
        return argv, None if config is None else [f"{key} = {value}" for key, value in config]

    return st.builds(build, flags, st.integers(0, 15), st.booleans(), config)


VARIANT = ("variant", st.sampled_from(["corrected", "as-printed"]), st.just("x"), False)
INVOCATIONS = {
    "bound": _invocations("bound", *((p, _valid(p), NUMBERS) for p in PARAMS),
                          ("eta", _valid("eta"), NUMBERS, False), VARIANT),
    "sweep": _invocations("sweep", *((p, _range(p), WILD_RANGES) for p in PARAMS),
                          ("eta", _valid("eta"), NUMBERS, False), VARIANT,
                          ("format", st.sampled_from(["csv", "json"]), st.just("xml"), False)),
    "cheb": _invocations("cheb", ("t", st.floats(-1.0, 1.0).map(repr), NUMBERS),
                         ("n-max", st.integers(0, 256).map(str), WILD_INTEGERS, False)),
    "verify": _invocations("verify", *((p, _range(p), WILD_RANGES, False) for p in PARAMS),
                           ("eta", _valid("eta"), NUMBERS, False), VARIANT,
                           ("samples", st.integers(1, 50).map(str), WILD_INTEGERS, False),
                           ("seed", st.integers(0, 2**64).map(str), WILD_INTEGERS, False),
                           ("mode", st.sampled_from(["proof-set", "full-system"]),
                            st.just("x"), False)),
    "series": _invocations("series",
                           ("coeffs", st.lists(COEFF, min_size=1, max_size=4).map(",".join),
                            st.lists(WILD_COEFF, max_size=4).map(",".join)),
                           ("order", st.integers(5, 24).map(str), WILD_INTEGERS, False),
                           demo=_demo()),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")         # a warning on the way is a failure
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv, config, path):
    if config is not None:
        path.write_text("\n".join(config) + "\n")
        argv = argv + ["--config", str(path)]
    code, out, err = _run(argv)
    failed = any(line.startswith("[FAIL]") for line in out.splitlines())
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO) or (
        code == cli.EXIT_VERIFY and failed), (code, err)
    assert "Traceback" not in err
    if code in (cli.EXIT_OK, cli.EXIT_VERIFY):
        assert err == ""
    else:
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith("error: ")) or (
            code == cli.EXIT_USAGE and lines[0].startswith("usage: ") and "error:" in lines[-1]
        ), err
    assert "nan" not in out.lower()
    return code, out


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "chebbounds.cfg"


@SETTINGS
@hypothesis.given(INVOCATIONS["bound"])
def test_bound_contract(config_path, invocation):
    code, out = _check(*invocation, config_path)
    if code == cli.EXIT_OK and "inf" in out:
        assert out.endswith("singular_flag = true\n"), out


@SETTINGS
@hypothesis.given(INVOCATIONS["sweep"])
def test_sweep_contract(config_path, invocation):
    code, out = _check(*invocation, config_path)
    if code != cli.EXIT_OK:
        return
    if out.startswith("["):
        for row in json.loads(out):
            assert "unbounded" not in row.values() or row["singular_flag"] is True, row
    else:
        header, *rows = out.splitlines()
        assert header.endswith(",singular_flag")
        for row in rows:
            assert "inf" not in row or row.endswith(",true"), row


@SETTINGS
@hypothesis.given(INVOCATIONS["cheb"])
def test_cheb_contract(config_path, invocation):
    _check(*invocation, config_path)


@SETTINGS
@hypothesis.given(INVOCATIONS["series"])
def test_series_contract(config_path, invocation):
    _check(*invocation, config_path)


@SETTINGS
@hypothesis.given(INVOCATIONS["verify"])
def test_verify_contract(config_path, invocation):
    _check(*invocation, config_path)


def test_missing_config_is_an_io_error(tmp_path):
    code, out, err = _run(["bound", "--config", str(tmp_path / "absent.cfg")])
    assert (code, out) == (cli.EXIT_IO, "")
    assert err.startswith("error: ") and err.count("\n") == 1
