"""The sweep's renderer writes each number from its digits in numpy; every
CSV field must be the text that ``"%.12g" % v`` gives, byte for byte, every
JSON number ``repr(float("%.12g" % v))``, with inf as ``"unbounded"``, and a
rendered chunk must equal the row-by-row ``%`` rendering."""

import math

import numpy as np
import pytest

from chebbounds import cli
from chebbounds.render import _number_text
from chebbounds.text import _NUMBER

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def fields(values) -> list[str]:
    """The CSV lines of one column of ``values``."""
    return cli.render_csv(["v"], [np.asarray(values, dtype=float)]).decode("ascii").splitlines()


def assert_exact(values):
    values = [float(v) for v in values]
    assert fields(values) == ["%.12g" % v for v in values]


def ulps(x: float, n: int) -> list[float]:
    """x and its n nearest neighbours on each side."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def edge_values() -> list[float]:
    rng = np.random.default_rng(2024)
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
             math.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
             999999999999.5, 99999999999.95, 0.5, 1.0, 1200.0, 1e11, 1e12]
    for k in range(-5, 14):
        edges += ulps(float(f"1e{k}"), 3)
    edges += ulps(1e-4, 3) + ulps(1e12, 3) + ulps(999999999999.5, 3) + ulps(99999999999.95, 3)
    # 12-digit decimal half-way values d.ddddddddddd5, at every fixed-notation exponent and
    # on both sides of it; the nearest double lies just above or below the half
    digits = rng.integers(10**11, 10**12, (20, 20)) * 10 + 5
    for exponent, row in zip(range(-6, 14), digits.tolist()):
        edges += [float(f"{d}e{exponent - 12}") for d in row]
    return edges + [-x for x in edges]


def test_edge_values():
    assert_exact(edge_values())


def test_every_binade():
    rng = np.random.default_rng(7)
    exponents = np.arange(-1074, 1024)       # 2^-1074 is the least subnormal
    mantissas = 1.0 + rng.random((len(exponents), 24))
    values = np.ldexp(mantissas, exponents[:, None]).ravel()
    values = values[np.isfinite(values) & (values >= 1e-320)]
    assert values.max() > 1e308
    assert_exact(values.tolist() + (-values[::7]).tolist())


@hypothesis.settings(database=None, max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                           max_size=40))
def test_any_float(values):
    assert_exact(values)


@hypothesis.settings(database=None, max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(1e-5, 1e13), min_size=1, max_size=40))
def test_fixed_notation_floats(values):
    assert_exact(values)


def json_numbers(values) -> list[str]:
    """The JSON fields of ``values``, their NUL padding dropped."""
    text = _number_text(np.asarray(values, dtype=float), json=True)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in text]


def assert_json_exact(values):
    values = [float(v) for v in values]
    assert json_numbers(values) == ['"unbounded"' if math.isinf(v) else repr(float(_NUMBER % v))
                                    for v in values]


def test_json_edge_values():
    # whole numbers in fixed notation gain .0; from 1e12, repr is fixed notation
    # up to 1e16 where %.12g is exponent form
    edges = [0.0, -0.0, 1e12, 1e16, 9999.99999999999, 999999999999.5]
    assert json_numbers(edges) == ["0.0", "-0.0", "1000000000000.0", "1e+16", "10000.0",
                                   "1000000000000.0"]
    assert_json_exact(edges + edge_values())


@hypothesis.settings(database=None, max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                           | st.floats(1e12, 1e16) | st.floats(-1e16, -1e12),
                           min_size=1, max_size=40))
def test_json_any_float(values):
    assert_json_exact(values)


def row_by_row(columns) -> str:
    """The sweep's CSV rendering by one ``%`` per row."""
    flags = [col.dtype == bool for col in columns]
    cells = [["true" if v else "false" for v in col.tolist()] if flag else col.tolist()
             for col, flag in zip(columns, flags)]
    line = ",".join("%s" if flag else "%.12g" for flag in flags) + "\n"
    return "".join([line % row for row in zip(*cells)])


@pytest.mark.parametrize("seed", range(8))
def test_render_csv_equals_row_by_row(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_columns = int(rng.integers(1, 300)), int(rng.integers(2, 13))
    columns = []
    for _ in range(n_columns):
        col = rng.random(n_rows) * 10.0 ** rng.uniform(-6, 14, n_rows)
        col[rng.random(n_rows) < 0.1] = math.inf
        col[rng.random(n_rows) < 0.05] = 0.0
        columns.append(col)
    columns.insert(int(rng.integers(0, n_columns + 1)), rng.random(n_rows) < 0.5)
    text = cli.render_csv([f"c{i}" for i in range(len(columns))], columns).decode("ascii")
    assert text == row_by_row(columns)
    assert "inf" in text and "true" in text
