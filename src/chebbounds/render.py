"""The rows of ``sweep`` and their CSV and JSON text, from one renderer; ``cli``
calls them through its own ``sweep_rows``, ``render_csv`` and ``render_json``,
in its process and in the forked worker of ``_worker``."""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal

import numpy as np

from .bounds import closed_form
from .classop import _grid_columns
from .text import _NUMBER

# bytes of a field: the widest _NUMBER text, -1.23456789012e-308, or JSON
# number, -1234567890120000.0, and a NUL
_FIELD = 20
# blocks of _digit_words: zero-padded, trailing zeros NUL, leading zeros NUL,
# and leading zeros NUL with 0 kept as one 0
_Z, _T, _L, _L0 = 0, 10_000, 20_000, 30_000


def _sweep_rows(
    axes: list[np.ndarray], start: int, stop: int, etas, variant: str
) -> list:
    """Rows [start, stop) of the sweep over the checked ``axes``, held as
    one column per column of ``cli.sweep_header``, in its order.  A column is
    an array, or for lambda, mu, delta, t and xi, which repeat by
    construction, a (values, index) pair: the distinct values of those rows,
    at most stop - start of them, and each row's index into them."""
    grid = _grid_columns(axes, start, stop)
    cf = closed_form(*(values[index] for values, index in grid), etas, variant)
    # xi depends on (lambda, mu) only: one value a run of rows that share them
    stride = len(axes[2]) * len(axes[3])
    run = np.arange(start, stop) // stride
    first = np.maximum(np.arange(run[0], run[-1] + 1) * stride - start, 0)
    xi = (cf.factors.xi[first], run - run[0])
    return [*grid, xi, cf.a2, cf.a3, *(f.bound for f in cf.fs), abs(cf.d), cf.singular]


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The powers of ten 1 .. 1e15, all exact doubles, as float64 and as
    int64, and the 4-byte ASCII words of 0 .. 9999 in the four blocks that
    _Z .. _L0 name, as little-endian uint32: byte j holds the digit in place
    j, thousands first.  A word ORs one table entry a place, indexed by that
    place's digit, over the grid of digits; a nonzero digit keeps the bytes
    up to its place (trailing zeros NUL) or from it (leading zeros NUL)."""
    digit = np.arange(10, dtype=np.uint32)
    shift = np.array([[0], [8], [16], [24]], np.uint32)       # the byte of each place
    ones = np.uint32(0xFFFF_FFFF)

    def grid(t: np.ndarray) -> np.ndarray:    # t[j, d] -> OR over j of t[j, digit j of n]
        return (t[0, :, None, None, None] | t[1, :, None, None] | t[2, :, None] | t[3]).ravel()

    text = grid((digit + np.uint32(ord("0"))) << shift)
    lead = grid((ones << shift) * (digit > 0))
    trail = grid((ones >> (np.uint32(24) - shift)) * (digit > 0))
    words = np.concatenate([text, text & trail, text & lead, text & (lead | np.uint32(0xFF00_0000))])
    pow10 = np.cumprod(np.full(16, 10.0)) / 10.0
    return pow10, pow10.astype(np.int64), words.astype("<u4", copy=False)


def _fixed_fields(values: np.ndarray, int_words: int, json: bool) -> tuple[np.ndarray, np.ndarray]:
    """NUL-padded _NUMBER fields of the values whose text is fixed notation
    with at most 4 * int_words integer and 19 - 4 * int_words fraction
    digits, and the mask of those values; the other fields are garbage.
    Where ``json``, a whole number ends in .0, as its repr does.

    With k = 11 - exponent, s = v * 10^k in [1e11, 1e12) is one rounding,
    at most 2^-14, from exact, so its nearest integer m holds the digits
    unless s is within 2.5e-4 of a half.  The words of m // 10^k, leading
    zeros NUL, and of the fraction m % 10^k, trailing zeros NUL, follow;
    m is an integer below 1e12, so int64 holds it and its parts exactly.
    """
    pow10, int_pow10, words = _digit_words()
    low = 12 - 4 * int_words                         # k lies in [low, low + 7]
    fast = (values > 0) & (values < 1e12)            # and so no product overflows
    v = np.where(fast, values, 1.0)
    k = np.clip(11.0 - np.floor(np.log10(v)), low, low + 7).astype(np.intp)
    s = v * pow10[k]
    k = np.clip(k - (s >= 1e12) + (s < 1e11), low, low + 7)
    s = v * pow10[k]
    del v
    fast &= (s >= 1e11) & (s < 1e12 - 0.5) & (np.abs(s - np.floor(s) - 0.5) > 2.5e-4)
    s[~fast] = 0.0
    ip, fp = np.divmod(np.rint(s, out=s).astype(np.int64), int_pow10[k])
    fp *= int_pow10[low + 7 - k]                     # the fraction to low + 7 digits
    del s, k
    out = np.empty((len(values), _FIELD // 4), "<u4")
    units = (1_000_000_000_000, 100_000_000, 10_000, 1)
    above = False                                    # a nonzero word so far
    for j, unit in enumerate(units[-int_words:]):    # leading zeros NUL, 0 kept
        q = ip // unit                               # not divmod: // by a scalar is faster
        ip -= q * unit
        lead = np.where(above, _Z, _L0 if unit == 1 else _L)
        above = above | (q > 0)
        out[:, j] = words[np.add(q, lead, out=q)]
    del ip
    point = fp > 0
    for j, unit in enumerate(units[int_words - 5:], start=int_words):   # trailing zeros NUL
        q = fp // unit
        fp -= q * unit
        out[:, j] = words[np.add(q, _T, out=q, where=fp == 0)]   # where no digit follows
    text = out.view(np.uint8)
    dot = 4 * int_words                              # over the fraction's leading 0
    text[:, dot] = np.where(point | json, ord("."), 0)
    if json:
        text[~point, dot + 1] = ord("0")
    return text, fast


def _pairs(columns: list) -> list[tuple]:
    """Each column as (values, index); a plain array's index is None."""
    return [col if isinstance(col, tuple) else (col, None) for col in columns]


def _number_text(values: np.ndarray, json: bool = False) -> np.ndarray:
    """The NUL-padded field of each value: its _NUMBER text or, where ``json``,
    repr(float(text)) and inf as "unbounded".  Fixed notation, exponent -4 to
    3 and then 4 to 11, is written by _fixed_fields (a decimal of at most 12
    significant digits is the shortest repr of its double, so only a whole
    number's .0 tells JSON apart there), any other number by _NUMBER."""
    text, fast = _fixed_fields(values, 1, json)
    rest = np.flatnonzero(~fast)
    wide, fast = _fixed_fields(values[rest], 3, json)
    text[rest[fast]] = wide[fast]
    rest = rest[~fast]
    if json:
        other = ['"unbounded"' if math.isinf(x) else repr(float(_NUMBER % x))
                 for x in values[rest].tolist()]
    else:
        other = [_NUMBER % x for x in values[rest].tolist()]
    text[rest] = np.array(other, dtype=f"S{_FIELD}").view(np.uint8).reshape(len(rest), _FIELD)
    return text


def _field_matrix(rows: int, header: list[str], out_format: str) -> tuple[bytearray, list]:
    """The bytes of ``rows`` rows of ``out_format`` text with every field NUL,
    and a V{_FIELD} view of each column's fields in them: a CSV line, or an
    indented JSON object and its ",\n".  A chunk overwrites every field
    whole, so one matrix, its fixed text written once, serves every chunk of
    its shape."""
    if out_format == "json":
        before = ['  {\n    "%s": ' % header[0]] + [',\n    "%s": ' % key for key in header[1:]]
        after = "\n  },\n"
    else:
        before, after = [""] + [","] * (len(header) - 1), "\n"
    blank = "\0" * _FIELD
    row = np.frombuffer((blank.join(before) + blank + after).encode("ascii"), np.uint8)
    buf = bytearray(rows * len(row))
    matrix = np.frombuffer(buf, np.uint8).reshape(rows, len(row))
    matrix[:] = row
    starts = np.cumsum([len(text) for text in before]) + _FIELD * np.arange(len(before))
    return buf, [matrix[:, j:j + _FIELD].view(f"V{_FIELD}")[:, 0] for j in starts.tolist()]


def _render_chunk(header: list[str], columns: list, matrix=None, out_format="csv") -> bytearray:
    """The ASCII bytes of one chunk of rows, from the columns of _sweep_rows:
    CSV lines without the header line, or the items of an indented JSON list
    without the brackets.  Each field is written NUL-padded into ``matrix``
    from _field_matrix, or a new one where it is None or of another row
    count, and the matrix less its NULs is the text.  The numbers, each
    distinct value of a (values, index) column once, are formatted in one
    _number_text pass; a column's fields are a slice of that text or, by its
    index, a gather of the slice."""
    record = f"V{_FIELD}"                # a field as one item, so that it moves in one copy
    pairs = _pairs(columns)
    text = _number_text(np.concatenate([v for v, _ in pairs if v.dtype != bool]),
                        out_format == "json").view(record)
    bools = np.array([b"false", b"true"], dtype=record)
    v, index = pairs[0]
    rows = len(v if index is None else index)
    if matrix is None or len(matrix[1][0]) != rows:
        matrix = _field_matrix(rows, header, out_format)
    buf, fields = matrix
    offset = 0
    for field, (v, index) in zip(fields, pairs):
        if v.dtype == bool:
            block = bools[v.astype(np.intp)]
        else:
            block, offset = text[offset:offset + len(v), 0], offset + len(v)
        field[:] = block if index is None else block[index]
    del text, block                  # so that only the matrix is held while compacted
    return buf.translate(None, b"\0")


@contextlib.contextmanager
def _worker(starts: range, render):
    """Fork a worker that sends ``render(start)`` for each of ``starts``, in
    order, through a pipe, and yield the call that receives the next one;
    with no starts, fork nothing.  The pipe holds the worker to about a
    chunk ahead.  The worker ends through ``os._exit``, whatever happens, so
    it never returns into its caller; this process kills and reaps it however
    the block ends.  A worker that fails or ends early fails ``receive`` with
    an OSError."""
    if not starts:
        yield None
        return
    read_fd, write_fd = os.pipe()
    # a pipe that holds a whole CSV chunk, about 0.6 MB, where the platform allows
    # (F_SETPIPE_SZ is Linux's, and gives an unprivileged process at most 1 MiB)
    with contextlib.suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                try:
                    for start in starts:
                        _send(pipe, render(start), 1)
                    code = 0
                except Exception as exc:
                    _send(pipe, f"{type(exc).__name__}: {exc}".encode(), -1)
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")

    def receive() -> bytes:
        size = pipe.read(8)
        n = int.from_bytes(size, "little", signed=True)
        data = pipe.read(abs(n))
        if len(size) < 8 or len(data) < abs(n):
            raise OSError("the sweep's worker ended early")
        if n < 0:
            raise OSError(f"the sweep's worker failed: {data.decode()}")
        return data

    try:
        yield receive
    finally:
        # a caller that ignores SIGCHLD has its children reaped for it
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        pipe.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _send(pipe, data, sign: int) -> None:
    """One message of the worker: its signed length, negative for an error, then its bytes."""
    pipe.write((sign * len(data)).to_bytes(8, "little", signed=True))
    pipe.write(data)
    pipe.flush()
