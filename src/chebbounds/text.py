"""The number format of every command's output, in one place."""

from __future__ import annotations

# 12 significant digits; inf renders as inf
_NUMBER = "%.12g"


def fmt(x: float | bool) -> str:
    """12-significant-digit rendering; booleans as true/false, inf as inf."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return _NUMBER % float(x)


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}j"
