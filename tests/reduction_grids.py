"""The built-in verification grid of a reduction slice, one ClassParams per
point, for the tests that evaluate a slice point by point."""

from chebbounds import reductions
from chebbounds.classop import ClassParams, param_points


def reduction_grid(cid: str) -> tuple[list[ClassParams], list[float] | None]:
    """The grid over the slice's axes and its eta values (None for a
    coefficient or an eta-pinned slice)."""
    _, *axes, eta_axis = reductions._entry(cid)
    return param_points(*axes), (list(eta_axis) if eta_axis and len(eta_axis) > 1 else None)
