"""Tightness floor: on the default ``verify`` grid in proof-set mode every
checked oracle result comes within 1e-3 of its closed-form bound, so a
PASS from an oracle that never gets near the bounds cannot go unnoticed."""

from chebbounds import cli
from chebbounds.oracle import PROOF_SET, SKIPPED, OracleConfig, sweep_verify

TIGHTNESS_FLOOR = 1.0 - 1e-3


def test_tightness_floor_on_default_verify_grid(acceptance_report):
    args = cli.build_parser().parse_args(["verify"])
    assert args.mode == PROOF_SET
    grid = cli.grid_points(args)
    cfg = OracleConfig(mode=args.mode, n_samples=args.samples, seed=args.seed)
    checked = [r for r in sweep_verify(grid, list(args.eta), cfg) if r.verdict != SKIPPED]
    assert len(checked) > 300
    ratios = [r.sup_value / r.closed_form_bound for r in checked]
    loose = [
        (r.quantity.label, r.params, ratio)
        for r, ratio in zip(checked, ratios)
        if not ratio >= TIGHTNESS_FLOOR
    ]
    assert not loose
    acceptance_report(
        "oracle tightness floor",
        f"{len(checked)} checked results on the default verify grid, "
        f"min sup/bound {min(ratios):.6f} >= 1 - 1e-3",
    )
