"""A search mode is two rows of one table, for a regular and for a singular
point, that give each quantity its a2^2 rule there, or none where the
quantity carries no finite constraint and is skipped."""

import pytest

from chebbounds import oracle
from chebbounds.oracle import A2, A3, FULL_SYSTEM, PROOF_SET, fs_quantity

QUANTITIES = (A2, A3, fs_quantity(1.0), fs_quantity(2.0))


@pytest.mark.parametrize("mode, singular, rules", [
    (PROOF_SET, False, ["summed", "linear", "summed", "summed"]),
    (PROOF_SET, True, [None, "linear", "pinned", None]),
    (FULL_SYSTEM, False, ["capped"] * 4),
    (FULL_SYSTEM, True, ["free"] * 4),
])
def test_each_quantity_takes_the_rule_of_its_row(mode, singular, rules):
    assert [oracle._rule(q, mode, singular) for q in QUANTITIES] == rules


def test_each_rule_belongs_to_one_mode():
    modes = {mode: {rule for row in rows for rule in row.values()}
             for mode, rows in oracle._RULES.items()}
    assert modes[PROOF_SET] | modes[FULL_SYSTEM] == set(oracle._RULE_TABLE)
    assert not modes[PROOF_SET] & modes[FULL_SYSTEM]
