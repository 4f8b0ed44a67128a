"""The library writes powers of variables as products, never with ``**``.

Python's ``**`` on a float calls libm ``pow``, and numpy's vectorised power
may round to the other neighbour, so only products give the same bits for a
float and for an array element on every platform.  A power of two numeric
literals, such as ``2.0 ** 53``, is a constant and stays allowed.
"""

import ast
import pathlib

import pytest

import chebbounds

SOURCES = sorted(pathlib.Path(chebbounds.__file__).parent.glob("*.py"))


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))


def powers_of_variables(source: str) -> list[str]:
    """Each ``**`` (or ``**=``) whose operands are not both numeric literals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not (_is_number(node.left) and _is_number(node.right)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_sources_are_found():
    assert {"bounds.py", "cli.py", "oracle.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_power_of_a_variable(path):
    assert powers_of_variables(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", ["t ** 3", "8.0 * t ** 4 - 1.0", "x **= 2", "2.0 ** n",
                                    "5.0 * a2 ** 3"])
def test_rule_catches_a_power_of_a_variable(source):
    assert len(powers_of_variables(source)) == 1


@pytest.mark.parametrize("source", ["2.0 ** 53", "-(2 ** 30)", "t * t * t", "10 ** -3"])
def test_rule_allows_constants_and_products(source):
    assert powers_of_variables(source) == []
