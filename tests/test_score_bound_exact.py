"""Exact proof of the oracle's score bound.

With a2^2 = alpha q and r = beta (c2 - d2), a rule's score is |x q + beta
(c2 - d2)|, x = (1 - eta) alpha, and ``_score_bound`` bounds it by the
rule's form of (|x|, |beta|), the bound on |a2| by the root of the form of
(|alpha|, 0).  For real x and beta, each form is the maximum of its score
over the closed unit polydisk.  Expanded from the rule's own terms, the
score is a sum of monomials with real coefficients, each the power of one
column and no column in two of them.  So by the triangle inequality it is at
most the sum of the coefficients' moduli, and it attains that sum where each
monomial is the sign of its coefficient.  sympy shows both, and the sum equal
to the form, on each of eight regions that cover every real (x, beta); on a
grid, the code's forms equal these maxima.
"""

import itertools

import pytest

sp = pytest.importorskip("sympy")

from chebbounds import oracle  # noqa: E402

X, BETA = sp.symbols("x beta", real=True)
P, Q = sp.symbols("p q", nonnegative=True)


def joint(x, beta):
    """The maximum for q = c2 + d2: the score is |(x + beta) c2 + (x - beta) d2|."""
    return 2 * sp.Max(x, beta)


# rule -> the maximum of its score over the closed unit polydisk, of (|x|, |beta|)
MAXIMA = {
    "summed": joint,
    "capped": joint,
    "pinned": joint,                          # its alpha is 0, so x is too
    "linear": lambda x, beta: 2 * (x + beta),  # q = c1^2 + d1^2
    "free": lambda x, beta: x + 2 * beta,      # q = a2^2, with d2 = -c2
}

# every real (x, beta), by p, q >= 0: |x| >= |beta| or |beta| >= |x|, times the signs
REGIONS = [region
           for sx, sb in itertools.product((1, -1), repeat=2)
           for region in ({X: sx * (P + Q), BETA: sb * P}, {X: sx * P, BETA: sb * (P + Q)})]

# stand-in constants, enough to tell which rules have alpha = 0
CASE = oracle._Case(None, *sp.symbols("u1 lin a prefactor two_f half_cap"))


def score(name):
    """The rule's x, and its x q + beta (c2 - d2) of its symbolic columns as a
    polynomial."""
    rule = oracle._RULE_TABLE[name]
    lead, factor, divisor = rule.coeff(CASE)
    x = X if lead * factor / divisor != 0 else 0
    columns = sp.symbols(rule.columns)
    q, diff = rule.terms(dict(zip(rule.columns, columns)))
    return x, sp.Poly(x * q + BETA * diff, *columns)


@pytest.mark.parametrize("name", list(oracle._RULE_TABLE))
def test_form_is_the_maximum_of_the_score(name):
    x, poly = score(name)
    terms = poly.terms()
    # each monomial a power of one column, no column in two of them, no constant
    powers = [[(column, e) for column, e in zip(poly.gens, monom) if e] for monom, _ in terms]
    assert all(len(power) == 1 for power in powers), powers
    assert len({column for (column, _), in powers}) == len(powers)
    for region in REGIONS:
        coeffs = [sp.expand(coeff.subs(region)) for _, coeff in terms]
        signs = [1 if c.is_nonnegative else -1 if (-c).is_nonnegative else None for c in coeffs]
        assert None not in signs, (region, coeffs)
        # the triangle inequality's bound, and a point of the polydisk that attains it
        bound = sum(sp.Abs(c) for c in coeffs)
        at = {column: 1 if sign > 0 else sp.exp(sp.I * sp.pi / e)
              for ((column, e),), sign in zip(powers, signs)}
        attained = sp.expand(poly.as_expr().subs(region).subs(at))
        maximum = MAXIMA[name](sp.Abs(x), sp.Abs(BETA)).subs(region)
        assert sp.simplify(bound - attained) == 0, (region, bound, attained)
        assert sp.simplify(attained - maximum) == 0, (region, attained, maximum)


@pytest.mark.parametrize("name", list(oracle._RULE_TABLE))
def test_code_forms_are_the_maxima(name):
    form = oracle._RULE_TABLE[name].form
    grid = [0.0, 1e-300, 0.25, 1.0 / 3.0, 1.0, 2.5, 7.0, 1e10]
    for x, beta in itertools.product(grid + [-v for v in grid[1:]], repeat=2):
        exact = MAXIMA[name](abs(sp.Rational(x)), abs(sp.Rational(beta)))
        assert form(abs(x), abs(beta)) == float(exact), (x, beta)
