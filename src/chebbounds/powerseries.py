"""Truncation-closed arithmetic on Taylor series about the origin.

A series is its coefficient tuple ``c[0..N]`` for a fixed truncation
order ``N``: ``c[k]`` multiplies ``z**k`` and nothing beyond degree ``N``
is ever computed or consulted.  Coefficients are complex doubles; all
downstream checking is tolerance based, so exact rational arithmetic
would buy nothing here.

Mixed-order arithmetic is rejected instead of silently truncating to
the shorter operand: in a verification tool an order mismatch is a bug
in the caller, not a request for coercion.

>>> s = TruncatedSeries.make([1, 2, 3], order=2)
>>> s.mul(TruncatedSeries.make([1, 1], order=2)).coeffs
((1+0j), (3+0j), (5+0j))
"""

from __future__ import annotations

import operator
from typing import Iterable

Coefficient = complex | float | int


class TruncatedSeries:
    """Taylor series truncated at a fixed order; immutable."""

    __slots__ = ("_coeffs",)
    coeffs = property(operator.attrgetter("_coeffs"))

    def __init__(self, coeffs: tuple[complex, ...]) -> None:
        if len(coeffs) == 0:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(map(complex, coeffs))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @classmethod
    def make(cls, coeffs: Iterable[Coefficient], order: int | None = None) -> "TruncatedSeries":
        """Build a series, zero-padded (never truncated) up to ``order``."""
        cs = [complex(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"order must be nonnegative, got {order}")
            if len(cs) > order + 1:
                raise ValueError(f"{len(cs)} coefficients exceed order {order}")
            cs.extend([0j] * (order + 1 - len(cs)))
        return cls(tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "pad the shorter operand explicitly"
            )

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "TruncatedSeries | Coefficient") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_same_order(other)
            return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        w = complex(other)
        return TruncatedSeries((self.coeffs[0] + w,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TruncatedSeries | Coefficient") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __mul__(self, other: "TruncatedSeries | Coefficient") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        w = complex(other)
        return TruncatedSeries(tuple(w * c for c in self.coeffs))

    __rmul__ = __mul__

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated at the shared order."""
        self._check_same_order(other)
        return TruncatedSeries(tuple(_product(self.coeffs, other.coeffs)))

    # ------------------------------------------------------------------
    # calculus

    def differentiate(self) -> "TruncatedSeries":
        """Formal derivative; drops the order by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    def times_z(self) -> "TruncatedSeries":
        """Multiply by z; raises the order by one, losing nothing."""
        return TruncatedSeries((0j,) + self.coeffs)

    def pow_real(self, p: float) -> "TruncatedSeries":
        """Real power a**p of a series with unit constant term.

        Uses the triangular recurrence obtained from b' a = p b a'
        (one pass, no exp/log composition, hence no branch-cut issues):

            b[0] = 1,   k b[k] = sum_{j=1..k} (p j - (k - j)) a[j] b[k-j].
        """
        if abs(self.coeffs[0] - 1.0) > 1e-12:
            raise ValueError(
                f"pow_real requires constant term 1, got {self.coeffs[0]!r}"
            )
        a = self.coeffs
        out: list[complex] = [1.0 + 0j] + [0j] * self.order
        for k in range(1, self.order + 1):
            acc = 0j
            for j in range(1, k + 1):
                acc += (p * j - (k - j)) * a[j] * out[k - j]
            out[k] = acc / k
        return TruncatedSeries(tuple(out))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)) by Horner evaluation; inner must vanish at 0."""
        self._check_same_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError(f"composition needs inner constant term 0, got {inner.coeffs[0]!r}")
        return TruncatedSeries(tuple(_compose(self.coeffs, inner.coeffs)))


class NormalizedSeries(TruncatedSeries):
    """Series of the shape z + a2 z^2 + ... : f(0) = 0, f'(0) = 1 exactly."""

    __slots__ = ()

    def __init__(self, coeffs: tuple[complex, ...]) -> None:
        super().__init__(coeffs)
        if self.order < 1:
            raise ValueError("a normalized series needs order >= 1")
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError(
                f"normalized series must start (0, 1, ...), got "
                f"({self.coeffs[0]!r}, {self.coeffs[1]!r}, ...)"
            )

    @classmethod
    def from_tail(cls, tail: Iterable[Coefficient], order: int | None = None) -> "NormalizedSeries":
        """Build z + tail[0] z^2 + tail[1] z^3 + ..., zero-padded to ``order``."""
        cs = [0j, 1.0 + 0j] + [complex(c) for c in tail]
        if order is not None:
            if len(cs) > order + 1:
                raise ValueError(f"{len(cs) - 2} tail coefficients exceed order {order}")
            cs.extend([0j] * (order + 1 - len(cs)))
        return cls(tuple(cs))


def invert_compositional(f: NormalizedSeries) -> NormalizedSeries:
    """Compositional inverse g with g(f(z)) = z through the shared order.

    Solved degree by degree: the z^d coefficient of sum_k b[k] f^k is
    b[d] plus terms in b[1..d-1] only, because [z^d] f(z)^d = 1.
    """
    if f.order < 2:
        raise ValueError("inversion needs order >= 2 to carry any information")
    return NormalizedSeries(tuple(_inverse(f.coeffs)))


# The recurrences behind mul, compose and invert_compositional, on coefficient
# sequences of one length and of any type whose +, - and * mix with complex.

def _product(a, b) -> list:
    """Cauchy product, truncated at the shared length."""
    return [sum(map(operator.mul, a[:k + 1], b[k::-1])) for k in range(len(a))]


def _compose(outer, inner) -> list:
    """outer(inner(z)) by Horner evaluation."""
    acc = [outer[-1]] + [0j] * (len(outer) - 1)
    for c in outer[-2::-1]:
        acc = _product(acc, inner)
        acc[0] = acc[0] + c
    return acc


def _compose_errors(f, g) -> list:
    """|[z^k] g(f(z)) - [z^k] z| for each k, for complex coefficients or object
    arrays of them."""
    return [abs(c - (1.0 if k == 1 else 0.0)) for k, c in enumerate(_compose(g, f))]


def _inverse(f) -> list:
    """The compositional inverse of z + f[2] z^2 + ..., degree by degree."""
    powers = [f]                                 # powers[k] = f^(k+1), k <= len(f) - 3
    for _ in range(len(f) - 3):
        powers.append(_product(powers[-1], f))
    b = [0j, 1.0 + 0j]
    for d in range(2, len(f)):
        b.append(-sum(b[k] * powers[k - 1][d] for k in range(1, d)))
    return b
