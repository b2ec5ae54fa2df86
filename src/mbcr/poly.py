"""Polynomials over GF(q): evaluation and Lagrange interpolation.

Univariate polynomials are coefficient sequences in ascending degree.
The bivariate polynomial used by the code keeps its coefficients in
three grids (see BiPoly); the canonical flat order is a-grid row-major,
then b-grid row-major, then c-grid row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InterpolationError
from .gf import Field


def eval_poly(field: Field, coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of an ascending-degree coefficient sequence."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


@lru_cache(maxsize=4096)
def lagrange_basis(field: Field, xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of the Lagrange basis polynomials for the x-set.

    Row t is the ascending-degree coefficients of the polynomial that is
    1 at xs[t] and 0 at the other points. Cached: the protocol
    interpolates at the same point sets over and over.
    """
    m = len(xs)
    # master(X) = prod (X - x_t), ascending coefficients, length m+1
    master = [0] * (m + 1)
    master[0] = 1
    deg = 0
    for x in xs:
        nx = field.neg(x)
        deg += 1
        for i in range(deg, 0, -1):
            master[i] = field.add(master[i - 1], field.mul(master[i], nx))
        master[0] = field.mul(master[0], nx)

    rows = []
    for x in xs:
        # quotient q(X) = master(X) / (X - x), synthetic division
        q = [0] * m
        q[m - 1] = master[m]
        for i in range(m - 2, -1, -1):
            q[i] = field.add(master[i + 1], field.mul(x, q[i + 1]))
        scale = field.inv(eval_poly(field, q, x))
        rows.append(tuple(field.mul(scale, c) for c in q))
    return tuple(rows)


def interpolate(
    field: Field, points: Sequence[tuple[int, int]], degree_bound: int
) -> tuple[int, ...]:
    """Unique polynomial of degree < degree_bound through the given points.

    Requires exactly degree_bound points with pairwise distinct x; the
    strict arity catches protocol bugs upstream.
    """
    if len(points) != degree_bound:
        raise InterpolationError(
            f"expected exactly {degree_bound} points, got {len(points)}"
        )
    xs = tuple(p[0] for p in points)
    if len(set(xs)) != len(xs):
        raise InterpolationError("duplicate x-coordinates")

    m = degree_bound
    basis = lagrange_basis(field, xs)
    add, mul = field.add, field.mul
    result = [0] * m
    for (_, y), row in zip(points, basis):
        if y:
            for i in range(m):
                result[i] = add(result[i], mul(y, row[i]))
    return tuple(result)


def coeff_cells(k: int, d: int, r: int) -> Iterator[tuple[int, int]]:
    """(X-exponent, Y-exponent) pairs in the canonical flat order."""
    for i in range(k):
        for j in range(k):
            yield (i, j)
    for i in range(k):
        for j in range(k, d + r):
            yield (i, j)
    for i in range(k, d):
        for j in range(k):
            yield (i, j)


@dataclass(frozen=True)
class BiPoly:
    """Bivariate polynomial with the code's coefficient support.

    Grid a is k x k (X^i Y^j, i,j < k); grid b is k x (d+r-k)
    (i < k, k <= j < d+r); grid c is (d-k) x k (k <= i < d, j < k).
    X-degree < d, Y-degree < d+r; the quadrant i >= k, j >= k is absent.
    Total coefficient count is k(2d+r-k).
    """

    k: int
    d: int
    r: int
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    c: tuple[tuple[int, ...], ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], k: int, d: int, r: int) -> "BiPoly":
        total = k * (2 * d + r - k)
        if len(coeffs) != total:
            raise ValueError(f"expected {total} coefficients, got {len(coeffs)}")
        it = iter(coeffs)
        a = tuple(tuple(next(it) for _ in range(k)) for _ in range(k))
        b = tuple(tuple(next(it) for _ in range(d + r - k)) for _ in range(k))
        c = tuple(tuple(next(it) for _ in range(k)) for _ in range(d - k))
        return cls(k, d, r, a, b, c)

    def coeffs(self) -> tuple[int, ...]:
        flat = []
        for row in self.a:
            flat.extend(row)
        for row in self.b:
            flat.extend(row)
        for row in self.c:
            flat.extend(row)
        return tuple(flat)

    def x_column(self, j: int) -> tuple[int, ...]:
        """Ascending-degree coefficients in X of the Y^j column."""
        if j < self.k:
            return tuple(self.a[i][j] for i in range(self.k)) + tuple(
                self.c[i][j] for i in range(self.d - self.k)
            )
        return tuple(self.b[i][j - self.k] for i in range(self.k))

    def eval(self, field: Field, x: int, y: int) -> int:
        cols = [eval_poly(field, self.x_column(j), x) for j in range(self.d + self.r)]
        return eval_poly(field, cols, y)
