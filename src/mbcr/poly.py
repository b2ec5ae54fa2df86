"""Polynomials over GF(q): evaluation and Lagrange interpolation.

Univariate polynomials are coefficient sequences in ascending degree.
The code's bivariate polynomial F (BiPoly) is a flat coefficient
sequence in coeff_cells order, used through its restrictions F(x, Y)
and F(X, y).

Points are field elements; coefficients and sample values are data,
either elements or GF(256) columns (see gf). Data is only ever added to
data or scaled by a constant built from the points, so every function
here runs once per file on columns as it does once per stripe on
elements. interpolate and evaluate apply such a constant map in one of
two forms, both through Field.scale: per element, one call per input and
output; or packed, when every input is a GF(256) element, one call per
input on the constant's row packed over all outputs (output i in byte i).
sharefile.to_batches picks the orientation that makes inputs elements.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from operator import xor
from typing import Sequence

from .errors import InterpolationError
from .gf import Field


def eval_poly(field: Field, coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of an ascending-degree coefficient sequence."""
    add, scale = field.add, field.scale
    acc = 0
    for c in reversed(coeffs):
        acc = add(scale(acc, x), c)
    return acc


@lru_cache(maxsize=4096)
def lagrange_basis(field: Field, xs: tuple[int, ...]):
    """Coefficient rows of the Lagrange basis polynomials for the x-set,
    and their packed form (see _packed).

    Row t is the ascending-degree coefficients of the polynomial that is
    1 at xs[t] and 0 at the other points. Cached: the protocol
    interpolates at the same point sets over and over (interpolate asks
    in ascending x, whatever the order of its points).
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
    return tuple(rows), _packed(field, rows)


def _packed(field: Field, rows):
    """GF(256) rows as ints, entry i in byte i; None over GF(p)."""
    if field.kind == "binary":
        return tuple(int.from_bytes(bytes(r), "little") for r in rows)


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
    points = sorted(points, key=lambda p: p[0])
    xs = tuple(p[0] for p in points)
    if len(set(xs)) != len(xs):
        raise InterpolationError("duplicate x-coordinates")

    m = degree_bound
    basis, packed = lagrange_basis(field, xs)
    ys = [p[1] for p in points]
    if packed and max(ys) < 256:
        acc = reduce(xor, map(field.scale, packed, ys))
        return tuple(acc.to_bytes(m, "little"))
    add, scale = field.add, field.scale
    result = [0] * m
    for y, row in zip(ys, basis):
        if y:
            for i in range(m):
                result[i] = add(result[i], scale(y, row[i]))
    return tuple(result)


def evaluate(field: Field, coeffs: Sequence[int], xs: tuple[int, ...]) -> Sequence[int]:
    """The polynomial with these ascending coefficients at every point of
    xs: all at once in the packed form, in the per-element form each on
    read, so that a caller pays for the points it reads."""
    packed = powers(field, xs, len(coeffs))[1]
    if packed and max(coeffs) < 256:
        acc = reduce(xor, map(field.scale, packed, coeffs))
        return tuple(acc.to_bytes(len(xs), "little"))
    return _Values(partial(eval_poly, field, coeffs), xs)


class _Values(abc.Sequence):
    def __init__(self, at, xs: tuple[int, ...]):
        self._at, self._xs = at, xs

    def __len__(self):
        return len(self._xs)

    def __getitem__(self, u: int) -> int:
        return self._at(self._xs[u])


@cache
def coeff_cells(k: int, d: int, r: int) -> tuple[tuple[int, int], ...]:
    """(X-exponent, Y-exponent) pairs in the canonical flat order.

    i < d, j < d+r, no cell with both i, j >= k: k(2d+r-k) cells.
    """
    return (
        *((i, j) for i in range(k) for j in range(k)),
        *((i, j) for i in range(k) for j in range(k, d + r)),
        *((i, j) for i in range(k, d) for j in range(k)),
    )


@lru_cache(maxsize=4096)
def powers(field: Field, xs: tuple[int, ...], count: int):
    """x^0, ..., x^(count-1) for each point of xs, and per degree those
    powers packed over the points. Cached: the code raises its evaluation
    points to the same few powers over and over."""
    rows = tuple(tuple(field.pow(x, i) for i in range(count)) for x in xs)
    return rows, _packed(field, zip(*rows))


@dataclass(frozen=True)
class BiPoly:
    """F(X, Y) = sum of c X^i Y^j over coeff_cells(k, d, r).

    coeffs holds the k(2d+r-k) coefficients in coeff_cells order. Node i
    stores samples of the restrictions f_at(x_i) and g_at(y_i).
    """

    k: int
    d: int
    r: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], k: int, d: int, r: int) -> "BiPoly":
        total = k * (2 * d + r - k)
        if len(coeffs) != total:
            raise ValueError(f"expected {total} coefficients, got {len(coeffs)}")
        return cls(k, d, r, tuple(coeffs))

    def f_at(self, field: Field, x: int) -> tuple[int, ...]:
        """Ascending Y-coefficients of F(x, Y), degree < d+r."""
        add, scale = field.add, field.scale
        (xpow,), _ = powers(field, (x,), self.d)
        out = [0] * (self.d + self.r)
        for (i, j), c in zip(coeff_cells(self.k, self.d, self.r), self.coeffs):
            out[j] = add(out[j], scale(c, xpow[i]))
        return tuple(out)

    def g_at(self, field: Field, y: int) -> tuple[int, ...]:
        """Ascending X-coefficients of F(X, y), degree < d."""
        add, scale = field.add, field.scale
        (ypow,), _ = powers(field, (y,), self.d + self.r)
        out = [0] * self.d
        for (i, j), c in zip(coeff_cells(self.k, self.d, self.r), self.coeffs):
            out[i] = add(out[i], scale(c, ypow[j]))
        return tuple(out)

    def eval(self, field: Field, x: int, y: int) -> int:
        return eval_poly(field, self.f_at(field, x), y)
