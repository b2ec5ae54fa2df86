"""Polynomials over GF(q): evaluation and Lagrange interpolation.

Univariate polynomials are coefficient sequences in ascending degree.
The code's bivariate polynomial F is a flat coefficient sequence in
coeff_cells order. BiPoly evaluates F one point at a time; no library
code calls it: it is the per-point reference the tests compare against,
kept while bench/tracer.py wraps BiPoly.eval.

Points are field elements; coefficients and sample values are data,
either elements or GF(256) columns (see gf). Data is only ever added to
data or scaled by a constant built from the points, so every function
here runs once per file on columns as it does once per stripe on
elements. interpolate, evaluate and resample (values on one point set
to values on another) apply such a constant map, cached per point set as
one tuple of rows (bytes over GF(256), tuples over GF(p)), with each
product computed once. Over GF(p) through Field.scale; over GF(256) by one
bytes.translate through Field.tables, in one of two forms: per element,
each input column split into bytes once and translated by each weight;
or packed, once per stripe, each cached row (output i in byte i)
translated by the input's byte in that stripe. _apply picks the form for
each map from its output count and the stripes its inputs span, and
nothing else picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
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
def lagrange_basis(field: Field, xs: tuple[int, ...], top: int = 0):
    """Coefficient rows of the Lagrange basis polynomials for the x-set,
    then top more (see _rows).

    Row t < m = len(xs) is the ascending-degree coefficients of the
    polynomial that is 1 at xs[t] and 0 at the other points, and row m+s
    those of -(X^(m+s) mod prod (X - x_t)). Cached: the protocol
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
        rows.append([field.mul(scale, c) for c in q])
    rows = _rows(field, rows)
    high = [[field.neg(field.pow(x, i)) for x in xs] for i in range(m, m + top)]
    return rows + _rows(field, [_apply(field, rows, h, m) for h in high])


def _rows(field: Field, rows):
    """Constant rows as cached: over GF(256) bytes, over GF(p) tuples."""
    return tuple(map(bytes if field.tables else tuple, rows))


@lru_cache(maxsize=4096)
def lagrange_at(field: Field, xs: tuple[int, ...], targets: tuple[int, ...]):
    """Row s: the Lagrange polynomial that is 1 at xs[s] and 0 at the other
    points, at every target (see _rows). Barycentric, L_s(z) = l(z) w_s /
    (z - xs[s]) with l(z) = prod (z - x_t) and w_s = 1 / prod over t != s
    of (xs[s] - x_t): O(m^2 + n m) operations. A target in xs gets a unit
    column, so its value is copied. Cached like lagrange_basis; callers
    sort their targets so that one target set has one entry."""
    sub, mul, inv = field.sub, field.mul, field.inv
    w = [inv(reduce(mul, (sub(x, t) for t in xs if t != x), 1)) for x in xs]

    def column(z):
        diffs = [sub(z, x) for x in xs]
        if 0 in diffs:
            return [int(not dz) for dz in diffs]
        lz = reduce(mul, diffs, 1)
        return [mul(mul(lz, ws), inv(dz)) for ws, dz in zip(w, diffs)]
    return _rows(field, zip(*map(column, targets)))


# Packed while a map has more than this many outputs per input stripe:
# the per-element form costs a multiply per input and output, the packed
# form one per input and stripe and a transpose. Chosen with Field.scale
# as the multiply, when 1 slowed repair and 3 slowed reconstruct; with
# the translate kernel 1 measured faster at (14,10,10,4) (CHANGES.md).
_OUTPUTS_PER_STRIPE = 2


def _apply(field: Field, rows, values: Sequence[int], width: int) -> tuple[int, ...]:
    """The constant map with input s's weight on output o at rows[s][o],
    on width outputs.

    The one place that picks the form, over GF(256) from the map's output
    count and the stripes its inputs span. Each multiply there is one
    translate through Field.tables. Packed: once per stripe, translate
    each row by that stripe's byte of its input, skipping a zero byte, and
    XOR the results (output o in byte o), then transpose them back into
    output columns. Per element, as over GF(p) by Field.scale: split each
    nonzero input into bytes once and translate them by each weight; a
    weight of 0 is skipped and one of 1 copies. Each form is linear, and
    max(values) is the only branch on data (a skipped zero adds nothing
    either way), so a procedure built from these maps is exact on every
    data block once each form is exact on unit blocks:
    tests/test_exactness.py rests on this linearity.
    """
    out = [0] * width
    tables = field.tables
    if tables is None:
        add, scale = field.add, field.scale
        for v, row in zip(values, rows):
            if v:
                for o, c in enumerate(row):
                    if c:
                        out[o] = add(out[o], v if c == 1 else scale(v, c))
        return tuple(out)
    size = (max(values, default=0).bit_length() + 7) >> 3
    from_bytes = int.from_bytes
    if size * _OUTPUTS_PER_STRIPE < width:
        blob = b"".join([v.to_bytes(size, "little") for v in values])
        accs = []
        for s in range(size):
            acc = 0
            for row, b in zip(rows, blob[s::size]):
                if b:
                    acc ^= from_bytes(row.translate(tables[b]), "little")
            accs.append(acc)
        buf = b"".join([acc.to_bytes(width, "little") for acc in accs])
        return tuple([from_bytes(buf[o::width], "little") for o in range(width)])
    for v, row in zip(values, rows):
        if v:
            split = v.to_bytes(size, "little")
            for o, c in enumerate(row):
                if c > 1:
                    out[o] ^= from_bytes(split.translate(tables[c]), "little")
                elif c:
                    out[o] ^= v
    return tuple(out)


def _by_x(points: Sequence[tuple[int, int]]):
    """The points' x-set in ascending order, and their values in that order."""
    points = sorted(points, key=lambda p: p[0])
    xs = tuple(p[0] for p in points)
    if len(set(xs)) != len(xs):
        raise InterpolationError("duplicate x-coordinates")
    return xs, [p[1] for p in points]


def interpolate(
    field: Field, points: Sequence[tuple[int, int]], top: Sequence = ()
) -> tuple[int, ...]:
    """Unique polynomial through the given points (pairwise distinct x) of
    degree < len(points) + len(top), whose coefficients from degree
    len(points) up are top."""
    xs, ys = _by_x(points)
    return _apply(field, lagrange_basis(field, xs, len(top)), [*ys, *top], len(xs)) + tuple(top)


def resample(field: Field, points: Sequence[tuple[int, int]], targets: tuple[int, ...]):
    """The values at targets of the polynomial of degree < len(points)
    through the points (pairwise distinct x), with no coefficients."""
    xs, ys = _by_x(points)
    return _apply(field, lagrange_at(field, xs, targets), ys, len(targets))


def evaluate(field: Field, coeffs: Sequence[int], xs: tuple[int, ...]) -> tuple[int, ...]:
    """The polynomial with these ascending coefficients at every point of xs."""
    return _apply(field, powers(field, xs, len(coeffs)), coeffs, len(xs))


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
    """Per degree i < count, x^i at every point of xs (see _rows). Cached:
    the code raises its evaluation points to the same few powers over and
    over."""
    return _rows(field, ((field.pow(x, i) for x in xs) for i in range(count)))


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
        xpow = powers(field, (x,), self.d)
        out = [0] * (self.d + self.r)
        for (i, j), c in zip(coeff_cells(self.k, self.d, self.r), self.coeffs):
            out[j] = add(out[j], scale(c, xpow[i][0]))
        return tuple(out)

    def g_at(self, field: Field, y: int) -> tuple[int, ...]:
        """Ascending X-coefficients of F(X, y), degree < d."""
        add, scale = field.add, field.scale
        ypow = powers(field, (y,), self.d + self.r)
        out = [0] * self.d
        for (i, j), c in zip(coeff_cells(self.k, self.d, self.r), self.coeffs):
            out[i] = add(out[i], scale(c, ypow[j][0]))
        return tuple(out)

    def eval(self, field: Field, x: int, y: int) -> int:
        return eval_poly(field, self.f_at(field, x), y)
