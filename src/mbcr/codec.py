"""Parameter validation, encoding, and data reconstruction.

A data block of block_size symbols is identified with the coefficients
of the bivariate polynomial F (canonical order, see poly.BiPoly). Node i
stores the share_size evaluations

    F(x_i, y_i), F(x_i, y_{i(+)1}), ..., F(x_i, y_{i(+)(d+r-1)}),
    F(x_{i(+)1}, y_i), ..., F(x_{i(+)(d-1)}, y_i),

where (+) is node-index addition modulo n mapped back into [1, n].
Reconstruction from any k shares proceeds by staged univariate
interpolation on the coefficient columns of the per-node restriction
polynomials f_i(Y) = F(x_i, Y) and g_i(X) = F(X, y_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CodecError, CorruptShareError, ParameterError
from .gf import Field
from .poly import BiPoly, eval_poly, interpolate


@dataclass(frozen=True)
class CodeParams:
    """Validated code parameters with derived sizes.

    Scalar normalization: each helper sends 2 symbols in phase 1
    (helper_symbols) and each newcomer peer sends 1 in phase 2
    (exchange_symbols); per-node storage equals per-newcomer repair
    bandwidth (the minimum-bandwidth operating point).
    """

    n: int
    k: int
    d: int
    r: int
    field: Field

    helper_symbols = 2
    exchange_symbols = 1

    @property
    def share_size(self) -> int:
        return 2 * self.d + self.r - 1

    @property
    def block_size(self) -> int:
        return self.k * (2 * self.d + self.r - self.k)

    @property
    def repair_bandwidth(self) -> int:
        return self.d * self.helper_symbols + (self.r - 1) * self.exchange_symbols


def validate_params(n: int, k: int, d: int, r: int, field: Field) -> CodeParams:
    for name, v in (("n", n), ("k", k), ("d", d), ("r", r)):
        if not isinstance(v, int) or v < 1:
            raise ParameterError(f"{name} must be a positive integer, got {v!r}")
    if d + r > n:
        raise ParameterError(f"d + r = {d + r} exceeds n = {n}")
    if k > d:
        raise ParameterError(
            f"k = {k} > d = {d}: any such code is equivalent to one with k = d; "
            f"re-invoke with k = {d}"
        )
    if field.order < n:
        raise ParameterError(f"field order {field.order} is smaller than n = {n}")
    return CodeParams(n, k, d, r, field)


@dataclass(frozen=True)
class EvalPoints:
    """The n distinct x evaluation points and n distinct y points.

    Index 0 corresponds to node 1. x and y may share values.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]

    def x_of(self, node_id: int) -> int:
        return self.x[node_id - 1]

    def y_of(self, node_id: int) -> int:
        return self.y[node_id - 1]


def derive_points(params: CodeParams) -> EvalPoints:
    """Deterministic evaluation points from the canonical enumeration.

    Node i gets element i; when n equals the field order, node n wraps
    to element 0 (still injective). Never serialized, always recomputed.
    """
    order = params.field.order
    vals = tuple(i % order for i in range(1, params.n + 1))
    return EvalPoints(x=vals, y=vals)


def shift_node(i: int, t: int, n: int) -> int:
    """Node-index addition modulo n, kept in [1, n]."""
    return (i - 1 + t) % n + 1


def share_point_nodes(node_id: int, params: CodeParams) -> list[tuple[int, int]]:
    """Evaluation points of a share as (x-node, y-node) id pairs, canonical order."""
    i, n = node_id, params.n
    pts = [(i, shift_node(i, t, n)) for t in range(params.d + params.r)]
    pts += [(shift_node(i, s, n), i) for s in range(1, params.d)]
    return pts


@dataclass(frozen=True)
class Share:
    """One node's stored evaluations in the canonical layout."""

    node_id: int
    evals: tuple[int, ...]


def encode(
    data: Sequence[int], params: CodeParams, points: EvalPoints
) -> list[Share]:
    if len(data) != params.block_size:
        raise CodecError(
            f"data block must have {params.block_size} symbols, got {len(data)}"
        )
    field = params.field
    field.check_elements(data)
    F = BiPoly.from_coeffs(tuple(data), params.k, params.d, params.r)
    shares = []
    for i in range(1, params.n + 1):
        evals = tuple(
            F.eval(field, points.x_of(xi), points.y_of(yi))
            for xi, yi in share_point_nodes(i, params)
        )
        shares.append(Share(node_id=i, evals=evals))
    return shares


def share_polys(
    share: Share, params: CodeParams, points: EvalPoints
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the restriction polynomials (f_i, g_i) from a share.

    f_i(Y) = F(x_i, Y) has degree < d+r and is interpolated from the
    first d+r evaluations; g_i(X) = F(X, y_i) has degree < d and is
    interpolated from evals[0] plus the last d-1 evaluations. This is
    where every share enters reconstruct and repair, so its symbols are
    checked here.
    """
    i, n = share.node_id, params.n
    d, r = params.d, params.r
    if len(share.evals) != params.share_size:
        raise CorruptShareError(
            f"share {i} has {len(share.evals)} symbols, expected {params.share_size}"
        )
    field = params.field
    field.check_elements(share.evals)
    f_pts = [
        (points.y_of(shift_node(i, t, n)), share.evals[t]) for t in range(d + r)
    ]
    f = interpolate(field, f_pts, d + r)
    g_pts = [(points.x_of(i), share.evals[0])] + [
        (points.x_of(shift_node(i, s, n)), share.evals[d + r + s - 1])
        for s in range(1, d)
    ]
    g = interpolate(field, g_pts, d)
    return f, g


def reconstruct(
    shares: Sequence[Share], params: CodeParams, points: EvalPoints
) -> tuple[int, ...]:
    """Recover the data block from exactly k shares with distinct node ids."""
    k, d, r = params.k, params.d, params.r
    field = params.field
    if len(shares) != k:
        raise CodecError(f"reconstruction needs exactly {k} shares, got {len(shares)}")
    ids = [s.node_id for s in shares]
    if len(set(ids)) != k:
        raise CodecError(f"duplicate node ids in {ids}")

    fg = [share_polys(s, params, points) for s in shares]
    xs = [points.x_of(i) for i in ids]
    ys = [points.y_of(i) for i in ids]

    # Stage 1: Y^j columns for j >= k come only from the b grid; each is
    # a degree-<k polynomial in X sampled at the k share x-points.
    b = [[0] * (d + r - k) for _ in range(k)]
    for j in range(k, d + r):
        col = interpolate(field, [(xs[l], fg[l][0][j]) for l in range(k)], k)
        for i in range(k):
            b[i][j - k] = col[i]

    # Stage 2: symmetrically, X^i rows for i >= k come only from the c
    # grid, sampled at the share y-points via g.
    c = [[0] * k for _ in range(d - k)]
    for i in range(k, d):
        row = interpolate(field, [(ys[l], fg[l][1][i]) for l in range(k)], k)
        for j in range(k):
            c[i - k][j] = row[j]

    # Stage 3: subtract the recovered c contribution from the low Y^j
    # coefficients of each f, leaving samples of the degree-<k a columns.
    a = [[0] * k for _ in range(k)]
    for j in range(k):
        pts = []
        for l in range(k):
            resid = fg[l][0][j]
            for i in range(k, d):
                resid = field.sub(resid, field.mul(c[i - k][j], field.pow(xs[l], i)))
            pts.append((xs[l], resid))
        col = interpolate(field, pts, k)
        for i in range(k):
            a[i][j] = col[i]

    F = BiPoly(
        k,
        d,
        r,
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in b),
        tuple(tuple(row) for row in c),
    )

    # Cross-check against the redundant low-degree g coefficients.
    for l in range(k):
        for i in range(k):
            expect = eval_poly(field, [F.a[i][j] for j in range(k)], ys[l])
            for j in range(k, d + r):
                expect = field.add(
                    expect, field.mul(F.b[i][j - k], field.pow(ys[l], j))
                )
            if expect != fg[l][1][i]:
                raise CorruptShareError(
                    f"share {ids[l]} is inconsistent with the recovered polynomial"
                )
    return F.coeffs()
