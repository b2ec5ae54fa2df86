"""Parameter validation, encoding, and data reconstruction.

A data block of block_size symbols is the coefficient sequence of the
bivariate polynomial F, in poly.coeff_cells order. Node i has one evaluation
point, x_i = y_i = CodeParams.points[i-1]. grid evaluates F on the n x n
grid of points (x_u, y_v), and encode gathers each share from it: node i
stores the share_size evaluations (layout: share_point_nodes)

    F(x_i, y_i), F(x_i, y_{i(+)1}), ..., F(x_i, y_{i(+)(d+r-1)}),
    F(x_{i(+)1}, y_i), ..., F(x_{i(+)(d-1)}, y_i),

where (+) is node-index addition modulo n mapped back into [1, n]: f_i(Y)
= F(x_i, Y) at d+r y-points and g_i(X) = F(X, y_i) at d x-points (one of
them shared); line_samples tells which line a point lies on. reconstruct
decodes from the first k of its shares by staged interpolation on the
coefficients of their f_i and g_i (share_polys), then checks every share
it was given against F's coefficient grid. In a repair every node, helper
or newcomer, reads F at the points it sends or stores from the values it
knows, resampling only the points it does not know (line_values). Data
is added and scaled only in poly, through interpolate, evaluate and
resample.

A data symbol is a GF(p) element or a GF(256) column of any width (see
gf), so one call covers every stripe of a file: the stripe count belongs
to the file layer (sharefile), and no function here takes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import CodecError, CorruptShareError, InconsistentShareError, ParameterError
from .gf import Field
from .poly import coeff_cells, evaluate, interpolate, resample


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

    @cached_property
    def points(self) -> tuple[int, ...]:
        """The code's evaluation points, node i's at index i-1, derived once."""
        return derive_points(self)


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


def derive_points(params: CodeParams) -> tuple[int, ...]:
    """Deterministic evaluation points from the canonical enumeration, one
    per node: node i's is both its x- and its y-point, as q >= n allows.

    Node i gets element i; when n equals the field order, node n wraps
    to element 0 (still injective). Never serialized, always recomputed;
    CodeParams.points is the one caller.
    """
    order = params.field.order
    return tuple(i % order for i in range(1, params.n + 1))


def shift_node(i: int, t: int, n: int) -> int:
    """Node-index addition modulo n, kept in [1, n]."""
    return (i - 1 + t) % n + 1


@lru_cache(maxsize=4096)
def share_point_nodes(node_id: int, params: CodeParams) -> tuple[tuple[int, int], ...]:
    """Evaluation points of a share as (x-node, y-node) id pairs, canonical
    order. Cached: every encode, repair and check gathers shares by it."""
    i, n = node_id, params.n
    if not 1 <= i <= n:
        raise CodecError(f"node id {i} is outside [1, {n}]")
    pts = [(i, shift_node(i, t, n)) for t in range(params.d + params.r)]
    pts += [(shift_node(i, s, n), i) for s in range(1, params.d)]
    return tuple(pts)


@dataclass(frozen=True)
class Share:
    """One node's stored evaluations in the canonical layout."""

    node_id: int
    evals: tuple[int, ...]


def line_values(node_id: int, known, points, params: CodeParams) -> tuple[int, ...]:
    """F at each (x-node, y-node) point on node i's lines, from the values
    known there (a point -> value map): read where known, otherwise
    resampled from the known values on the point's line (line_samples),
    each line once and at only its missing points, in node order so that
    one set of points has one poly.lagrange_at entry. A missing point
    whose y-node is i, (i, i) too, is resampled on g_i. CodecError: a
    missing point off node i's lines, a point with a node id outside
    [1, n], or a line to resample with fewer known samples than its
    degree bound (d + r for f_i, d for g_i)."""
    i, n, xy, found = node_id, params.n, params.points, dict(known)
    missing = sorted({pt for pt in points if pt not in known})
    for pt in (*missing, *known):
        xn, yn = pt
        if not (0 < xn <= n and 0 < yn <= n and (i in pt or pt in known)):
            raise CodecError(f"point {pt} is not on node {i}'s lines in [1, {n}]")
    f_pts, g_pts = line_samples(i, known.items(), params)
    lines = (("f", f_pts, [pt for pt in missing if pt[1] != i], 1, params.d + params.r),
             ("g", g_pts, [pt for pt in missing if pt[1] == i], 0, params.d))
    for name, samples, on_line, other, degree in lines:
        if on_line:
            if len(samples) < degree:
                raise CodecError(f"{name}_{i} has {len(samples)} known samples, needs {degree}")
            at = tuple(xy[pt[other] - 1] for pt in on_line)
            found.update(zip(on_line, resample(params.field, samples, at)))
    return tuple(found[pt] for pt in points)


def _coeff_grid(data: Sequence[int], params: CodeParams) -> list[list[int]]:
    """F's coefficients by X-exponent: row a holds the d+r Y^b coefficients
    of X^a, zero at every b >= k for a >= k."""
    k, d, r = params.k, params.d, params.r
    grid = [[0] * (d + r) for _ in range(d)]
    for (a, b), c in zip(coeff_cells(k, d, r), data):
        grid[a][b] = c
    return grid


def grid(data: Sequence[int], params: CodeParams) -> list[list[int]]:
    """F on the n x n grid of points, a Y stage then an X stage: row v is
    g_v at every x-point, so grid[v][u] = F(x_u, y_v)."""
    field, points = params.field, params.points
    at_y = [evaluate(field, row, points) for row in _coeff_grid(data, params)]
    return [evaluate(field, g, points) for g in zip(*at_y)]


def encode(data: Sequence[int], params: CodeParams) -> list[Share]:
    """Evaluate F on the grid and gather each node's share from its row
    and column of the grid."""
    if len(data) != params.block_size:
        raise CodecError(
            f"data block must have {params.block_size} symbols, got {len(data)}"
        )
    params.field.check_elements(data)
    values = grid(data, params)
    return [
        Share(i, tuple(values[yn - 1][xn - 1] for xn, yn in share_point_nodes(i, params)))
        for i in range(1, params.n + 1)
    ]


def _check_consistent(node_id: int, got, want, field: Field, decoded_from) -> None:
    """Raise InconsistentShareError unless got equals want.

    A mismatch shows only that share node_id and the shares the data was
    decoded from do not all agree, not which of them is bad, so the
    message names both sides and the first bad stripe: over GF(256) the
    XOR's lowest non-zero byte, over GF(p) stripe 0 whatever bits differ.
    """
    diff = 0
    for u, v in zip(got, want):
        diff |= u ^ v
    if diff:
        stripe = ((diff & -diff).bit_length() - 1) >> 3 if field.kind == "binary" else 0
        raise InconsistentShareError(node_id, tuple(decoded_from), stripe)


def line_samples(node_id: int, values, params: CodeParams):
    """Node i's (y, value) samples of f_i and (x, value) samples of g_i
    among values, pairs of an (x-node, y-node) point and F there: a point
    samples f_i when its x-node is i and g_i when its y-node is i."""
    points, f_pts, g_pts = params.points, [], []
    for (xn, yn), v in values:
        if xn == node_id:
            f_pts.append((points[yn - 1], v))
        if yn == node_id:
            g_pts.append((points[xn - 1], v))
    return f_pts, g_pts


def stored_values(share: Share, params: CodeParams) -> dict[tuple[int, int], int]:
    """The share's values by (x-node, y-node) point. Every share enters
    reconstruct and repair here, so it is checked here."""
    i = share.node_id
    if len(share.evals) != params.share_size:
        raise CorruptShareError(
            f"share {i} has {len(share.evals)} symbols, expected {params.share_size}"
        )
    params.field.check_elements(share.evals)
    return dict(zip(share_point_nodes(i, params), share.evals))


def share_polys(share: Share, params: CodeParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the restriction polynomials (f_i, g_i) from a share.

    f_i(Y) = F(x_i, Y) has degree < d+r and g_i(X) = F(X, y_i) degree
    < d; each is interpolated from its samples in share_point_nodes.
    """
    f_pts, g_pts = line_samples(share.node_id, stored_values(share, params).items(), params)
    fld = params.field
    return interpolate(fld, f_pts), interpolate(fld, g_pts)


def reconstruct(shares: Sequence[Share], params: CodeParams) -> tuple[int, ...]:
    """Recover the data block from k or more shares with distinct node ids.

    Decodes from the first k shares, then checks every share against the
    result: InconsistentShareError names the first that disagrees, the k
    decoded from and its first bad stripe. Exactly k shares hold little
    redundancy, so some corrupt symbols among them decode to wrong data
    with no error; supplying more than k shares lets it check more.
    """
    k, d, r, field = params.k, params.d, params.r, params.field
    if len(shares) < k:
        raise CodecError(f"reconstruction needs at least k = {k} shares, got {len(shares)}")
    ids = [s.node_id for s in shares]
    if len(set(ids)) != len(ids):
        raise CodecError(f"duplicate node ids in {ids}")

    fg = [share_polys(s, params) for s in shares]
    pts = tuple(params.points[i - 1] for i in ids)
    # f_coeff[j] and g_coeff[i]: the Y^j coefficient of each decoded f_l
    # and the X^i one of each g_l, as samples at node l's point (x_l = y_l).
    f_coeff, g_coeff = ([list(zip(pts, c)) for c in zip(*lines)] for lines in zip(*fg[:k]))

    # Stage 1: only cells with j < k carry X^i for i >= k, so the X^i
    # coefficient of g_l is a degree-<k polynomial in Y sampled at y_l:
    # row i of the coefficient grid, zero from Y^k on.
    high = [interpolate(field, g_coeff[i]) + (0,) * (d + r - k) for i in range(k, d)]

    # Stage 2: the Y^j coefficient of f_l is column j of the grid, a
    # polynomial in X of degree < d at x_l, with its X^i coefficients for
    # i >= k from stage 1.
    cols = [interpolate(field, f_coeff[j], [row[j] for row in high]) for j in range(d + r)]
    data = tuple(cols[j][i] for i, j in coeff_cells(k, d, r))

    # Check each share's g_l (its X^a coefficient is row a of the decoded
    # grid at y_l) and, past the first k, its f_l (Y^b: column b at x_l).
    # The stages fit each decoded f_l exactly, so only its g_l can disagree.
    want = list(zip(*(evaluate(field, row, pts) for row in zip(*cols))))
    if len(shares) > k:
        at_x = zip(*(evaluate(field, c, pts[k:]) for c in cols))
        want[k:] = [g + f for g, f in zip(want[k:], at_x)]
    for l, (i, (f, g)) in enumerate(zip(ids, fg)):
        _check_consistent(i, g if l < k else g + f, want[l], field, ids[:k])
    return data
