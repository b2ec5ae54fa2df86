"""Parameter validation, encoding, and data reconstruction.

A data block of block_size symbols is the coefficient sequence of the
bivariate polynomial F (see poly.BiPoly). Encoding restricts F to
f_i(Y) = F(x_i, Y) and g_i(X) = F(X, y_i), then samples them: node i
stores the share_size evaluations (layout: share_point_nodes)

    F(x_i, y_i), F(x_i, y_{i(+)1}), ..., F(x_i, y_{i(+)(d+r-1)}),
    F(x_{i(+)1}, y_i), ..., F(x_{i(+)(d-1)}, y_i),

where (+) is node-index addition modulo n mapped back into [1, n].
Reconstruction from any k shares is staged univariate interpolation on
the coefficients of the f_i and g_i.

encode, reconstruct, check_shares and share_polys take a stripe count.
With the default of 1 every data symbol is a field element; with
stripes = S every one is a GF(256) column of S stripes (see gf), and one
call encodes or decodes all S stripes of a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import CodecError, CorruptShareError, ParameterError
from .gf import Field
from .poly import BiPoly, coeff_cells, eval_poly, interpolate


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
    def points(self) -> EvalPoints:
        """The code's evaluation points, derived once per instance."""
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


@dataclass(frozen=True)
class EvalPoints:
    """The n distinct x evaluation points and n distinct y points.

    Index 0 corresponds to node 1. x and y may share values. Every layer
    reaches them through CodeParams.points.
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
    to element 0 (still injective). Never serialized, always recomputed;
    CodeParams.points is the one caller.
    """
    order = params.field.order
    vals = tuple(i % order for i in range(1, params.n + 1))
    return EvalPoints(x=vals, y=vals)


def shift_node(i: int, t: int, n: int) -> int:
    """Node-index addition modulo n, kept in [1, n]."""
    return (i - 1 + t) % n + 1


def share_point_nodes(node_id: int, params: CodeParams) -> list[tuple[int, int]]:
    """Evaluation points of a share as (x-node, y-node) id pairs, canonical order.

    Points with x-node i sample f_i, points with y-node i sample g_i.
    """
    i, n = node_id, params.n
    if not 1 <= i <= n:
        raise CodecError(f"node id {i} is outside [1, {n}]")
    pts = [(i, shift_node(i, t, n)) for t in range(params.d + params.r)]
    pts += [(shift_node(i, s, n), i) for s in range(1, params.d)]
    return pts


@dataclass(frozen=True)
class Share:
    """One node's stored evaluations in the canonical layout."""

    node_id: int
    evals: tuple[int, ...]


def value_at(node_id: int, f, g, point: tuple[int, int], params: CodeParams) -> int:
    """F at point = (x-node, y-node) from node node_id's (f, g): f at the
    y-node when the x-node is node_id, otherwise g at the x-node."""
    (xn, yn), field, points = point, params.field, params.points
    if xn == node_id:
        return eval_poly(field, f, points.y_of(yn))
    return eval_poly(field, g, points.x_of(xn))


def share_from_polys(
    node_id: int, f: Sequence[int], g: Sequence[int], params: CodeParams
) -> Share:
    """Sample f_i at the share's y-points and g_i at its x-points."""
    pts = share_point_nodes(node_id, params)
    return Share(node_id, tuple(value_at(node_id, f, g, pt, params) for pt in pts))


def _node_share(F: BiPoly, node_id: int, params: CodeParams) -> Share:
    field, points = params.field, params.points
    return share_from_polys(
        node_id,
        F.f_at(field, points.x_of(node_id)),
        F.g_at(field, points.y_of(node_id)),
        params,
    )


def encode(data: Sequence[int], params: CodeParams, stripes: int = 1) -> list[Share]:
    """Restrict F to (f_i, g_i) for each node, then sample."""
    if len(data) != params.block_size:
        raise CodecError(
            f"data block must have {params.block_size} symbols, got {len(data)}"
        )
    params.field.check_elements(data, stripes)
    F = BiPoly.from_coeffs(data, params.k, params.d, params.r)
    return [_node_share(F, i, params) for i in range(1, params.n + 1)]


def _check_consistent(
    node_id: int,
    got: Sequence[int],
    want: Sequence[int],
    stripes: int,
    decoded_from: Sequence[int],
) -> None:
    """Raise CorruptShareError unless got equals want.

    A mismatch shows only that share node_id and the shares the data was
    decoded from do not all agree, not which of them is bad, so the
    message names both sides and the first bad stripe.
    """
    diff = 0
    for u, v in zip(got, want):
        diff |= u ^ v
    if diff:
        # Stripe s of a column is its byte s: the XOR's lowest non-zero byte.
        stripe = ((diff & -diff).bit_length() - 1) >> 3 if stripes > 1 else 0
        raise CorruptShareError(
            f"share {node_id} is inconsistent with the data decoded from shares "
            f"{', '.join(map(str, decoded_from))} (first bad stripe: {stripe})"
        )


def _check_length(share: Share, params: CodeParams) -> None:
    if len(share.evals) != params.share_size:
        raise CorruptShareError(
            f"share {share.node_id} has {len(share.evals)} symbols, "
            f"expected {params.share_size}"
        )


def share_polys(
    share: Share, params: CodeParams, stripes: int = 1
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the restriction polynomials (f_i, g_i) from a share.

    f_i(Y) = F(x_i, Y) has degree < d+r and g_i(X) = F(X, y_i) degree
    < d; each is interpolated from its samples in share_point_nodes.
    This is where every share enters reconstruct and repair, so its node
    id and symbols are checked here.
    """
    i = share.node_id
    samples = list(zip(share_point_nodes(i, params), share.evals))
    _check_length(share, params)
    field, points = params.field, params.points
    field.check_elements(share.evals, stripes)
    f_pts = [(points.y_of(yn), v) for (xn, yn), v in samples if xn == i]
    g_pts = [(points.x_of(xn), v) for (xn, yn), v in samples if yn == i]
    f = interpolate(field, f_pts, params.d + params.r)
    return f, interpolate(field, g_pts, params.d)


def reconstruct(
    shares: Sequence[Share], params: CodeParams, stripes: int = 1
) -> tuple[int, ...]:
    """Recover the data block from exactly k shares with distinct node ids."""
    k, d, r = params.k, params.d, params.r
    field, points = params.field, params.points
    if len(shares) != k:
        raise CodecError(f"reconstruction needs exactly {k} shares, got {len(shares)}")
    ids = [s.node_id for s in shares]
    if len(set(ids)) != k:
        raise CodecError(f"duplicate node ids in {ids}")

    fg = [share_polys(s, params, stripes) for s in shares]
    xs = [points.x_of(i) for i in ids]
    ys = [points.y_of(i) for i in ids]
    coeff: dict[tuple[int, int], int] = {}

    # Stage 1: only cells with i < k carry Y^j for j >= k, so the Y^j
    # coefficient of f_l is a degree-<k polynomial in X sampled at x_l.
    for j in range(k, d + r):
        col = interpolate(field, [(xs[l], fg[l][0][j]) for l in range(k)], k)
        coeff.update(((i, j), c) for i, c in enumerate(col))

    # Stage 2: symmetrically, the X^i coefficient of g_l for i >= k is a
    # degree-<k polynomial in Y sampled at y_l.
    for i in range(k, d):
        row = interpolate(field, [(ys[l], fg[l][1][i]) for l in range(k)], k)
        coeff.update(((i, j), c) for j, c in enumerate(row))

    # Stage 3: subtract the recovered i >= k terms from the low Y^j
    # coefficients of each f_l, leaving samples of the i, j < k cells.
    for j in range(k):
        pts = []
        for l in range(k):
            resid = fg[l][0][j]
            for i in range(k, d):
                resid = field.sub(resid, field.scale(coeff[i, j], field.pow(xs[l], i)))
            pts.append((xs[l], resid))
        col = interpolate(field, pts, k)
        coeff.update(((i, j), c) for i, c in enumerate(col))

    F = BiPoly.from_coeffs([coeff[cell] for cell in coeff_cells(k, d, r)], k, d, r)

    # Cross-check: stage 2 fits the high g coefficients, so only the k
    # low ones can disagree. In each stripe g_l and its samples determine
    # each other, so g_l differs in exactly the stripes where a sample does.
    for l in range(k):
        _check_consistent(ids[l], F.g_at(field, ys[l]), fg[l][1], stripes, ids)
    return F.coeffs


def check_shares(
    data: Sequence[int],
    shares: Sequence[Share],
    decoded_from: Sequence[int],
    params: CodeParams,
    stripes: int = 1,
) -> None:
    """Raise CorruptShareError unless each share is the encoding of data.

    Checks shares beyond the k that reconstruct decoded from, against
    the shares re-encoded from its output; decoded_from holds the node
    ids of those k shares, for the error message.
    """
    F = BiPoly.from_coeffs(data, params.k, params.d, params.r)
    for share in shares:
        _check_length(share, params)
        want = _node_share(F, share.node_id, params).evals
        _check_consistent(share.node_id, share.evals, want, stripes, decoded_from)
