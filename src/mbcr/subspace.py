"""Subspace linear algebra over GF(q) and the code's property checks.

Every stored or transmitted symbol is a fixed linear functional of the
data block; its coefficient row is the monomial vector (x^a * y^b over
the canonical coefficient cells) at the symbol's evaluation point. Node
subspaces, phase-1 transfer spaces, and phase-2 exchange spaces are row
spans of such vectors, which lets the dimension identities of the code
be checked numerically: per-node dimension, pairwise intersections,
direct-sum decomposition under a repair plan, and the helper-set
dimension inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .codec import CodeParams, EvalPoints, share_point_nodes
from .errors import MbcrError
from .gf import Field
from .poly import coeff_cells
from .repair import RepairPlan


@dataclass(frozen=True)
class Subspace:
    """Row space of a generator matrix over GF(q)."""

    field: Field
    width: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.width:
                raise ValueError(f"row length {len(row)} != width {self.width}")


def zero_space(field: Field, width: int) -> Subspace:
    return Subspace(field, width, ())


def _echelon(field: Field, rows: Sequence[Sequence[int]], pivot_width: int):
    """Forward elimination with pivot search limited to the first
    pivot_width columns; row operations span the full row width.
    Returns (matrix, number of pivots)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pr = 0
    for col in range(pivot_width):
        found = -1
        for row in range(pr, nrows):
            if m[row][col]:
                found = row
                break
        if found < 0:
            continue
        m[pr], m[found] = m[found], m[pr]
        inv = field.inv(m[pr][col])
        if inv != 1:
            m[pr] = [field.mul(inv, v) for v in m[pr]]
        for row in range(nrows):
            if row != pr and m[row][col]:
                factor = m[row][col]
                piv = m[pr]
                m[row] = [
                    field.sub(v, field.mul(factor, p)) for v, p in zip(m[row], piv)
                ]
        pr += 1
        if pr == nrows:
            break
    return m, pr


def rank(space: Subspace) -> int:
    _, r = _echelon(space.field, space.rows, space.width)
    return r


def reduced_basis(space: Subspace) -> Subspace:
    """Canonical RREF basis; equal spans reduce to equal bases."""
    m, r = _echelon(space.field, space.rows, space.width)
    return Subspace(space.field, space.width, tuple(tuple(row) for row in m[:r]))


def space_sum(*spaces: Subspace) -> Subspace:
    if not spaces:
        raise ValueError("space_sum needs at least one subspace")
    field, width = spaces[0].field, spaces[0].width
    rows: list[tuple[int, ...]] = []
    for s in spaces:
        if s.width != width or s.field != field:
            raise MbcrError("subspace sum across mismatched ambient spaces")
        rows.extend(s.rows)
    return Subspace(field, width, tuple(rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Basis of the intersection via the stacked-kernel method.

    Left-null combinations of [rows(a); -rows(b)] have the form
    (lam, mu) with lam*A = mu*B; each lam*A is an intersection vector.
    """
    if a.width != b.width or a.field != b.field:
        raise MbcrError("subspace intersection across mismatched ambient spaces")
    field, width = a.field, a.width
    p, q = len(a.rows), len(b.rows)
    if p == 0 or q == 0:
        return zero_space(field, width)
    aug = p + q
    stacked = []
    for idx, row in enumerate(a.rows):
        stacked.append(list(row) + [1 if t == idx else 0 for t in range(aug)])
    for idx, row in enumerate(b.rows):
        stacked.append(
            [field.neg(v) for v in row]
            + [1 if t == p + idx else 0 for t in range(aug)]
        )
    m, r = _echelon(field, stacked, width)
    vectors = []
    for row in m[r:]:
        lam = row[width : width + p]
        vec = [0] * width
        for t, coef in enumerate(lam):
            if coef:
                arow = a.rows[t]
                vec = [field.add(v, field.mul(coef, w)) for v, w in zip(vec, arow)]
        if any(vec):
            vectors.append(tuple(vec))
    return reduced_basis(Subspace(field, width, tuple(vectors)))


def is_direct_sum(parts: Iterable[Subspace]) -> bool:
    parts = list(parts)
    if not parts:
        return True
    return rank(space_sum(*parts)) == sum(rank(p) for p in parts)


def spaces_equal(a: Subspace, b: Subspace) -> bool:
    """Equality as spans (mutual containment), not generator equality."""
    ra, rb = rank(a), rank(b)
    return ra == rb and rank(space_sum(a, b)) == ra


def monomial_row(
    params: CodeParams, points: EvalPoints, x_node: int, y_node: int
) -> tuple[int, ...]:
    """Generator row of the evaluation at (x of x_node, y of y_node)."""
    field = params.field
    x, y = points.x_of(x_node), points.y_of(y_node)
    xpow = [field.pow(x, i) for i in range(params.d)]
    ypow = [field.pow(y, j) for j in range(params.d + params.r)]
    return tuple(
        field.mul(xpow[i], ypow[j])
        for i, j in coeff_cells(params.k, params.d, params.r)
    )


def node_space(node_id: int, params: CodeParams, points: EvalPoints) -> Subspace:
    rows = tuple(
        monomial_row(params, points, xi, yi)
        for xi, yi in share_point_nodes(node_id, params)
    )
    return Subspace(params.field, params.block_size, rows)


@dataclass(frozen=True)
class TransferSpaces:
    """Spans of the symbols moved under one repair plan.

    s[(j, i)] is what helper j passes to newcomer i in phase 1;
    t[(j, i)] is what newcomer j passes to newcomer i in phase 2.
    """

    s: dict[tuple[int, int], Subspace]
    t: dict[tuple[int, int], Subspace]


def transfer_spaces(
    plan: RepairPlan, params: CodeParams, points: EvalPoints
) -> TransferSpaces:
    width = params.block_size
    s: dict[tuple[int, int], Subspace] = {}
    t: dict[tuple[int, int], Subspace] = {}
    for i in plan.failed:
        for j in plan.helpers[i]:
            rows = (
                monomial_row(params, points, j, i),
                monomial_row(params, points, i, j),
            )
            s[(j, i)] = Subspace(params.field, width, rows)
        for j in plan.failed:
            if j == i:
                continue
            # Newcomer j sends g_j(x_i) = F(x_i, y_j).
            t[(j, i)] = Subspace(
                params.field, width, (monomial_row(params, points, i, j),)
            )
    return TransferSpaces(s=s, t=t)


@dataclass(frozen=True)
class CheckResult:
    name: str
    indices: str
    passed: bool


def format_report(results: Iterable[CheckResult]) -> str:
    return "\n".join(
        f"CHECK {c.name} {c.indices} {'PASS' if c.passed else 'FAIL'}"
        for c in results
    )


def check_property1(
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """dim W_i = share_size for all i; pairwise intersections have dim 2."""
    W = node_spaces or {
        i: node_space(i, params, points) for i in range(1, params.n + 1)
    }
    out = []
    for i in range(1, params.n + 1):
        out.append(
            CheckResult("property1_node_dim", f"i={i}", rank(W[i]) == params.share_size)
        )
    for i, j in combinations(range(1, params.n + 1), 2):
        dim = rank(intersect(W[i], W[j]))
        out.append(
            CheckResult(
                "property1_pair_intersection",
                f"i={i},j={j}",
                dim == params.helper_symbols,
            )
        )
    return out


def check_property2(
    plan: RepairPlan,
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """Each newcomer's space is the direct sum of what it receives."""
    W = node_spaces or {i: node_space(i, params, points) for i in plan.failed}
    ts = transfer_spaces(plan, params, points)
    out = []
    for i in sorted(plan.failed):
        parts = [ts.s[(j, i)] for j in plan.helpers[i]]
        parts += [ts.t[(j, i)] for j in sorted(plan.failed) if j != i]
        ok = is_direct_sum(parts) and spaces_equal(space_sum(*parts), W[i])
        out.append(CheckResult("property2_direct_sum", f"i={i}", ok))
    return out


def check_corollary1(
    plan: RepairPlan, params: CodeParams, points: EvalPoints
) -> list[CheckResult]:
    ts = transfer_spaces(plan, params, points)
    out = []
    for (j, i), sp in sorted(ts.s.items()):
        out.append(
            CheckResult(
                "corollary1_dim_helper_transfer",
                f"j={j},i={i}",
                rank(sp) == params.helper_symbols,
            )
        )
    for (j, i), sp in sorted(ts.t.items()):
        out.append(
            CheckResult(
                "corollary1_dim_exchange",
                f"j={j},i={i}",
                rank(sp) == params.exchange_symbols,
            )
        )
    return out


def check_property3(
    plan: RepairPlan,
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """Helper transfer = W_i cap W_j; the two exchanges split W_i cap W_i'."""
    ids = set().union(plan.failed, *plan.helpers.values())
    W = node_spaces or {i: node_space(i, params, points) for i in ids}
    ts = transfer_spaces(plan, params, points)
    out = []
    for (j, i), sp in sorted(ts.s.items()):
        out.append(
            CheckResult(
                "property3_helper_eq_intersection",
                f"j={j},i={i}",
                spaces_equal(sp, intersect(W[i], W[j])),
            )
        )
    for i, i2 in combinations(sorted(plan.failed), 2):
        both = space_sum(ts.t[(i, i2)], ts.t[(i2, i)])
        ok = is_direct_sum([ts.t[(i, i2)], ts.t[(i2, i)]]) and spaces_equal(
            both, intersect(W[i], W[i2])
        )
        out.append(CheckResult("property3_exchange_sum", f"i={i},i'={i2}", ok))
    return out


def _node_sum_ranks(spaces: dict[int, Subspace]):
    """Rank of the sum of the given node spaces, memoized by node set."""
    cache: dict[frozenset[int], int] = {}

    def sum_rank(nodes: frozenset[int]) -> int:
        if nodes not in cache:
            cache[nodes] = rank(space_sum(*[spaces[i] for i in nodes]))
        return cache[nodes]

    return sum_rank


def _lemma1_holds(params: CodeParams, I, J, sum_rank) -> bool:
    """dim(sum_I) - dim(sum_I cap sum_J) <= |I|((d-|J|)beta1 + (r-|I|)beta2).

    By the modular law the left side is dim(sum_{I+J}) - dim(sum_J), so
    two rank computations suffice.
    """
    a, b = len(I), len(J)
    bound = a * (
        (params.d - b) * params.helper_symbols
        + (params.r - a) * params.exchange_symbols
    )
    if not I:
        return 0 <= bound
    lhs = sum_rank(frozenset(I) | frozenset(J))
    if J:
        lhs -= sum_rank(frozenset(J))
    return lhs <= bound


def check_lemma1(
    params: CodeParams,
    points: EvalPoints,
    plan: RepairPlan,
    I: Iterable[int],
    J: Iterable[int],
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> bool:
    """Dimension inequality for newcomer subset I against common helpers J."""
    I, J = sorted(set(I)), sorted(set(J))
    if not set(I) <= plan.failed:
        raise MbcrError(f"I = {I} is not a subset of the failed set")
    for j in J:
        if any(j not in plan.helpers[i] for i in I):
            raise MbcrError(f"J = {J} is not common to all helper sets of I")
    W = node_spaces or {
        i: node_space(i, params, points) for i in set(I) | set(J)
    }
    return _lemma1_holds(params, I, J, _node_sum_ranks(W))


def lemma1_results(
    params: CodeParams,
    points: EvalPoints,
    plan: RepairPlan,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """check_lemma1 over every subset I of the failed set and every
    subset J of the helpers common to I."""
    ids = set().union(plan.failed, *plan.helpers.values())
    W = node_spaces or {i: node_space(i, params, points) for i in ids}
    # Ranks of node-set sums recur across (I, J) pairs; reduce each node
    # basis once and memoize by node set.
    sum_rank = _node_sum_ranks({i: reduced_basis(W[i]) for i in ids})

    out = []
    failed = sorted(plan.failed)
    for asize in range(len(failed) + 1):
        for I in combinations(failed, asize):
            if I:
                common = set(plan.helpers[I[0]])
                for i in I[1:]:
                    common &= set(plan.helpers[i])
            else:
                common = set()
            for bsize in range(len(common) + 1):
                for J in combinations(sorted(common), bsize):
                    out.append(
                        CheckResult(
                            "lemma1",
                            f"I={{{','.join(map(str, I))}}},J={{{','.join(map(str, J))}}}",
                            _lemma1_holds(params, I, J, sum_rank),
                        )
                    )
    return out


def run_all_checks(
    params: CodeParams,
    points: EvalPoints,
    plan: RepairPlan,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """All subspace checks for one code instance and repair plan."""
    W = node_spaces or {
        i: node_space(i, params, points) for i in range(1, params.n + 1)
    }
    out = check_property1(params, points, W)
    out += check_property2(plan, params, points, W)
    out += check_corollary1(plan, params, points)
    out += check_property3(plan, params, points, W)
    out += lemma1_results(params, points, plan, W)
    return out
