"""Subspace linear algebra over GF(q) and the code's property checks.

Every stored or transmitted symbol is a fixed linear functional of the
data block; its coefficient row is the monomial vector (x^a * y^b over
the canonical coefficient cells) at the symbol's evaluation point. Node
subspaces, phase-1 transfer spaces, and phase-2 exchange spaces are row
spans of such vectors, which lets the dimension identities of the code
be checked numerically: per-node dimension, pairwise intersections,
direct-sum decomposition under a repair plan, and the helper-set
dimension inequality.

All elimination goes through one kernel, _Basis: a row-echelon basis
grown one row at a time. Reducing a row subtracts multiples of the pivot
rows, each over the columns from its pivot on only, with the row
operation chosen once per field ((a - f*b) % q inlined for GF(p),
a ^ f*b for GF(256)); a row that reduces to zero is in the span. rank is
the basis length, reduced_basis back-substitutes it into RREF, and
containment reduces the smaller space's rows against the larger one's
basis. intersect is Zassenhaus's algorithm on the same kernel: eliminate
the rows [a | a] and [b | 0]; the echelon rows whose pivot falls in the
right half span a cap b.

The checks avoid intersecting at all. The sum of a set of node spaces is
kept as one basis per node set, each extending the basis of its longest
prefix, and an intersection is sized by the modular law
dim(A cap B) = dim A + dim B - dim(A + B); S lies in W_i cap W_j iff it
lies in W_i and in W_j.

Two node spaces intersect in pair_intersection_dim = 2*alpha -
min(B, 2*alpha - beta) dimensions. For k >= 2 this is beta, and the
phase-1 and phase-2 transfer spaces equal the pairwise intersections;
at k = 1 (B = alpha) every node spans the whole block, the intersection
is alpha-dimensional, and the transfer spaces lie in it with codimension
alpha - beta. The checks assert the general form.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

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


def _row_operation(field: Field):
    """sub(tail, pivot_tail, f): the entries of tail - f * pivot_tail."""
    if field.kind == "prime":
        q = field.order

        def sub(tail, pivot_tail, f):
            return [(a - f * b) % q for a, b in zip(tail, pivot_tail)]

    else:
        mul = field.mul

        def sub(tail, pivot_tail, f):
            return [a ^ mul(f, b) for a, b in zip(tail, pivot_tail)]

    return sub


class _Basis:
    """Row-echelon basis of a subspace of GF(q)^width, grown row by row.

    Pivots increase; row t is kept from its pivot column on, as
    tails[t], which starts with 1. Every entry left of a pivot is zero,
    so a row operation only touches the columns from the pivot on. Tails
    are tuples, so copies share them.
    """

    __slots__ = ("field", "width", "pivots", "tails", "_sub")

    def __init__(self, field: Field, width: int, rows: Iterable[Sequence[int]] = ()):
        self.field, self.width = field, width
        self.pivots: list[int] = []
        self.tails: list[tuple[int, ...]] = []
        self._sub = _row_operation(field)
        self.extend(rows)

    def __len__(self) -> int:
        return len(self.pivots)

    @property
    def full(self) -> bool:
        return len(self.pivots) == self.width

    def copy(self) -> "_Basis":
        other = _Basis(self.field, self.width)
        other.pivots, other.tails = list(self.pivots), list(self.tails)
        return other

    def reduce(self, row: Sequence[int]) -> list[int]:
        """row less a combination of the basis; zero iff row is in the span."""
        row = list(row)
        sub = self._sub
        for c, tail in zip(self.pivots, self.tails):
            f = row[c]
            if f:
                row[c:] = sub(row[c:], tail, f)
        return row

    def contains(self, row: Sequence[int]) -> bool:
        return self.full or not any(self.reduce(row))

    def add(self, row: Sequence[int]) -> bool:
        """Absorb row; return whether it was independent of the basis."""
        row = self.reduce(row)
        c = next((c for c, v in enumerate(row) if v), None)
        if c is None:
            return False
        tail = row[c:]
        inv = self.field.inv(tail[0])
        if inv != 1:
            tail = [self.field.mul(inv, v) for v in tail]
        t = bisect(self.pivots, c)
        self.pivots.insert(t, c)
        self.tails.insert(t, tuple(tail))
        return True

    def extend(self, rows: Iterable[Sequence[int]]) -> "_Basis":
        """Absorb rows until the basis spans the whole space."""
        for row in rows:
            if self.full:
                break
            self.add(row)
        return self

    def reduced_rows(self) -> tuple[tuple[int, ...], ...]:
        """The RREF rows of the span, by back-substitution."""
        pivots, tails, sub = self.pivots, list(self.tails), self._sub
        for t in range(len(tails) - 1, 0, -1):
            c, tail = pivots[t], tails[t]
            for s in range(t):
                off = c - pivots[s]
                f = tails[s][off]
                if f:
                    tails[s] = tails[s][:off] + tuple(sub(tails[s][off:], tail, f))
        return tuple((0,) * c + tail for c, tail in zip(pivots, tails))


def _span_basis(space: Subspace) -> _Basis:
    return _Basis(space.field, space.width, space.rows)


def _check_ambient(a: Subspace, b: Subspace, what: str) -> None:
    if a.width != b.width or a.field != b.field:
        raise MbcrError(f"subspace {what} across mismatched ambient spaces")


def rank(space: Subspace) -> int:
    return len(_span_basis(space))


def reduced_basis(space: Subspace) -> Subspace:
    """Canonical RREF basis; equal spans reduce to equal bases."""
    return Subspace(space.field, space.width, _span_basis(space).reduced_rows())


def space_sum(*spaces: Subspace) -> Subspace:
    if not spaces:
        raise ValueError("space_sum needs at least one subspace")
    rows: list[tuple[int, ...]] = []
    for s in spaces:
        _check_ambient(s, spaces[0], "sum")
        rows.extend(s.rows)
    return Subspace(spaces[0].field, spaces[0].width, tuple(rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """RREF basis of a cap b, by Zassenhaus's algorithm.

    A combination of the rows [a_s | a_s] and [b_t | 0] with left half
    zero has sum(lam_s a_s) = -sum(mu_t b_t) as its right half, a vector
    of a cap b, and every such vector arises. In an echelon basis of the
    stack, the rows whose pivot lies in the right half span exactly the
    vectors with left half zero.
    """
    _check_ambient(a, b, "intersection")
    field, width = a.field, a.width
    zeros = (0,) * width
    stacked = _Basis(field, 2 * width, [tuple(row) + zeros for row in b.rows])
    stacked.extend(tuple(row) * 2 for row in a.rows)
    right = [
        (0,) * (c - width) + tail
        for c, tail in zip(stacked.pivots, stacked.tails)
        if c >= width
    ]
    return Subspace(field, width, _Basis(field, width, right).reduced_rows())


def is_direct_sum(parts: Iterable[Subspace]) -> bool:
    parts = list(parts)
    if not parts:
        return True
    return rank(space_sum(*parts)) == sum(rank(p) for p in parts)


def spaces_equal(a: Subspace, b: Subspace) -> bool:
    """Equality as spans (mutual containment), not generator equality."""
    return contained_with_codim(a, b, 0)


def contained_with_codim(a: Subspace, b: Subspace, codim: int) -> bool:
    """a is a subspace of b and dim b - dim a == codim."""
    _check_ambient(a, b, "containment")
    basis = _span_basis(b)
    return len(basis) - rank(a) == codim and all(basis.contains(v) for v in a.rows)


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


def pair_intersection_dim(params: CodeParams) -> int:
    """dim(W_i cap W_j) for two distinct nodes, by the modular law.

    dim(W_i + W_j) = min(B, 2*alpha - beta): when k >= 2 the two nodes
    sit in one reconstructing k-set and share exactly the beta cross
    symbols F(x_i, y_j), F(x_j, y_i), so the intersection is beta; at
    k = 1, B = alpha, each node alone spans the block and the
    intersection is alpha.
    """
    alpha = params.share_size
    return 2 * alpha - min(params.block_size, 2 * alpha - params.helper_symbols)


def check_property1(
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """dim W_i = share_size for all i; pairwise intersections have
    dim pair_intersection_dim (beta = 2 when k >= 2, alpha when k = 1)."""
    W = node_spaces or {
        i: node_space(i, params, points) for i in range(1, params.n + 1)
    }
    sum_rank = _node_sum_ranks(W)
    out = []
    for i in range(1, params.n + 1):
        out.append(
            CheckResult(
                "property1_node_dim", f"i={i}", sum_rank((i,)) == params.share_size
            )
        )
    pair_dim = pair_intersection_dim(params)
    for i, j in combinations(range(1, params.n + 1), 2):
        # Modular law: dim(W_i cap W_j) = dim W_i + dim W_j - dim(W_i + W_j).
        dim = sum_rank((i,)) + sum_rank((j,)) - sum_rank((i, j))
        out.append(
            CheckResult("property1_pair_intersection", f"i={i},j={j}", dim == pair_dim)
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
    """Helper transfer S_{j,i} and the exchange sum T_{i,i'} (+) T_{i',i}
    lie in the pairwise intersection with codimension
    pair_intersection_dim - beta.

    For k >= 2 the codimension is 0: S_{j,i} = W_i cap W_j and the two
    exchanges split W_i cap W_i'. At k = 1 both are beta-dimensional
    subspaces of the alpha-dimensional intersection.
    """
    ids = set().union(plan.failed, *plan.helpers.values())
    W = node_spaces or {i: node_space(i, params, points) for i in ids}
    ts = transfer_spaces(plan, params, points)
    codim = pair_intersection_dim(params) - params.helper_symbols
    basis_of = _node_bases(W)

    def in_intersection(sp: Subspace, i: int, j: int) -> bool:
        """contained_with_codim(sp, W_i cap W_j, codim), with the
        intersection sized by the modular law and never formed."""
        wi, wj = basis_of((i,)), basis_of((j,))
        dim = len(wi) + len(wj) - len(basis_of((i, j)))
        return dim - rank(sp) == codim and all(
            wi.contains(v) and wj.contains(v) for v in sp.rows
        )

    out = []
    for (j, i), sp in sorted(ts.s.items()):
        out.append(
            CheckResult(
                "property3_helper_eq_intersection",
                f"j={j},i={i}",
                in_intersection(sp, i, j),
            )
        )
    for i, i2 in combinations(sorted(plan.failed), 2):
        both = space_sum(ts.t[(i, i2)], ts.t[(i2, i)])
        ok = is_direct_sum([ts.t[(i, i2)], ts.t[(i2, i)]]) and in_intersection(
            both, i, i2
        )
        out.append(CheckResult("property3_exchange_sum", f"i={i},i'={i2}", ok))
    return out


def _node_bases(spaces: dict[int, Subspace]) -> Callable[[Iterable[int]], _Basis]:
    """basis_of(nodes): the echelon basis of the sum of a non-empty set of
    node spaces, memoized by sorted node tuple.

    A set's basis extends the memoized basis of its longest prefix by the
    remaining nodes' rows, one node at a time, memoizing every prefix on
    the way. Every sum that spans the whole space shares one basis: a
    full basis is never copied, and the first one found stands for all.
    """
    memo: dict[tuple[int, ...], _Basis] = {}
    whole: Optional[_Basis] = None

    def basis_of(nodes: Iterable[int]) -> _Basis:
        nonlocal whole
        key = tuple(sorted(nodes))
        known = len(key)
        while known and key[:known] not in memo:
            known -= 1
        basis = memo[key[:known]] if known else None
        for m in range(known, len(key)):
            space = spaces[key[m]]
            if basis is None:
                basis = _span_basis(space)
            elif not basis.full:
                basis = basis.copy().extend(space.rows)
            if basis.full:
                whole = basis = whole or basis
            memo[key[: m + 1]] = basis
        return basis

    return basis_of


def _node_sum_ranks(spaces: dict[int, Subspace]) -> Callable[[Iterable[int]], int]:
    """Rank of the sum of a non-empty set of node spaces, memoized by
    node set (see _node_bases)."""
    basis_of = _node_bases(spaces)
    return lambda nodes: len(basis_of(nodes))


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
    lhs = sum_rank(set(I) | set(J))
    if J:
        lhs -= sum_rank(J)
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
    # Ranks of node-set sums recur across (I, J) pairs; memoize by node set.
    sum_rank = _node_sum_ranks(W)

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
