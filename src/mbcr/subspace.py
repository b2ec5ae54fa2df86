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
grown one row at a time, each row one int with entry c in fixed-width
slot c (little-endian), so a row operation is one big-int operation.
Over GF(256) slots are bytes and the operation is v ^= Field.scale(row,
f), the data plane's multiply-by-constant. Over GF(p) it is
v += (q - f) * row with no per-slot reduction: a slot is the narrowest
struct integer (B, H, I or Q) holding (q-1) + width*(q-1)^2, the most a
slot reaches from reduced entries in width operations, and each reduced
row gets one % q pass. Pivot rows stay unnormalized, each kept with its
pivot's inverse. rank is the basis length, reduced_basis
back-substitutes into RREF, and containment reduces one space's rows
against the other's basis. intersect is Zassenhaus's algorithm on the
same kernel: eliminate the rows [a | a] and [b | 0]; the echelon rows
whose pivot falls in the right half span a cap b.

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
from functools import cache, partial
from itertools import combinations
from struct import Struct, calcsize
from typing import Callable, Iterable, Optional

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


@cache
class _Packing:
    """Rows of GF(q)^width as ints, entry c in fixed-width slot c; one
    instance per (field, width).

    A slot is the narrowest struct integer (B, H, I, Q) holding every
    value a packed row reaches: over GF(p) a row of reduced entries gains
    at most (q-1)^2 per slot in each of at most width row operations
    before its next % q pass; GF(256) rows add by XOR and stay bytes.

    pack(row) packs reduced entries; entries(v, c) is the tuple of the
    reduced entries of c * v; reduce(v, rows) clears v at the pivot of
    each echelon row (c, row, inv) in turn with one row operation, then
    reduces every slot mod q, so the result is 0 iff v lies in their span.
    """

    def __init__(self, field: Field, width: int):
        q, mul, scale = field.order, field.mul, field.scale
        bound = (q - 1) + width * (q - 1) ** 2 if field.kind == "prime" else q - 1
        slot = next(t for t in "BHIQ" if bound < 1 << 8 * calcsize("<" + t))
        layout = Struct(f"<{width}{slot}")
        bits = self.bits = 8 * layout.size // width
        mask = self.mask = (1 << bits) - 1

        def pack(row):
            return int.from_bytes(layout.pack(*row), "little")

        def slots(v):
            return layout.unpack(v.to_bytes(layout.size, "little"))

        if field.kind == "prime":

            def reduce(v, rows):
                for c, row, inv in rows:
                    f = (v >> c * bits & mask) * inv % q
                    if f:
                        v += (q - f) * row
                return pack([e % q for e in slots(v)])

        else:

            def reduce(v, rows):
                for c, row, inv in rows:
                    f = v >> c * bits & mask
                    if f:
                        v ^= scale(row, mul(f, inv))
                return v

        self.pack, self.reduce = pack, reduce
        self.entries = lambda v, c: tuple(mul(e, c) for e in slots(v))


class _Basis:
    """Row-echelon basis of a subspace of GF(q)^width, grown row by row.

    rows holds (pivot column, packed row, inverse of the pivot entry) by
    increasing pivot; a row is reduced but not normalized. Methods take
    rows packed by self.packing.
    """

    __slots__ = ("field", "width", "packing", "rows")

    def __init__(self, field: Field, width: int):
        self.field, self.width = field, width
        self.packing = _Packing(field, width)
        self.rows: list[tuple[int, int, int]] = []

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.width

    def copy(self) -> "_Basis":
        other = _Basis(self.field, self.width)
        other.rows = self.rows[:]
        return other

    def contains(self, v: int) -> bool:
        return self.full or not self.packing.reduce(v, self.rows)

    def add(self, v: int) -> bool:
        """Absorb v; return whether it was independent of the basis."""
        p = self.packing
        v = p.reduce(v, self.rows)
        if not v:
            return False
        c = ((v & -v).bit_length() - 1) // p.bits
        inv = self.field.inv(v >> c * p.bits & p.mask)
        self.rows.insert(bisect(self.rows, (c,)), (c, v, inv))
        return True

    def extend(self, rows: Iterable[int]) -> "_Basis":
        """Absorb rows until the basis spans the whole space."""
        for v in rows:
            if self.full:
                break
            self.add(v)
        return self

    def reduced_rows(self) -> tuple[tuple[int, ...], ...]:
        """The RREF rows of the span: each row reduced against the rows
        after it, then scaled by its pivot's inverse."""
        p, rows = self.packing, self.rows
        return tuple(
            p.entries(p.reduce(v, rows[t + 1 :]), inv)
            for t, (_, v, inv) in enumerate(rows)
        )


def _span_basis(space: Subspace) -> _Basis:
    basis = _Basis(space.field, space.width)
    return basis.extend(map(basis.packing.pack, space.rows))


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
    stacked = _Basis(field, 2 * width)
    pack, zeros = stacked.packing.pack, (0,) * width
    stacked.extend(pack(tuple(row) + zeros) for row in b.rows)
    stacked.extend(pack(tuple(row) * 2) for row in a.rows)
    # The RREF rows with pivot in the right half, cut to it, are in RREF.
    right = zip(stacked.rows, stacked.reduced_rows())
    rows = tuple(row[width:] for (c, _, _), row in right if c >= width)
    return Subspace(field, width, rows)


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
    rows = map(basis.packing.pack, a.rows)
    return len(basis) - rank(a) == codim and all(map(basis.contains, rows))


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
    def span(*rows):
        return Subspace(params.field, params.block_size, rows)

    row = partial(monomial_row, params, points)
    s = {
        (j, i): span(row(j, i), row(i, j)) for i in plan.failed for j in plan.helpers[i]
    }
    # Newcomer j sends g_j(x_i) = F(x_i, y_j).
    t = {(j, i): span(row(i, j)) for i in plan.failed for j in plan.failed if j != i}
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
    *,
    _bases=None,
) -> list[CheckResult]:
    """dim W_i = share_size for all i; pairwise intersections have
    dim pair_intersection_dim (beta = 2 when k >= 2, alpha when k = 1)."""
    nodes = range(1, params.n + 1)
    basis_of = _bases or _node_bases(
        node_spaces or {i: node_space(i, params, points) for i in nodes}
    )
    dim = {i: len(basis_of((i,))) for i in nodes}
    out = [
        CheckResult("property1_node_dim", f"i={i}", dim[i] == params.share_size)
        for i in dim
    ]
    pair_dim = pair_intersection_dim(params)
    for i, j in combinations(dim, 2):
        # Modular law: dim(W_i cap W_j) = dim W_i + dim W_j - dim(W_i + W_j).
        ok = dim[i] + dim[j] - len(basis_of((i, j))) == pair_dim
        out.append(CheckResult("property1_pair_intersection", f"i={i},j={j}", ok))
    return out


def check_property2(
    plan: RepairPlan,
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
    *,
    _transfers=None,
) -> list[CheckResult]:
    """Each newcomer's space is the direct sum of what it receives."""
    W = node_spaces or {i: node_space(i, params, points) for i in plan.failed}
    ts = _transfers or transfer_spaces(plan, params, points)
    out = []
    for i in sorted(plan.failed):
        parts = [ts.s[(j, i)] for j in plan.helpers[i]]
        parts += [ts.t[(j, i)] for j in sorted(plan.failed) if j != i]
        ok = is_direct_sum(parts) and spaces_equal(space_sum(*parts), W[i])
        out.append(CheckResult("property2_direct_sum", f"i={i}", ok))
    return out


def check_corollary1(
    plan: RepairPlan,
    params: CodeParams,
    points: EvalPoints,
    *,
    _transfers=None,
) -> list[CheckResult]:
    ts = _transfers or transfer_spaces(plan, params, points)
    return [
        CheckResult(name, f"j={j},i={i}", rank(sp) == dim)
        for name, spaces, dim in (
            ("corollary1_dim_helper_transfer", ts.s, params.helper_symbols),
            ("corollary1_dim_exchange", ts.t, params.exchange_symbols),
        )
        for (j, i), sp in sorted(spaces.items())
    ]


def check_property3(
    plan: RepairPlan,
    params: CodeParams,
    points: EvalPoints,
    node_spaces: Optional[dict[int, Subspace]] = None,
    *,
    _bases=None,
    _transfers=None,
) -> list[CheckResult]:
    """Helper transfer S_{j,i} and the exchange sum T_{i,i'} (+) T_{i',i}
    lie in the pairwise intersection with codimension
    pair_intersection_dim - beta.

    For k >= 2 the codimension is 0: S_{j,i} = W_i cap W_j and the two
    exchanges split W_i cap W_i'. At k = 1 both are beta-dimensional
    subspaces of the alpha-dimensional intersection.
    """
    ids = set().union(plan.failed, *plan.helpers.values())
    basis_of = _bases or _node_bases(
        node_spaces or {i: node_space(i, params, points) for i in ids}
    )
    ts = _transfers or transfer_spaces(plan, params, points)
    codim = pair_intersection_dim(params) - params.helper_symbols

    def in_intersection(sp: Subspace, i: int, j: int) -> bool:
        """contained_with_codim(sp, W_i cap W_j, codim), with the
        intersection sized by the modular law and never formed."""
        wi, wj = basis_of((i,)), basis_of((j,))
        dim = len(wi) + len(wj) - len(basis_of((i, j)))
        rows = map(wi.packing.pack, sp.rows)
        return dim - rank(sp) == codim and all(
            wi.contains(v) and wj.contains(v) for v in rows
        )

    name = "property3_helper_eq_intersection"
    out = [
        CheckResult(name, f"j={j},i={i}", in_intersection(sp, i, j))
        for (j, i), sp in sorted(ts.s.items())
    ]
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

    Each node's rows are packed once. A set's basis extends the memoized
    basis of its longest prefix by the remaining nodes' rows, one node at
    a time, memoizing every prefix on the way. Every sum that spans the
    whole space shares one basis: a full basis is never copied, and the
    first one found stands for all.
    """
    rows = {
        i: list(map(_Packing(w.field, w.width).pack, w.rows)) for i, w in spaces.items()
    }
    memo: dict[tuple[int, ...], _Basis] = {}
    whole: Optional[_Basis] = None

    def basis_of(nodes: Iterable[int]) -> _Basis:
        nonlocal whole
        key = tuple(sorted(nodes))
        known = len(key)
        while known and key[:known] not in memo:
            known -= 1
        first = spaces[key[0]]
        basis = memo[key[:known]] if known else _Basis(first.field, first.width)
        for m in range(known, len(key)):
            if not basis.full:
                basis = basis.copy().extend(rows[key[m]])
            if basis.full:
                whole = basis = whole or basis
            memo[key[: m + 1]] = basis
        return basis

    return basis_of


def _lemma1_holds(params: CodeParams, I, J, basis_of) -> bool:
    """dim(sum_I) - dim(sum_I cap sum_J) <= |I|((d-|J|)beta1 + (r-|I|)beta2).

    By the modular law the left side is dim(sum_{I+J}) - dim(sum_J), so
    two node-set bases suffice.
    """
    a, b = len(I), len(J)
    bound = a * (
        (params.d - b) * params.helper_symbols
        + (params.r - a) * params.exchange_symbols
    )
    if not I:
        return 0 <= bound
    lhs = len(basis_of(set(I) | set(J)))
    if J:
        lhs -= len(basis_of(J))
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
    return _lemma1_holds(params, I, J, _node_bases(W))


def lemma1_results(
    params: CodeParams,
    points: EvalPoints,
    plan: RepairPlan,
    node_spaces: Optional[dict[int, Subspace]] = None,
    *,
    _bases=None,
) -> list[CheckResult]:
    """check_lemma1 over every subset I of the failed set and every
    subset J of the helpers common to I."""
    ids = set().union(plan.failed, *plan.helpers.values())
    # Ranks of node-set sums recur across (I, J) pairs; memoize by node set.
    basis_of = _bases or _node_bases(
        node_spaces or {i: node_space(i, params, points) for i in ids}
    )

    out = []
    failed = sorted(plan.failed)
    for asize in range(len(failed) + 1):
        for I in combinations(failed, asize):
            common = set.intersection(*(set(plan.helpers[i]) for i in I)) if I else ()
            for bsize in range(len(common) + 1):
                for J in combinations(sorted(common), bsize):
                    out.append(
                        CheckResult(
                            "lemma1",
                            f"I={{{','.join(map(str, I))}}},J={{{','.join(map(str, J))}}}",
                            _lemma1_holds(params, I, J, basis_of),
                        )
                    )
    return out


def run_all_checks(
    params: CodeParams,
    points: EvalPoints,
    plan: RepairPlan,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """All subspace checks for one code instance and repair plan.

    The checks share one node-set memo, passed as _bases (the basis_of
    of _node_bases), and one TransferSpaces, passed as _transfers; called
    alone, each check builds its own.
    """
    W = node_spaces or {
        i: node_space(i, params, points) for i in range(1, params.n + 1)
    }
    bases, ts = _node_bases(W), transfer_spaces(plan, params, points)
    out = check_property1(params, points, W, _bases=bases)
    out += check_property2(plan, params, points, W, _transfers=ts)
    out += check_corollary1(plan, params, points, _transfers=ts)
    out += check_property3(plan, params, points, W, _bases=bases, _transfers=ts)
    out += lemma1_results(params, points, plan, W, _bases=bases)
    return out
