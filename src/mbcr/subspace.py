"""Subspace linear algebra over GF(q) and the code's property checks.

Every stored or transmitted symbol is F at an (x-node, y-node) point, a
fixed linear functional of the data block; its coefficient row holds its
value in codec.grid of each of the B unit data blocks, so the rows come
from the shipped encoder. Node subspaces, phase-1 transfer spaces, and
phase-2 exchange spaces are row spans of such vectors, which lets the
dimension identities of the code be checked numerically: per-node
dimension, pairwise intersections, direct-sum decomposition under a
repair plan, and the helper-set dimension inequality.

All elimination goes through one kernel, _Basis: a row-echelon basis
grown in levels, one level per batch of rows, each row one int with
entry c in fixed-width slot c (little-endian), so a row operation is one
big-int operation.
Over GF(256) slots are bytes and the operation is v ^= Field.scale(row,
f), the data plane's multiply-by-constant. Over GF(p) it is
v += (q - f) * row with no per-slot reduction, and a reduced row returns
to [0, q) in a few whole-row operations: a slot value x <= bound, the
most a slot reaches from reduced entries in width operations, has
x mod q = x - q*((x*M) >> s) for a fixed M and s (Granlund and
Montgomery's division by an invariant integer), applied to the even and
the odd slots apart so that x*M has two slots of room. The slot is the
narrowest struct integer (B, H, I or Q) that holds bound and keeps both
steps exact (_Packing). Pivot rows stay unnormalized, each kept with its
pivot's bit shift and inverse. A level's rows are reduced by every
earlier level, so one walk down the rows in order clears every pivot.
rank is the length of a one-level basis. intersect is Zassenhaus's
algorithm on the same kernel: eliminate the rows [b | 0], then [a | a],
as two levels; the echelon rows whose pivot falls in the right half
span a cap b.

run_all_checks is the one entry point to the checks. It builds the node
spaces, the transfer spaces and one memo over both, dim(labels): the
dimension of the sum of the labelled spaces (_dims). A sum's basis
extends its prefix's by one level per label, and the memo keeps, for a
label and a prefix, the label's rows reduced by the prefix's basis: a
residual. So within one call a label's rows are reduced by each level
of a prefix at most once, and the sums that Lemma 1 grows one label at
a time reuse what their shorter sums reduced. Every check
compares such dimensions: X lies in W iff dim(W + X) = dim W; a sum is
direct iff its dimension is the sum of its parts'; spans are equal iff
each contains the other; and an intersection is sized by the modular
law dim(A cap B) = dim A + dim B - dim(A + B).

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
from functools import cache, lru_cache, partial
from itertools import combinations
from struct import Struct, calcsize, error as StructError
from typing import Callable, Hashable, Iterable, Optional

from .codec import CodeParams, grid, share_point_nodes
from .errors import FieldMismatchError, MbcrError
from .gf import Field
from .repair import RepairPlan, phase1_points, phase2_point


@dataclass(frozen=True)
class Subspace:
    """Row space of a generator matrix over GF(q)."""

    field: Field
    width: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.width, int) or self.width < 1:
            raise ValueError(f"width {self.width!r} is not a positive int")
        for row in self.rows:
            if len(row) != self.width:
                raise ValueError(f"row length {len(row)} != width {self.width}")


@cache
class _Packing:
    """Rows of GF(q)^width as ints, entry c in fixed-width slot c; one
    instance per (field, width).

    Over GF(p) a row of reduced entries gains at most (q-1)^2 per slot in
    each of at most width row operations before it is reduced, so a slot
    value x never exceeds bound = (q-1) + width*(q-1)^2; GF(256) rows add
    by XOR and stay bytes. x returns to [0, q) as x - q*((x*M) >> s), with
    M = ceil(2^s / q) for the least s with bound*(M*q - 2^s) < 2^s. x*M
    needs two slots of room, so the even and the odd slots are reduced
    apart, each half in one multiply, shift, mask, multiply and subtract
    over the whole row. The slot is the narrowest struct integer (B, H, I,
    Q) whose bits hold bound and keep both halves exact. bound*M <
    2^(2*bits) keeps x*M inside its double slot; bound // q <
    2^(2*bits - s) keeps the quotient x // q = (x*M) >> s inside the mask
    of the low 2*bits - s bits of each double slot, and follows from the
    first. A slot that holds bound can still be too narrow: at q = 23 and
    width 128, bound < 2^16 but the slot is 32 bits.

    pack(row) packs a row of field elements and refuses any other entry:
    the reduction is exact only on slots up to bound. reduce(v, rows)
    clears v at the pivot of each echelon row (shift, row, inv) in turn
    with one row operation, then brings every slot into [0, q), so the
    result is 0 iff v lies in their span.
    """

    def __init__(self, field: Field, width: int):
        q, mul, scale = field.order, field.mul, field.scale
        bound = (q - 1) + width * (q - 1) ** 2 if field.kind == "prime" else q - 1
        s = 0
        while bound * (-(1 << s) % q) >= 1 << s:
            s += 1
        M = -(-(1 << s) // q)

        def exact(slot: str) -> bool:
            bits = 8 * calcsize("<" + slot)
            return bound < 1 << bits and bound * M < 1 << 2 * bits

        layout = Struct(f"<{width}{next(filter(exact, 'BHIQ'))}")
        bits = self.bits = 8 * layout.size // width
        mask = self.mask = (1 << bits) - 1
        # The bit shift of each slot. Echelon rows keep their pivot's shift
        # and share these ints, so a row holds no int of its own for it.
        self.shifts = tuple(range(0, width * bits, bits))

        def pack(row):
            try:
                if 0 <= min(row) and max(row) < q:
                    return int.from_bytes(layout.pack(*row), "little")
            except (TypeError, StructError):
                pass
            raise FieldMismatchError(f"row {row!r} has an entry outside {field}")

        if field.kind == "prime":
            # One bit in the lowest place of each double slot.
            ones = sum(1 << 2 * bits * t for t in range((width + 1) // 2))
            even, low = ones * mask, ones * ((1 << 2 * bits - s) - 1)

            def reduce(v, rows):
                for shift, row, inv in rows:
                    f = (v >> shift & mask) * inv % q
                    if f:
                        v += (q - f) * row
                a, b = v & even, v >> bits & even
                a -= q * (a * M >> s & low)
                b -= q * (b * M >> s & low)
                return a | b << bits

        else:

            def reduce(v, rows):
                for shift, row, inv in rows:
                    f = v >> shift & mask
                    if f:
                        v ^= scale(row, mul(f, inv))
                return v

        self.pack, self.reduce = pack, reduce
        # A pivot's inverse: a table over fields of at most 256 elements,
        # else one pow.
        self.inverse = (
            [0, *map(field.inv, range(1, q))].__getitem__
            if q <= 256
            else partial(pow, exp=q - 2, mod=q)
        )


class _Basis:
    """Row-echelon basis of a subspace of GF(q)^width, grown level by level.

    rows holds (bit shift of the pivot slot, packed row, inverse of the
    pivot entry) in levels: the rows that one extend call adds, sorted by
    pivot and placed after the rows already there. A row is reduced, so
    zero before its pivot and at the pivot of every row ahead of it, but
    not normalized; reduce(v, rows) walks the list in order and clears
    every pivot. A copy's rows begin with the rows of its original.
    Methods take rows packed by self.packing.
    """

    __slots__ = ("width", "packing", "rows")

    def __init__(self, field: Field, width: int):
        self.width = width
        self.packing = _Packing(field, width)
        self.rows: list[tuple[int, int, int]] = []

    def copy(self) -> "_Basis":
        other = _Basis.__new__(_Basis)
        other.width, other.packing, other.rows = self.width, self.packing, self.rows[:]
        return other

    def extend(self, rows: Iterable[int], skip: int = 0) -> "_Basis":
        """Absorb rows as one level, until the basis spans the whole space.

        Each row is already reduced by the first skip rows of the basis,
        so it is reduced only by the tail after them, which grows as rows
        are inserted.
        """
        basis, width, p = self.rows, self.width, self.packing
        reduce, bits, mask, shifts, inverse = p.reduce, p.bits, p.mask, p.shifts, p.inverse
        start, tail = len(basis), basis[skip:]
        for v in rows:
            if len(basis) == width:
                break
            if tail:
                v = reduce(v, tail)
            if v:
                shift = shifts[((v & -v).bit_length() - 1) // bits]
                row = (shift, v, inverse(v >> shift & mask))
                at = bisect(basis, (shift,), start)
                basis.insert(at, row)
                tail.insert(at - skip, row)
        return self


def _check_ambient(a: Subspace, b: Subspace, what: str) -> None:
    if a.width != b.width or a.field != b.field:
        raise MbcrError(f"subspace {what} across mismatched ambient spaces")


def rank(space: Subspace) -> int:
    basis = _Basis(space.field, space.width)
    return len(basis.extend([basis.packing.pack(row) for row in space.rows]).rows)


def space_sum(*spaces: Subspace) -> Subspace:
    if not spaces:
        raise ValueError("space_sum needs at least one subspace")
    rows: list[tuple[int, ...]] = []
    for s in spaces:
        _check_ambient(s, spaces[0], "sum")
        rows.extend(s.rows)
    return Subspace(spaces[0].field, spaces[0].width, tuple(rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """A basis of a cap b, by Zassenhaus's algorithm.

    A combination of the rows [a_s | a_s] and [b_t | 0] with left half
    zero has sum(lam_s a_s) = -sum(mu_t b_t) as its right half, a vector
    of a cap b, and every such vector arises. In an echelon basis of the
    stack, the rows whose pivot lies in the right half are zero on the
    left and span exactly those vectors; their right halves are returned.
    """
    _check_ambient(a, b, "intersection")
    field, width = a.field, a.width
    stacked = _Basis(field, 2 * width)
    p, zeros = stacked.packing, (0,) * width
    # Every row is packed, and so checked, even past a full basis.
    stacked.extend([p.pack(tuple(row) + zeros) for row in b.rows])
    stacked.extend([p.pack(tuple(row) * 2) for row in a.rows])
    rows = tuple(
        tuple(v >> t * p.bits & p.mask for t in range(width, 2 * width))
        for shift, v, _ in stacked.rows
        if shift >= width * p.bits
    )
    return Subspace(field, width, rows)


@lru_cache(maxsize=64)
def _unit_grids(params: CodeParams) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The row of each grid point, at rows[yn - 1][xn - 1]: its value in
    codec.grid of each of the B unit data blocks."""
    B = params.block_size
    grids = [grid(tuple(int(c == b) for c in range(B)), params) for b in range(B)]
    return tuple(tuple(zip(*lines)) for lines in zip(*grids))


def _span_of(points: Iterable[tuple[int, int]], params: CodeParams) -> Subspace:
    """The span of F at the (x-node, y-node) points."""
    rows = _unit_grids(params)
    span = tuple(rows[yn - 1][xn - 1] for xn, yn in points)
    return Subspace(params.field, params.block_size, span)


def node_space(node_id: int, params: CodeParams) -> Subspace:
    return _span_of(share_point_nodes(node_id, params), params)


def _transfer_labels(plan: RepairPlan) -> list[tuple[str, int, int]]:
    """Labels of the spaces moved under a plan, sorted: ("s", j, i) for
    what helper j sends newcomer i in phase 1, then ("t", j, i) for what
    newcomer j sends newcomer i in phase 2."""
    failed, helpers = plan.failed, plan.helpers
    s = [("s", j, i) for i in failed for j in helpers[i]]
    return sorted(s + [("t", j, i) for i in failed for j in failed if j != i])


def transfer_spaces(plan: RepairPlan, params: CodeParams) -> dict[tuple, Subspace]:
    """The span of the symbols moved under one repair plan, by label:
    ("s", j, i) is spanned by the rows of repair.phase1_points(j, i),
    ("t", j, i) by the row of repair.phase2_point(j, i)."""

    def points(kind, j, i):
        return phase1_points(j, i) if kind == "s" else [phase2_point(j, i)]

    return {label: _span_of(points(*label), params) for label in _transfer_labels(plan)}


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


# dim(labels) of _dims: the dimension of the sum of the labelled spaces.
_Dim = Callable[[tuple], int]


def _cap_dim(dim: _Dim, i: int, j: int) -> int:
    """dim(W_i cap W_j) = dim W_i + dim W_j - dim(W_i + W_j)."""
    return dim((i,)) + dim((j,)) - dim((min(i, j), max(i, j)))


def check_property1(params: CodeParams, dim: _Dim) -> list[CheckResult]:
    """dim W_i = share_size for all i; pairwise intersections have
    dim pair_intersection_dim (beta = 2 when k >= 2, alpha when k = 1)."""
    nodes = range(1, params.n + 1)
    out = [
        CheckResult("property1_node_dim", f"i={i}", dim((i,)) == params.share_size)
        for i in nodes
    ]
    pair_dim = pair_intersection_dim(params)
    for i, j in combinations(nodes, 2):
        ok = _cap_dim(dim, i, j) == pair_dim
        out.append(CheckResult("property1_pair_intersection", f"i={i},j={j}", ok))
    return out


def check_property2(plan: RepairPlan, dim: _Dim) -> list[CheckResult]:
    """Each newcomer's space is the direct sum of what it receives."""
    out = []
    for i in plan.failed:
        parts = tuple(("s", j, i) for j in plan.helpers[i])
        parts += tuple(("t", j, i) for j in plan.failed if j != i)
        # A direct sum, and W_i and the sum each contain the other.
        sizes = sum(dim((x,)) for x in parts)
        ok = sizes == dim(parts) == dim((i,)) == dim((i, *parts))
        out.append(CheckResult("property2_direct_sum", f"i={i}", ok))
    return out


def check_corollary1(
    params: CodeParams, plan: RepairPlan, dim: _Dim
) -> list[CheckResult]:
    names = {"s": "corollary1_dim_helper_transfer", "t": "corollary1_dim_exchange"}
    symbols = {"s": params.helper_symbols, "t": params.exchange_symbols}
    return [
        CheckResult(names[kind], f"j={j},i={i}", dim(((kind, j, i),)) == symbols[kind])
        for kind, j, i in _transfer_labels(plan)
    ]


def check_property3(
    plan: RepairPlan, params: CodeParams, dim: _Dim
) -> list[CheckResult]:
    """Helper transfer S_{j,i} and the exchange sum T_{i,i'} (+) T_{i',i}
    lie in the pairwise intersection with codimension
    pair_intersection_dim - beta.

    For k >= 2 the codimension is 0: S_{j,i} = W_i cap W_j and the two
    exchanges split W_i cap W_i'. At k = 1 both are beta-dimensional
    subspaces of the alpha-dimensional intersection.
    """
    codim = pair_intersection_dim(params) - params.helper_symbols

    def in_intersection(x: tuple, i: int, j: int) -> bool:
        """The sum of the spaces x lies in W_i and in W_j, with
        codimension codim in their intersection."""
        return (
            _cap_dim(dim, i, j) - dim(x) == codim
            and dim((i, *x)) == dim((i,))
            and dim((j, *x)) == dim((j,))
        )

    name = "property3_helper_eq_intersection"
    out = [
        CheckResult(name, f"j={j},i={i}", in_intersection((("s", j, i),), i, j))
        for kind, j, i in _transfer_labels(plan)
        if kind == "s"
    ]
    for i, i2 in combinations(plan.failed, 2):
        pair = (("t", i, i2), ("t", i2, i))
        ok = dim(pair) == dim(pair[:1]) + dim(pair[1:]) and in_intersection(pair, i, i2)
        out.append(CheckResult("property3_exchange_sum", f"i={i},i'={i2}", ok))
    return out


def _dims(spaces: dict[Hashable, Subspace]) -> _Dim:
    """dim(labels): the dimension of the sum of the spaces with the given
    labels, memoized by the label tuple as given; no labels give 0.

    A tuple's basis extends the memoized basis of its longest prefix by
    the remaining spaces' rows, one space, and so one level, at a time,
    memoizing every prefix on the way. residuals[(prefix, label)] holds
    the label's packed rows reduced by the basis of prefix, settled, with
    zeros dropped; ((), label) holds the rows as packed. An entry is built
    from the longest prefix already there, one level at a time, and kept
    on the way. Extending P by a label starts from its residual against
    P[:1], so that pairs serve every longer sum, or against P[:-1] for a
    node label (an int) after three or more labels, which every
    (P[:-1], x, label) shares; only the rest of P is left to reduce by.
    Every sum that spans the whole space shares one basis: a full basis
    is never copied, and the first one found stands for all.
    """
    w = next(iter(spaces.values()))
    width, memo = w.width, {(): _Basis(w.field, w.width)}
    pack, reduce = memo[()].packing.pack, memo[()].packing.reduce
    residuals = {
        ((), label): [v for v in map(pack, space.rows) if v]
        for label, space in spaces.items()
    }
    whole: Optional[_Basis] = None

    def residual(prefix: tuple, label: Hashable) -> list[int]:
        j = len(prefix)
        while (prefix[:j], label) not in residuals:
            j -= 1
        rows = residuals[prefix[:j], label]
        for j in range(j + 1, len(prefix) + 1):
            level = memo[prefix[:j]].rows[len(memo[prefix[: j - 1]].rows) :]
            rows = [v for v in (reduce(v, level) for v in rows) if v]
            residuals[prefix[:j], label] = rows
        return rows

    def dim(labels: tuple) -> int:
        nonlocal whole
        if labels in memo:
            return len(memo[labels].rows)
        known = len(labels) - 1
        while labels[:known] not in memo:
            known -= 1
        basis = memo[labels[:known]]
        for m in range(known, len(labels)):
            if len(basis.rows) < width:
                prefix, label = labels[:m], labels[m]
                base = prefix[:-1] if m > 2 and isinstance(label, int) else prefix[:1]
                basis = basis.copy().extend(residual(base, label), len(memo[base].rows))
            if len(basis.rows) == width:
                whole = basis = whole or basis
            memo[labels[: m + 1]] = basis
        return len(basis.rows)

    return dim


def lemma1_results(
    params: CodeParams, plan: RepairPlan, dim: _Dim
) -> list[CheckResult]:
    """Lemma 1 for every subset I of the failed set and every subset J of
    the helpers common to I:
    dim(sum_I) - dim(sum_I cap sum_J) <= |I|((d-|J|)beta1 + (r-|I|)beta2).

    By the modular law the left side is dim(sum_{I+J}) - dim(sum_J).
    """
    beta1, beta2 = params.helper_symbols, params.exchange_symbols
    out = []
    for a in range(len(plan.failed) + 1):
        for I in combinations(plan.failed, a):
            common = set.intersection(*(set(plan.helpers[i]) for i in I)) if I else ()
            for b in range(len(common) + 1):
                for J in combinations(sorted(common), b):
                    lhs = dim(tuple(sorted(I + J))) - dim(J)
                    bound = a * ((params.d - b) * beta1 + (params.r - a) * beta2)
                    out.append(
                        CheckResult(
                            "lemma1",
                            f"I={{{','.join(map(str, I))}}},J={{{','.join(map(str, J))}}}",
                            lhs <= bound,
                        )
                    )
    return out


def run_all_checks(
    params: CodeParams,
    plan: RepairPlan,
    node_spaces: Optional[dict[int, Subspace]] = None,
) -> list[CheckResult]:
    """All subspace checks for one code instance and repair plan, each a
    comparison of dimensions from one memo over the node spaces (built
    unless given) and the transfer spaces."""
    W = node_spaces or {i: node_space(i, params) for i in range(1, params.n + 1)}
    dim = _dims({**W, **transfer_spaces(plan, params)})
    return [
        *check_property1(params, dim),
        *check_property2(plan, dim),
        *check_corollary1(params, plan, dim),
        *check_property3(plan, params, dim),
        *lemma1_results(params, plan, dim),
    ]
