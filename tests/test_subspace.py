import random
from itertools import combinations, product

import pytest

from conftest import monomial_row, parameter_grid, prime_for, reference_rank, reference_rref
from mbcr.codec import share_point_nodes, validate_params
from mbcr.errors import MbcrError
from mbcr.gf import Field
from mbcr.repair import make_plan
from mbcr.subspace import (
    Subspace,
    _dims,
    check_property3,
    format_report,
    intersect,
    node_space,
    pair_intersection_dim,
    rank,
    run_all_checks,
    space_sum,
    transfer_spaces,
)

GF5 = Field.prime(5)
GF7 = Field.prime(7)
GF256 = Field.gf256()


def span_vectors(space):
    """Brute-force row-space enumeration oracle (tiny fields only)."""
    field = space.field
    vectors = {(0,) * space.width}
    for coeffs in product(range(field.order), repeat=len(space.rows)):
        vec = [0] * space.width
        for c, row in zip(coeffs, space.rows):
            for t, v in enumerate(row):
                vec[t] = field.add(vec[t], field.mul(c, v))
        vectors.add(tuple(vec))
    return vectors


def same_span(a, b):
    """Span equality by the reference rank: each space contains the other."""
    return reference_rank(a) == reference_rank(b) == reference_rank(space_sum(a, b))


def checks_named(results, prefix):
    """The results of the checks whose name starts with prefix; there must
    be at least one, so that all() over them is not vacuous."""
    picked = [c for c in results if c.name.startswith(prefix)]
    assert picked, prefix
    return picked


def test_rank_simple():
    s = Subspace(GF7, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert rank(s) == 3
    dup = Subspace(GF7, 3, s.rows + ((1, 0, 0),))
    assert rank(dup) == 3


def test_rank_against_span_enumeration():
    rng = random.Random(20)
    for _ in range(15):
        rows = tuple(
            tuple(rng.randrange(5) for _ in range(4)) for _ in range(rng.randrange(1, 4))
        )
        s = Subspace(GF5, 4, rows)
        assert 5 ** rank(s) == len(span_vectors(s))


def test_sum_properties():
    rng = random.Random(21)
    v = Subspace(GF7, 4, ((1, 2, 3, 4), (0, 1, 0, 1)))
    assert rank(space_sum(v, v)) == rank(v)
    assert rank(space_sum(v, Subspace(GF7, 4, ()))) == rank(v)
    for _ in range(20):
        a = Subspace(GF5, 4, tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2)))
        b = Subspace(GF5, 4, tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2)))
        # modular law: dim(A+B) + dim(A cap B) = dim A + dim B
        assert rank(space_sum(a, b)) + rank(intersect(a, b)) == rank(a) + rank(b)


def test_intersect_self_and_oracle():
    rng = random.Random(22)
    v = Subspace(GF7, 4, ((1, 2, 3, 4), (0, 1, 0, 1)))
    assert same_span(intersect(v, v), v)
    for _ in range(15):
        a = Subspace(GF5, 4, tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2)))
        b = Subspace(GF5, 4, tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(3)))
        expect = span_vectors(a) & span_vectors(b)
        got = intersect(a, b)
        assert span_vectors(got) == expect


def test_a_row_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="row length 2 != width 3"):
        Subspace(GF7, 3, ((1, 0, 0), (1, 0)))


def test_space_sum_of_no_spaces_is_refused():
    # Without its own check this is an IndexError.
    with pytest.raises(ValueError, match="at least one subspace"):
        space_sum()


def test_mismatched_widths_rejected():
    a = Subspace(GF7, 3, ((1, 0, 0),))
    b = Subspace(GF7, 2, ((1, 0),))
    with pytest.raises(MbcrError):
        space_sum(a, b)
    with pytest.raises(MbcrError):
        intersect(a, b)


def test_node_space_toy_rows():
    p = validate_params(3, 1, 1, 1, GF7)
    w1 = node_space(1, p)
    # columns: a00, b01; rows for points (x1,y1)=(1,1) and (x1,y2)=(1,2)
    assert w1.rows == ((1, 1), (1, 2))
    assert all(row[0] == 1 for row in w1.rows)


def test_node_space_rank_is_share_size():
    p = validate_params(5, 2, 3, 2, GF7)
    for i in range(1, 6):
        assert rank(node_space(i, p)) == 7


@pytest.mark.parametrize("field", [GF256, None], ids=["GF256", "GFp"])
def test_node_space_rows_are_the_reference_rows(field):
    # The rows come from codec.grid of the unit blocks; the reference
    # builds each from the monomials, without the encoder.
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, field or prime_for(n))
        for i in range(1, n + 1):
            want = tuple(monomial_row(p, *pt) for pt in share_point_nodes(i, p))
            assert node_space(i, p).rows == want, (p, i)


def test_pairwise_intersection_dim():
    p = validate_params(5, 2, 3, 2, GF7)
    w1, w2 = node_space(1, p), node_space(2, p)
    assert rank(intersect(w1, w2)) == 2
    # and it is spanned by exactly the two cross rows
    cross = Subspace(
        GF7, p.block_size, (monomial_row(p, 1, 2), monomial_row(p, 2, 1))
    )
    assert same_span(intersect(w1, w2), cross)


def test_transfer_space_dims_and_property3():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    ts = transfer_spaces(plan, p)
    for (kind, _, _), sp in ts.items():
        assert rank(sp) == {"s": 2, "t": 1}[kind]
    W = {i: node_space(i, p) for i in range(1, 6)}
    for (kind, j, i), sp in ts.items():
        if kind == "s":
            assert same_span(sp, intersect(W[i], W[j]))


def test_property3_needs_the_transfer_space_inside_the_helper():
    # Swap S_{j,i} for a beta-dimensional subspace of W_i that meets W_j
    # only in 0: its dimension and W_i half still hold, so only the W_j
    # half of the containment can fail the (j, i) line.
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    W = {i: node_space(i, p) for i in range(1, 6)}
    real = transfer_spaces(plan, p)
    label = min(x for x in real if x[0] == "s")
    _, j, i = label
    fake = next(
        sp
        for sp in (Subspace(GF7, p.block_size, pair) for pair in combinations(W[i].rows, 2))
        if rank(space_sum(W[j], sp)) == p.share_size + 2
    )
    assert rank(fake) == 2 and rank(space_sum(W[i], fake)) == p.share_size

    def property3(spaces):
        results = check_property3(plan, p, _dims({**W, **spaces}))
        return {c.indices: c.passed for c in results if c.name.endswith("intersection")}

    assert all(property3(real).values())
    faked = property3({**real, label: fake})
    assert not faked.pop(f"j={j},i={i}")
    assert all(faked.values())


def test_pairwise_intersection_dim_k1():
    # k = 1: B = alpha, each node alone spans the block, so any two node
    # spaces intersect in dimension alpha, not beta.
    p = validate_params(4, 1, 2, 2, GF5)
    assert p.share_size == p.block_size == 5
    assert pair_intersection_dim(p) == 5
    W = {i: node_space(i, p) for i in range(1, 5)}
    for i, j in combinations(range(1, 5), 2):
        assert rank(intersect(W[i], W[j])) == p.share_size
    plan = make_plan(p, {1, 2}, seed=0)
    results = run_all_checks(p, plan, W)
    assert all(c.passed for c in checks_named(results, "property1"))


def test_transfer_space_dims_and_property3_k1():
    p = validate_params(4, 1, 2, 2, GF5)
    plan = make_plan(p, {1, 2}, seed=0)
    ts = transfer_spaces(plan, p)
    for (kind, _, _), sp in ts.items():
        assert rank(sp) == {"s": 2, "t": 1}[kind]
    W = {i: node_space(i, p) for i in range(1, 5)}
    for (kind, j, i), sp in ts.items():
        if kind == "s":
            inter = intersect(W[i], W[j])
            # a proper subspace of the intersection, of codimension alpha - beta
            assert rank(space_sum(sp, inter)) == rank(inter) == rank(sp) + 3
    results = run_all_checks(p, plan, W)
    assert all(c.passed for c in checks_named(results, "property3"))


def test_pair_intersection_dim_matches_measured_rank():
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, prime_for(n))
        W = {i: node_space(i, p) for i in range(1, n + 1)}
        expect = 2 if k >= 2 else p.share_size
        assert pair_intersection_dim(p) == expect
        for i, j in combinations(range(1, n + 1), 2):
            assert rank(intersect(W[i], W[j])) == expect, (n, k, d, r, i, j)


def test_check_suite_fig_params():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    results = run_all_checks(p, plan)
    assert all(c.passed for c in results)
    report = format_report(results)
    assert "CHECK property1_node_dim i=1 PASS" in report


def test_check_suite_toy_params():
    p = validate_params(3, 1, 1, 1, GF7)
    plan = make_plan(p, {2}, seed=0)
    results = run_all_checks(p, plan)
    assert all(c.passed for c in results)
    # r = 1: no exchange checks apply
    assert not any(c.name == "property3_exchange_sum" for c in results)


def test_corrupted_generator_fails_some_check():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    W = {i: node_space(i, p) for i in range(1, 6)}
    rows = [list(r) for r in W[1].rows]
    rows[0][0] = GF7.add(rows[0][0], 1)
    W[1] = Subspace(GF7, p.block_size, tuple(map(tuple, rows)))
    results = run_all_checks(p, plan, W)
    assert any(not c.passed for c in results)


def test_corrupted_generator_fails_some_check_k1():
    p = validate_params(4, 1, 2, 2, GF5)
    plan = make_plan(p, {1, 2}, seed=0)
    W = {i: node_space(i, p) for i in range(1, 5)}
    # The entry bump of test_corrupted_generator_fails_some_check keeps
    # W_1 at full rank alpha = B here, so its span, which is all any
    # subspace check sees, does not change.
    rows = [list(r) for r in W[1].rows]
    rows[0][0] = GF5.add(rows[0][0], 1)
    bumped = Subspace(GF5, p.block_size, tuple(map(tuple, rows)))
    assert same_span(bumped, W[1])
    # Collapsing W_1 onto that row, as `mbcr verify --inject-fault` does,
    # is caught by the amended k = 1 checks.
    W[1] = Subspace(GF5, p.block_size, (tuple(rows[0]),) * len(rows))
    failed = {c.name for c in run_all_checks(p, plan, W) if not c.passed}
    assert {
        "property1_node_dim",
        "property1_pair_intersection",
        "property3_helper_eq_intersection",
        "property3_exchange_sum",
    } <= failed


def test_lemma1_examples():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    results = run_all_checks(p, plan)
    lemma1 = {c.indices: c.passed for c in checks_named(results, "lemma1")}
    assert lemma1["I={},J={}"]
    assert lemma1["I={1,2},J={}"]
    # LHS for I = R, J = empty is dim(W1 + W2) = 12 <= 2*(3*2 + 0) = 12
    W = space_sum(node_space(1, p), node_space(2, p))
    assert rank(W) == 12


def test_lemma1_exhaustive_small_grid():
    rng = random.Random(23)
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, prime_for(n))
        failed = set(rng.sample(range(1, n + 1), r))
        plan = make_plan(p, failed, seed=rng.randrange(1000))
        results = run_all_checks(p, plan)
        assert all(c.passed for c in checks_named(results, "lemma1"))


def test_reconstructability_iff_stacked_rank_full():
    # k nodes always give full rank; k-1 never do.
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, prime_for(n))
        W = {i: node_space(i, p) for i in range(1, n + 1)}
        for subset in combinations(range(1, n + 1), k):
            assert rank(space_sum(*[W[i] for i in subset])) == p.block_size
        if k > 1:
            for subset in combinations(range(1, n + 1), k - 1):
                assert rank(space_sum(*[W[i] for i in subset])) < p.block_size


def test_property_checks_individual_entry_points():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {3, 4}, seed=5)
    results = run_all_checks(p, plan)
    assert all(c.passed for c in checks_named(results, "property1"))
    assert all(c.passed for c in checks_named(results, "property2"))
    assert all(c.passed for c in checks_named(results, "corollary1"))
    assert all(c.passed for c in checks_named(results, "property3"))


# The echelon-basis kernel against the Gauss-Jordan reference
# (conftest.reference_echelon) on seeded random stacks.

ORACLE_FIELDS = [Field.prime(5), Field.prime(11), Field.prime(65521), Field.gf256()]


def random_combination(rng, space):
    """A random vector of the span of space's rows."""
    field = space.field
    row = [0] * space.width
    for g in space.rows:
        c = rng.randrange(field.order)
        row = [field.add(a, field.mul(c, b)) for a, b in zip(row, g)]
    return tuple(row)


def random_stack(rng, field, nrows, width, max_rank):
    """nrows rows in a random space of dimension at most max_rank, with a
    zero row and a duplicate row mixed in when there is room."""
    gens = Subspace(
        field,
        width,
        tuple(
            tuple(rng.randrange(field.order) for _ in range(width))
            for _ in range(max_rank)
        ),
    )
    rows = [random_combination(rng, gens) for _ in range(nrows)]
    if nrows >= 3:
        rows[rng.randrange(nrows)] = (0,) * width
        rows[rng.randrange(nrows)] = rows[rng.randrange(nrows)]
    return Subspace(field, width, tuple(rows))


def oracle_spaces(seed):
    """(a, b) pairs of every shape the kernel must handle: wide and tall
    stacks, rank-deficient and full ones, width 1 and the empty space."""
    rng = random.Random(seed)
    for field in ORACLE_FIELDS:
        for width in (1, 2, 5, 9):
            for _ in range(6):
                shapes = []
                for _ in range(2):
                    nrows = rng.choice([0, 1, 2, width, width + 3, 2 * width + 1])
                    max_rank = rng.randrange(0, min(nrows, width) + 1)
                    shapes.append(random_stack(rng, field, nrows, width, max_rank))
                yield tuple(shapes)


def test_rank_and_span_match_the_reference():
    for a, b in oracle_spaces(31):
        for space in (a, b, space_sum(a, b)):
            rref = Subspace(space.field, space.width, reference_rref(space))
            assert rank(space) == len(rref.rows) == rank(space_sum(space, rref))


def test_intersect_matches_the_reference_as_a_span():
    for a, b in oracle_spaces(32):
        got = intersect(a, b)
        ra, rb = reference_rank(a), reference_rank(b)
        # The span of got lies in a and in b and has the modular-law
        # dimension, so it is the intersection; its rows are a basis.
        assert reference_rank(got) == ra + rb - reference_rank(space_sum(a, b))
        assert reference_rank(space_sum(a, got)) == ra
        assert reference_rank(space_sum(b, got)) == rb
        assert len(got.rows) == reference_rank(got)


def test_containment_and_direct_sums_match_the_reference():
    # The checks decide containment, direct sums and span equality by
    # comparing dimensions from the memo: X lies in Y iff dim(Y + X) =
    # dim Y, and X + Y is direct iff dim(X + Y) = dim X + dim Y.
    rng = random.Random(33)
    for a, b in oracle_spaces(34):
        # Also a space inside b, from random combinations of b's rows.
        combos = tuple(random_combination(rng, b) for _ in range(rng.randrange(3)))
        spaces = {"a": a, "b": b, "part": Subspace(b.field, b.width, combos)}
        dim = _dims(spaces)
        for x, y in (("a", "b"), ("b", "a"), ("part", "b"), ("b", "b")):
            X, Y = spaces[x], spaces[y]
            rx, ry, rsum = map(reference_rank, (X, Y, space_sum(X, Y)))
            got = dim((x,)), dim((y,)), dim((x, y)), dim((y, x))
            assert got == (rx, ry, rsum, rsum)
            assert (dim((y, x)) == dim((y,))) == (rsum == ry)
            assert (dim((x, y)) == dim((x,)) + dim((y,))) == (rsum == rx + ry)
            equal = dim((x,)) == dim((y,)) == dim((x, y)) == dim((y, x))
            assert equal == (rsum == rx == ry)


@pytest.mark.parametrize("field", [GF7, Field.gf256()], ids=["GF7", "GF256"])
def test_node_sum_ranks_match_the_rank_of_every_sum(field):
    p = validate_params(5, 2, 3, 2, field)
    rng = random.Random(35)
    plan = make_plan(p, {1, 2}, seed=0)
    W = {i: node_space(i, p) for i in range(1, 6)}
    # Node and transfer spaces of the code, and random ones of mixed rank
    # under the same labels, so both the shared full bases and the partial
    # ones that get extended are met.
    code = {**W, **transfer_spaces(plan, p)}
    spaces = {
        "code": code,
        "random": {
            label: random_stack(rng, field, rng.randrange(1, 8), p.block_size, 5)
            for label in code
        },
    }
    for W in spaces.values():
        dim = _dims(W)
        # No labels: the zero space.
        assert dim(()) == 0
        subsets = [
            nodes for size in range(1, 6) for nodes in combinations(range(1, 6), size)
        ]
        # Sums that mix node and transfer labels, in the order drawn.
        subsets += [tuple(rng.sample(list(W), rng.randrange(1, 6))) for _ in range(150)]
        # Ask in a shuffled order, with the labels listed backwards, so the
        # memo is entered from every prefix.
        rng.shuffle(subsets)
        for labels in subsets:
            expect = rank(space_sum(*[W[x] for x in labels]))
            assert expect == reference_rank(space_sum(*[W[x] for x in labels]))
            assert dim(labels[::-1]) == expect, labels
        # Every sum was built on the memoized zero space, which stays zero.
        assert dim(()) == 0


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(65521)], ids=["GF2", "GF65521"])
@pytest.mark.parametrize("width", [27, 60])
def test_dense_tall_stacks_do_not_overflow_a_slot(field, width):
    """A packed GF(p) row gains up to (q-1)^2 per slot in each row
    operation before its next % q pass, so its slot is sized for width
    operations. Dense stacks twice as tall as wide make rows meet nearly
    every pivot, at q = 2 and at the largest prime Field accepts; the
    rank-deficient one leaves a free column, so a wrong entry shows in
    the span of its intersection with the full one and a dependent row
    that fails to reduce to zero shows in its rank."""
    rng = random.Random(width)
    # Independent generators: row t starts with a 1 at column t.
    gens = [
        (0,) * t + (1,) + tuple(rng.randrange(field.order) for _ in range(width - t - 1))
        for t in range(width)
    ]

    def stack(generators):
        span = Subspace(field, width, tuple(generators))
        rows = tuple(random_combination(rng, span) for _ in range(2 * width))
        return Subspace(field, width, rows)

    # short lacks the generator of the last column, which stays free.
    full, short = stack(gens), stack(gens[:-1])
    for space in (full, short):
        rref = Subspace(field, width, reference_rref(space))
        assert rank(space) == len(rref.rows) == rank(space_sum(space, rref))
    assert reference_rank(full) == width
    assert reference_rank(short) == width - 1
    assert same_span(intersect(short, full), short)
    # short lies in full with codimension 1.
    dim = _dims({"full": full, "short": short})
    assert dim(("full", "short")) == dim(("full",)) == dim(("short",)) + 1
