import random
from itertools import combinations

import pytest

from conftest import (
    from_columns,
    node_lines,
    parameter_grid,
    prime_for,
    share_from_lines,
    to_columns,
)
from mbcr import codec
from mbcr.codec import (
    Share,
    derive_points,
    encode,
    line_values,
    reconstruct,
    share_point_nodes,
    share_polys,
    shift_node,
    stored_values,
    validate_params,
)
from mbcr.errors import (
    CodecError,
    CorruptShareError,
    FieldMismatchError,
    InconsistentShareError,
    ParameterError,
)
from mbcr.gf import Field
from mbcr.poly import BiPoly, coeff_cells, eval_poly

GF7 = Field.prime(7)


def test_validate_params_fig_example():
    p = validate_params(5, 2, 3, 2, GF7)
    assert p.share_size == 7
    assert p.helper_symbols == 2
    assert p.exchange_symbols == 1
    assert p.block_size == 12
    assert p.repair_bandwidth == 7


def test_validate_params_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    assert p.share_size == 2
    assert p.block_size == 2


def test_validate_params_errors():
    with pytest.raises(ParameterError, match="k = 3 > d = 2"):
        validate_params(4, 3, 2, 2, GF7)
    with pytest.raises(ParameterError, match="exceeds n"):
        validate_params(4, 2, 3, 2, GF7)
    with pytest.raises(ParameterError, match="smaller than n"):
        validate_params(11, 2, 3, 2, GF7)
    with pytest.raises(ParameterError, match="positive"):
        validate_params(5, 0, 3, 2, GF7)


def test_derive_points_canonical():
    p = validate_params(3, 1, 1, 1, GF7)
    assert derive_points(p) == p.points == (1, 2, 3)
    p = validate_params(5, 2, 3, 2, Field.gf256())
    assert derive_points(p) == (1, 2, 3, 4, 5)


def test_derive_points_distinct_even_when_n_equals_field_order():
    p = validate_params(7, 2, 3, 2, GF7)
    assert len(set(derive_points(p))) == 7


def test_shift_node_wraps_into_one_based_range():
    assert shift_node(3, 1, 3) == 1
    assert shift_node(1, 0, 5) == 1
    assert shift_node(5, 3, 5) == 3


def test_encode_toy_example():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    assert [s.evals for s in shares] == [(2, 3), (3, 4), (4, 2)]


def test_encode_zero_data():
    p = validate_params(5, 2, 3, 2, GF7)
    for s in encode((0,) * 12, p):
        assert s.evals == (0,) * 7


def test_encode_length_mismatch():
    p = validate_params(3, 1, 1, 1, GF7)
    with pytest.raises(CodecError):
        encode((1, 1, 1), p)


def test_encode_rejects_a_symbol_outside_the_field():
    p = validate_params(3, 1, 1, 1, GF7)
    with pytest.raises(FieldMismatchError):
        encode((1, 7), p)


def test_first_eval_is_the_diagonal_point():
    p = validate_params(5, 2, 3, 2, GF7)
    for i in range(1, 6):
        assert share_point_nodes(i, p)[0] == (i, i)
        assert len(share_point_nodes(i, p)) == p.share_size


def test_share_polys_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    f, g = share_polys(shares[0], p)
    assert f == (1, 1)  # 1 + Y
    assert g == (2,)  # constant F(x_1, y_1)


def test_share_polys_zero_share():
    p = validate_params(5, 2, 3, 2, GF7)
    f, g = share_polys(Share(node_id=2, evals=(0,) * 7), p)
    assert f == (0,) * 5 and g == (0,) * 3


def test_share_polys_round_trip_reproduces_evals():
    rng = random.Random(8)
    p = validate_params(6, 2, 3, 2, Field.prime(7))
    pts = p.points
    data = tuple(rng.randrange(7) for _ in range(p.block_size))
    for share in encode(data, p):
        f, g = share_polys(share, p)
        expect = [
            eval_poly(GF7, f, pts[shift_node(share.node_id, t, p.n) - 1])
            for t in range(p.d + p.r)
        ]
        expect += [
            eval_poly(GF7, g, pts[shift_node(share.node_id, s, p.n) - 1])
            for s in range(1, p.d)
        ]
        assert tuple(expect) == share.evals
        assert share_from_lines(share.node_id, node_lines(share, p), p) == share


def test_node_lines_are_the_nodes_row_and_column_of_the_grid():
    rng = random.Random(9)
    for n, k, d, r in parameter_grid(5):
        for field in (prime_for(n), Field.gf256()):
            p = validate_params(n, k, d, r, field)
            data = tuple(rng.randrange(field.order) for _ in range(p.block_size))
            F = BiPoly.from_coeffs(data, k, d, r)
            for share in encode(data, p):
                x = y = p.points[share.node_id - 1]
                f_line, g_line = node_lines(share, p)
                assert f_line == tuple(F.eval(field, x, v) for v in p.points)
                assert g_line == tuple(F.eval(field, u, y) for u in p.points)
                # line_values reads or resamples the same values, in any order.
                i, nodes = share.node_id, list(range(1, n + 1))
                rng.shuffle(nodes)
                stored = stored_values(share, p)
                assert line_values(i, stored, [(i, v) for v in nodes], p) == tuple(
                    f_line[v - 1] for v in nodes)
                assert line_values(i, stored, [(u, i) for u in nodes], p) == tuple(
                    g_line[u - 1] for u in nodes)


def test_line_values_refuses_a_point_it_cannot_know():
    # Node i can read or resample F only on its own lines, between nodes 1
    # and n; any other point, unless known, is refused.
    p = validate_params(5, 2, 3, 2, GF7)
    data = (3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2)
    shares = encode(data, p)
    for i, point in ((1, (2, 3)), (3, (3, 0)), (3, (0, 3)), (3, (3, 6)), (3, (6, 3))):
        stored = stored_values(shares[i - 1], p)
        with pytest.raises(CodecError, match=rf"point \({point[0]}, {point[1]}\) .* node {i}'s"):
            line_values(i, stored, [(i, i), point], p)
    # A known point is read as it is.
    assert line_values(1, {**stored_values(shares[0], p), (2, 3): 4}, [(2, 3)], p) == (4,)


def test_encode_matches_the_direct_monomial_sum():
    # Independent of the restrictions: each symbol is sum c * x^i * y^j
    # over the coefficient cells, at the share's layout point.
    rng = random.Random(11)
    for n, k, d, r in parameter_grid(5):
        for field in (prime_for(n), Field.gf256()):
            p = validate_params(n, k, d, r, field)
            pts = p.points
            data = tuple(rng.randrange(field.order) for _ in range(p.block_size))
            for share in encode(data, p):
                for (xn, yn), v in zip(share_point_nodes(share.node_id, p), share.evals):
                    x, y = pts[xn - 1], pts[yn - 1]
                    expect = 0
                    for (i, j), c in zip(coeff_cells(k, d, r), data):
                        term = field.mul(c, field.mul(field.pow(x, i), field.pow(y, j)))
                        expect = field.add(expect, term)
                    assert v == expect


@pytest.mark.parametrize("node_id", [0, 6])
def test_share_polys_rejects_a_node_id_outside_the_code(node_id):
    # points[0 - 1] would silently read node n's point.
    p = validate_params(5, 2, 3, 2, GF7)
    shares = encode(tuple(i % 7 for i in range(1, 13)), p)
    stray = Share(node_id=node_id, evals=shares[4].evals)
    for read in (share_polys, stored_values):
        with pytest.raises(CodecError, match=f"node id {node_id} is outside"):
            read(stray, p)
    for readers in ([stray, shares[1]], [shares[0], shares[1], stray]):
        with pytest.raises(CodecError, match=f"node id {node_id} is outside"):
            reconstruct(readers, p)


def test_share_polys_rejects_wrong_length():
    p = validate_params(5, 2, 3, 2, GF7)
    for read in (share_polys, stored_values):
        with pytest.raises(CorruptShareError):
            read(Share(node_id=1, evals=(0,) * 6), p)


def test_reconstruct_toy_single_share():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    assert reconstruct(shares[:1], p) == (1, 1)


def test_reconstruct_zero_shares():
    p = validate_params(5, 2, 3, 2, GF7)
    zeros = [Share(node_id=i, evals=(0,) * 7) for i in (2, 4)]
    assert reconstruct(zeros, p) == (0,) * 12


def test_reconstruct_input_errors():
    p = validate_params(5, 2, 3, 2, GF7)
    shares = encode(tuple(i % 7 for i in range(1, 13)), p)
    with pytest.raises(CodecError, match="at least k = 2 shares, got 1"):
        reconstruct(shares[:1], p)
    with pytest.raises(CodecError, match="duplicate"):
        reconstruct([shares[0], shares[0]], p)
    with pytest.raises(CodecError, match="duplicate"):
        reconstruct([shares[0], shares[1], shares[2], shares[1]], p)


def test_reconstruct_rejects_a_share_symbol_outside_the_field():
    p = validate_params(5, 2, 3, 2, GF7)
    shares = encode(tuple(i % 7 for i in range(1, 13)), p)
    bad = Share(node_id=1, evals=shares[0].evals[:-1] + (7,))
    for readers in ([bad, shares[2]], [shares[2], shares[3], bad]):
        with pytest.raises(FieldMismatchError):
            reconstruct(readers, p)


def test_reconstruct_detects_corruption():
    p = validate_params(5, 2, 3, 2, GF7)
    shares = encode(tuple(i % 7 for i in range(1, 13)), p)
    bad = Share(node_id=1, evals=shares[0].evals[:-1] + ((shares[0].evals[-1] + 1) % 7,))
    with pytest.raises(CorruptShareError):
        reconstruct([bad, shares[2]], p)


def test_round_trip_random_sampled_grid():
    # 200 random blocks spread over the valid grid with n <= 7.
    rng = random.Random(9)
    grid = list(parameter_grid(7))
    for _ in range(200):
        n, k, d, r = rng.choice(grid)
        field = prime_for(n) if rng.random() < 0.5 else Field.gf256()
        p = validate_params(n, k, d, r, field)
        data = tuple(rng.randrange(field.order) for _ in range(p.block_size))
        shares = encode(data, p)
        subset = rng.sample(shares, k)
        assert reconstruct(subset, p) == data


def test_every_k_subset_reconstructs_small_code():
    rng = random.Random(10)
    p = validate_params(6, 3, 4, 2, prime_for(6))
    data = tuple(rng.randrange(7) for _ in range(p.block_size))
    shares = encode(data, p)
    for subset in combinations(shares, p.k):
        assert reconstruct(list(subset), p) == data


GF256 = Field.gf256()


def test_columns_encode_and_reconstruct_every_stripe_as_scalar_runs_do():
    # One call on columns of S stripes equals S scalar calls, stripe by
    # stripe. Prime-field data is one stripe at a time.
    rng = random.Random(13)
    for n, k, d, r in parameter_grid(5):
        for field, counts in ((prime_for(n), (1,)), (GF256, (1, 2, 7))):
            p = validate_params(n, k, d, r, field)
            for count in counts:
                blocks = [
                    tuple(rng.randrange(field.order) for _ in range(p.block_size))
                    for _ in range(count)
                ]
                shares = encode(to_columns(blocks), p)
                scalar = [encode(block, p) for block in blocks]
                for i, share in enumerate(shares):
                    expect = [stripe[i].evals for stripe in scalar]
                    assert from_columns(share.evals, count) == expect
                subset = rng.sample(shares, k)
                got = reconstruct(subset, p)
                assert from_columns(got, count) == blocks
                extra = [s for s in shares if s not in subset]
                assert reconstruct(subset + extra, p) == got


def _flip(share, position, stripes, delta):
    """The share with delta XORed into symbol position of each given stripe."""
    evals = list(share.evals)
    for s in stripes:
        evals[position] ^= delta << (8 * s)
    return Share(share.node_id, tuple(evals))


def test_corrupt_column_names_the_share_and_its_first_bad_stripe():
    rng = random.Random(14)
    p = validate_params(5, 2, 3, 2, GF256)
    blocks = [tuple(rng.randrange(256) for _ in range(p.block_size)) for _ in range(7)]
    shares = encode(to_columns(blocks), p)
    # Position 6 samples g_1 away from the diagonal. With exactly k shares
    # only some errors can be detected, so first check on one stripe that
    # this one is.
    scalar = encode(blocks[0], p)
    with pytest.raises(CorruptShareError, match="share 1 "):
        reconstruct([_flip(scalar[0], 6, [0], 0x21), scalar[2]], p)
    bad = _flip(shares[0], 6, [3, 5], 0x21)
    with pytest.raises(CorruptShareError, match="share 1 .*first bad stripe: 3"):
        reconstruct([bad, shares[2]], p)
    # A share past the k decoded from is compared in full.
    data = reconstruct(shares[1:3], p)
    assert reconstruct([*shares[1:3], shares[0], *shares[3:]], p) == data
    bad = _flip(shares[3], 0, [6], 0x01)
    match = "share 4 .* decoded from shares 2, 3 .*first bad stripe: 6"
    with pytest.raises(CorruptShareError, match=match):
        reconstruct([*shares[1:3], shares[0], bad], p)


def test_a_prime_field_mismatch_is_in_stripe_0_whatever_its_bits():
    # The stripe index follows the field kind, not the value: GF(65521)
    # elements 0x100 and 0x200 differ only above bit 7, yet a GF(p) symbol
    # is one stripe. (Not reachable end to end: the check compares
    # interpolated coefficients, so one share change spreads over all.)
    with pytest.raises(InconsistentShareError) as info:
        codec._check_consistent(2, (0x100,), (0x200,), Field.prime(65521), (1, 3))
    assert info.value.args == (2, (1, 3), 0)
    # Over GF(256) the same ints are columns that differ in stripe 1.
    with pytest.raises(InconsistentShareError) as info:
        codec._check_consistent(2, (0x100,), (0x200,), GF256, (1, 3))
    assert info.value.args == (2, (1, 3), 1)


@pytest.mark.parametrize(
    "field, count", [(None, 1), (GF256, 1), (GF256, 3)], ids=["GFp", "GF256", "GF256x3"]
)
def test_every_symbol_change_past_k_names_its_share(field, count):
    # Decode from k shares and supply every other one; a change to one
    # symbol (in stripe count - 1 of a column) of one extra share names it.
    rng = random.Random(15)
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, field or prime_for(n))
        blocks = [
            tuple(rng.randrange(p.field.order) for _ in range(p.block_size))
            for _ in range(count)
        ]
        shares = encode(to_columns(blocks), p)
        rng.shuffle(shares)
        for l in range(k, n):
            for position in range(p.share_size):
                evals = list(shares[l].evals)
                delta = rng.randrange(1, p.field.order)
                evals[position] = p.field.add(evals[position], delta << 8 * (count - 1))
                readers = shares[:l] + [Share(shares[l].node_id, tuple(evals))] + shares[l + 1 :]
                match = f"share {shares[l].node_id} .*first bad stripe: {count - 1}"
                with pytest.raises(CorruptShareError, match=match):
                    reconstruct(readers, p)
