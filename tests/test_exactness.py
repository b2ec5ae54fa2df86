"""Exactness on every data block, proved on a basis.

Encode, reconstruct and repair are linear in the data: only poly adds
data and scales it by constants, and each form of poly._apply is linear.
So each procedure is exact on all q^B blocks once it is exact on the B
unit blocks. Over GF(256) one call covers the whole basis: data symbol b
is the one-hot column 1 << 8*b, which holds unit block b in stripe b.
Such wide columns run mostly per element, so the unit blocks also run one
stripe per call, where _apply packs every map with more than 1 output.
GF(p) has no column form: its unit blocks run one per call. The oracle
for encode is the monomial sum itself (conftest.monomial_row): with unit
block b at data cell (i, j), F(x, y) = x^i y^j. Repair runs on seed-0
plans, and on one-hot columns under every helper map at n <= 6.
"""

from itertools import combinations, product

import pytest

from conftest import monomial_row, parameter_grid, prime_for, to_columns
from mbcr.codec import encode, reconstruct, share_point_nodes, validate_params
from mbcr.gf import Field
from mbcr.repair import make_plan, run_repair

GF256 = Field.gf256()


def share_rows(p):
    """The reference rows of every share, one per stored point: entry b of
    a row is that symbol on unit block b."""
    return [
        [monomial_row(p, *pt) for pt in share_point_nodes(i, p)]
        for i in range(1, p.n + 1)
    ]


def assert_repairs_every_failed_set(shares, p):
    # With a seed-0 plan each.
    for failed in combinations(range(1, p.n + 1), p.r):
        survivors = [s for s in shares if s.node_id not in failed]
        regenerated, _ = run_repair(survivors, make_plan(p, failed, seed=0), p)
        assert all(regenerated[i] == shares[i - 1] for i in failed), (p, failed)


def test_one_hot_columns_encode_reconstruct_and_repair_exactly():
    # On the n <= 7 grid, one call each: encode against the oracle,
    # reconstruct from every k-subset, repair every failed set.
    for n, k, d, r in parameter_grid(7):
        p = validate_params(n, k, d, r, GF256)
        basis = tuple(1 << 8 * b for b in range(p.block_size))
        shares = encode(basis, p)
        assert [s.evals for s in shares] == [to_columns(zip(*rows)) for rows in share_rows(p)]
        for subset in combinations(shares, k):
            assert reconstruct(list(subset), p) == basis, (p, subset)
        assert_repairs_every_failed_set(shares, p)


@pytest.mark.parametrize("field", [GF256, None], ids=["GF256", "GFp"])
def test_unit_blocks_one_stripe_per_call_encode_reconstruct_and_repair_exactly(field):
    # On the n <= 5 grid, every unit block on its own: over GF(256) one
    # stripe per call, so the maps run packed; GF(p) has no column form.
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, field or prime_for(n))
        rows = share_rows(p)
        for b in range(p.block_size):
            unit = tuple(int(c == b) for c in range(p.block_size))
            shares = encode(unit, p)
            assert [s.evals for s in shares] == [
                tuple(row[b] for row in share) for share in rows
            ], (p, b)
            for subset in combinations(shares, k):
                assert reconstruct(list(subset), p) == unit, (p, b, subset)
            assert_repairs_every_failed_set(shares, p)


def test_one_hot_columns_repair_exactly_under_every_helper_map():
    # On the n <= 6 grid, every failed set, each newcomer's d helpers drawn
    # independently from the survivors: 5,206 plans. run_repair keys what a
    # newcomer receives by point, so helper order cannot change the result.
    repairs = 0
    for n, k, d, r in parameter_grid(6):
        p = validate_params(n, k, d, r, GF256)
        shares = encode(tuple(1 << 8 * b for b in range(p.block_size)), p)
        for failed in combinations(range(1, n + 1), r):
            survivors = [s for s in shares if s.node_id not in failed]
            choices = list(combinations([s.node_id for s in survivors], d))
            for helper_sets in product(choices, repeat=r):
                plan = make_plan(p, failed, helpers=dict(zip(failed, helper_sets)))
                regenerated, _ = run_repair(survivors, plan, p)
                assert all(regenerated[i] == shares[i - 1] for i in failed), (p, plan)
                repairs += 1
    assert repairs == 5206
