import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import cutset_rhs, enumerate_compositions, parameter_grid
from mbcr.bounds import TradeoffPoint, composition_count, max_file_size, mbcr_point, mscr_point


def brute_force_compositions(k, r):
    """Enumeration oracle: filter all part sequences by length."""
    out = set()
    for s in range(1, k + 1):
        for parts in product(range(1, r + 1), repeat=s):
            if sum(parts) == k:
                out.add(parts)
    return out


def test_compositions_examples():
    assert list(enumerate_compositions(2, 2)) == [(2,), (1, 1)]
    assert list(enumerate_compositions(1, 5)) == [(1,)]
    assert list(enumerate_compositions(4, 2)) == [
        (2, 2),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (1, 1, 1, 1),
    ]


def test_compositions_against_brute_force():
    for k in range(1, 7):
        for r in range(1, 5):
            got = list(enumerate_compositions(k, r))
            assert len(got) == len(set(got))
            assert set(got) == brute_force_compositions(k, r)


def test_compositions_invalid_input():
    with pytest.raises(ValueError):
        list(enumerate_compositions(0, 2))


def test_cutset_rhs_fig_example():
    pt = mbcr_point(2, 3, 2, 12)
    assert cutset_rhs(2, 3, 2, pt, (2,)) == 12
    assert cutset_rhs(2, 3, 2, pt, (1, 1)) == 12


def test_cutset_rhs_k1_is_gamma():
    pt = mbcr_point(1, 3, 2, 7)
    assert cutset_rhs(1, 3, 2, pt, (1,)) == pt.node_storage


def test_cutset_rhs_rejects_bad_composition():
    pt = mbcr_point(2, 3, 2, 12)
    with pytest.raises(ValueError):
        cutset_rhs(2, 3, 2, pt, (3,))


def test_max_file_size_fig_example():
    pt = mbcr_point(2, 3, 2, 12)
    assert max_file_size(2, 3, 2, pt) == 12


@pytest.mark.parametrize("k, r", [(0, 2), (2, 0)])
def test_max_file_size_refuses_a_non_positive_k_or_r(k, r):
    # With r = 0 the recurrence would fail in min() on no parts; with k = 0
    # it would return 0.
    pt = mbcr_point(2, 3, 2, 12)
    with pytest.raises(ValueError, match="k and r must be positive"):
        max_file_size(k, 3, r, pt)


def test_mbcr_point_values():
    pt = mbcr_point(2, 3, 2, 12)
    assert pt.phase2_per_peer == 1
    assert pt.phase1_per_helper == 2
    assert pt.node_storage == 7
    assert pt.repair_bandwidth(3, 2) == 7 == pt.node_storage


def test_mscr_point_values():
    pt = mscr_point(2, 3, 2, 12)
    assert pt.node_storage == 6
    assert pt.phase1_per_helper == pt.phase2_per_peer == 2


def test_points_scale_linearly():
    a, b = mbcr_point(2, 3, 2, 12), mbcr_point(2, 3, 2, 24)
    assert b.node_storage == 2 * a.node_storage
    assert b.phase2_per_peer == 2 * a.phase2_per_peer
    a, b = mscr_point(2, 3, 2, 12), mscr_point(2, 3, 2, 24)
    assert b.node_storage == 2 * a.node_storage


def test_mscr_point_can_be_non_integral():
    pt = mscr_point(3, 4, 2, 10)
    assert pt.phase1_per_helper == Fraction(10, 9)


def test_bound_met_with_equality_across_grid():
    for n, k, d, r in parameter_grid(8):
        B = k * (2 * d + r - k)
        pt = mbcr_point(k, d, r, B)
        assert max_file_size(k, d, r, pt) == B, (n, k, d, r)
        # and no composition falls below B
        for c in enumerate_compositions(k, r):
            assert cutset_rhs(k, d, r, pt, c) >= B


def test_tradeoff_point_is_exact_rational():
    pt = mbcr_point(2, 3, 2, 5)
    assert isinstance(pt.phase2_per_peer, Fraction)
    assert pt.phase2_per_peer == Fraction(5, 12)


def test_max_file_size_matches_the_enumeration_on_the_grid():
    # The recurrence against the reference: min of cutset_rhs over every
    # composition, at both operating points and at seeded random points.
    rng = random.Random(17)

    def random_point():
        a, b1, b2 = (Fraction(rng.randrange(1, 40), rng.randrange(1, 6)) for _ in range(3))
        return TradeoffPoint(a, b1, b2)

    for n, k, d, r in parameter_grid(8):
        comps = list(enumerate_compositions(k, r))
        assert composition_count(k, r) == len(comps)
        B = k * (2 * d + r - k)
        points = [mbcr_point(k, d, r, B), mscr_point(k, d, r, B)]
        points += [random_point() for _ in range(3)]
        for pt in points:
            want = min(cutset_rhs(k, d, r, pt, c) for c in comps)
            assert max_file_size(k, d, r, pt) == want, (n, k, d, r, pt)


def test_bound_command_at_k20_is_fast(capsys):
    # 2^19 compositions: enumerating them took minutes.
    from mbcr.cli import main

    start = time.perf_counter()
    assert main(["bound", "-n", "42", "-k", "20", "-d", "20", "-r", "20"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "file size B = 800, 524288 compositions" in out
    assert "bound met with equality: True" in out
