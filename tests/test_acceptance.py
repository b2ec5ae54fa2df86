"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The grid criteria take
a few minutes; everything is exact (no tolerances anywhere).
"""

import random
from contextlib import contextmanager
from itertools import combinations

from conftest import parameter_grid, prime_for
from mbcr import bounds
from mbcr.cli import main
from mbcr.codec import encode, reconstruct, validate_params
from mbcr.gf import Field
from mbcr.repair import find_forwarding_witness, make_plan, run_repair
from mbcr.subspace import node_space, rank, run_all_checks, space_sum


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {desc}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {desc}: PASS")


def fields_for(n):
    return (Field.gf256(), prime_for(n))


def test_criterion_1_parameter_identity():
    with criterion(1, "MBCR parameter identity (grid n<=8)"):
        for n, k, d, r in parameter_grid(8):
            p = validate_params(n, k, d, r, Field.gf256())
            assert p.share_size == p.repair_bandwidth == 2 * d + r - 1
            assert p.helper_symbols == 2 * p.exchange_symbols == 2
            assert p.block_size == k * (2 * d + r - k)


def test_criterion_2_reconstruction_exactness():
    with criterion(2, "reconstruction from every k-subset (grid n<=7)"):
        rng = random.Random(100)
        for n, k, d, r in parameter_grid(7):
            for field in fields_for(n):
                p = validate_params(n, k, d, r, field)
                subsets = list(combinations(range(n), k))
                for _ in range(50):
                    data = tuple(
                        rng.randrange(field.order) for _ in range(p.block_size)
                    )
                    shares = encode(data, p)
                    for sub in subsets:
                        got = reconstruct([shares[i] for i in sub], p)
                        assert got == data, (n, k, d, r, field, sub)


def test_criterion_3_repair_exactness_and_bandwidth():
    with criterion(3, "exact repair at exact bandwidth (grid n<=7)"):
        rng = random.Random(101)
        for n, k, d, r in parameter_grid(7):
            for field in fields_for(n):
                p = validate_params(n, k, d, r, field)
                data = tuple(rng.randrange(field.order) for _ in range(p.block_size))
                shares = encode(data, p)
                for failed in combinations(range(1, n + 1), r):
                    survivors = [s for s in shares if s.node_id not in failed]
                    for seed in range(5):
                        plan = make_plan(p, failed, seed=seed)
                        regen, ledger = run_repair(survivors, plan, p)
                        for i in failed:
                            assert regen[i] == shares[i - 1], (n, k, d, r, failed)
                            assert ledger.total_for(i) == 2 * d + (r - 1)
                        assert ledger.total == r * p.repair_bandwidth


def test_criterion_4_cutset_bound_equality():
    with criterion(4, "cut-set bound met with equality (grid n<=8)"):
        for n, k, d, r in parameter_grid(8):
            B = k * (2 * d + r - k)
            pt = bounds.mbcr_point(n, k, d, r, B)
            assert bounds.max_file_size(n, k, d, r, pt) == B, (n, k, d, r)


def test_criterion_5_subspace_property_suite():
    with criterion(5, "subspace properties and dimension lemma (grid n<=6)"):
        rng = random.Random(102)
        for n, k, d, r in parameter_grid(6):
            p = validate_params(n, k, d, r, prime_for(n))
            for _ in range(3):
                failed = rng.sample(range(1, n + 1), r)
                plan = make_plan(p, failed, seed=rng.randrange(10**6))
                results = run_all_checks(p, plan)
                bad = [c for c in results if not c.passed]
                assert not bad, (n, k, d, r, bad[:3])


def test_criterion_6_repair_by_transfer_witness():
    with criterion(6, "helper-must-compute witness wherever n > d (grid n<=7)"):
        for n, k, d, r in parameter_grid(7):
            if n <= d:
                continue
            p = validate_params(n, k, d, r, prime_for(n))
            witness = find_forwarding_witness(p)
            assert witness is not None, (n, k, d, r)
            from mbcr.codec import share_point_nodes

            assert witness.point_nodes not in set(
                share_point_nodes(witness.helper, p)
            )
            assert witness.helper in witness.plan.helpers[witness.newcomer]


def test_criterion_7_multi_stage_stability():
    with criterion(7, "20-stage fail-repair stability on (5,2,3,2)"):
        p = validate_params(5, 2, 3, 2, Field.gf256())
        rng = random.Random(103)
        data = tuple(rng.randrange(256) for _ in range(p.block_size))
        baseline = {s.node_id: s for s in encode(data, p)}
        current = dict(baseline)
        cumulative = 0
        for _ in range(20):
            failed = rng.sample(range(1, 6), 2)
            plan = make_plan(p, failed, seed=rng.randrange(10**6))
            survivors = [current[i] for i in current if i not in plan.failed]
            regen, ledger = run_repair(survivors, plan, p)
            cumulative += ledger.total
            current.update(regen)
        assert current == baseline
        subset = rng.sample(sorted(current), p.k)
        assert reconstruct([current[i] for i in subset], p) == data
        assert cumulative == 20 * 2 * p.repair_bandwidth


def test_criterion_8_underdetermination():
    with criterion(8, "k-1 nodes never reach full rank (grid n<=6)"):
        for n, k, d, r in parameter_grid(6):
            if k == 1:
                continue  # zero nodes trivially have rank 0 < B
            p = validate_params(n, k, d, r, prime_for(n))
            W = [node_space(i, p) for i in range(1, n + 1)]
            for subset in combinations(W, k - 1):
                assert rank(space_sum(*subset)) < p.block_size, (n, k, d, r)


def test_criterion_9_file_round_trip(tmp_path):
    with criterion(9, "file encode/delete/reconstruct round-trip"):
        n, k, d, r = 5, 2, 3, 2
        block = k * (2 * d + r - k)
        rng = random.Random(104)
        for length in (0, 1, block - 1, block, block + 1, 10 * block):
            work = tmp_path / f"len{length}"
            work.mkdir()
            data = bytes(rng.randrange(256) for _ in range(length))
            src = work / "input.bin"
            src.write_bytes(data)
            out = work / "shares"
            assert main(
                ["encode", "-n", str(n), "-k", str(k), "-d", str(d), "-r", str(r),
                 str(src), "--out", str(out)]
            ) == 0
            # delete any n-k share files, keep a random k-subset
            keep = rng.sample(range(1, n + 1), k)
            for i in range(1, n + 1):
                if i not in keep:
                    (out / f"share_{i:03d}.mbcr").unlink()
            dest = work / "rec.bin"
            assert main(
                ["reconstruct", *[str(out / f"share_{i:03d}.mbcr") for i in keep],
                 "--out", str(dest)]
            ) == 0
            assert dest.read_bytes() == data
