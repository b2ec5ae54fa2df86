import random
from itertools import combinations

import pytest

from conftest import (
    from_columns,
    monomial_row,
    node_lines,
    parameter_grid,
    prime_for,
    to_columns,
    value_at,
)
from mbcr import codec, poly, repair
from mbcr.codec import Share, encode, share_point_nodes, validate_params
from mbcr.errors import FieldMismatchError, ProtocolError
from mbcr.gf import Field
from mbcr.poly import BiPoly, resample
from mbcr.repair import (
    find_forwarding_witness,
    make_plan,
    phase1_assemble,
    phase1_points,
    phase2_point,
    phase2_send,
    regenerate,
    run_repair,
)
from mbcr.subspace import transfer_spaces

GF7 = Field.prime(7)


def make_code(n, k, d, r, field=None, seed=0):
    p = validate_params(n, k, d, r, field or prime_for(n))
    rng = random.Random(seed)
    data = tuple(rng.randrange(p.field.order) for _ in range(p.block_size))
    return p, data, encode(data, p)


def test_make_plan_forced_helpers():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    assert plan.failed == (1, 2)
    for i in (1, 2):
        assert sorted(plan.helpers[i]) == [3, 4, 5]


def test_make_plan_explicit_heterogeneous():
    p = validate_params(7, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, helpers={1: (3, 4, 5), 2: (4, 5, 6)})
    assert plan.helpers[1] == (3, 4, 5)
    assert plan.helpers[2] == (4, 5, 6)


def test_make_plan_is_seed_deterministic():
    p = validate_params(7, 2, 3, 2, GF7)
    assert make_plan(p, {1, 2}, seed=42) == make_plan(p, {1, 2}, seed=42)
    # Given every node as a survivor, the draw is the default one.
    assert make_plan(p, {1, 2}, seed=42, survivors=range(1, 8)) == make_plan(
        p, {1, 2}, seed=42
    )


# make_plan(p, failed, seed=s) draws one rng.sample of d survivors per
# newcomer, in failed-id order, from every node that did not fail or from
# the survivors given (the CLI's supplied shares). The benchmark's share
# digests and the golden verify reports rest on these draws.
DRAWN_PLANS = [
    ((5, 2, 3, 2), (2, 5), 0, None, [(2, (3, 4, 1)), (5, (3, 4, 1))]),
    ((5, 2, 3, 2), (2, 5), 1, None, [(2, (1, 4, 3)), (5, (1, 3, 4))]),
    ((5, 2, 3, 2), (2, 5), 7919, None, [(2, (4, 3, 1)), (5, (3, 4, 1))]),
    ((10, 4, 6, 3), (7, 1, 4), 0, None,
     [(1, (10, 6, 9, 2, 3, 5)), (4, (6, 5, 10, 9, 8, 2)), (7, (8, 3, 5, 9, 2, 6))]),
    ((10, 4, 6, 3), (7, 1, 4), 1, None,
     [(1, (3, 8, 2, 5, 9, 10)), (4, (10, 6, 9, 8, 2, 5)), (7, (6, 2, 10, 8, 5, 9))]),
    ((10, 4, 6, 3), (7, 1, 4), 7919, None,
     [(1, (9, 6, 3, 5, 8, 10)), (4, (2, 10, 5, 6, 8, 9)), (7, (10, 8, 2, 6, 3, 9))]),
    ((14, 10, 10, 4), (3, 14, 9, 8), 0, None,
     [(3, (10, 13, 1, 4, 6, 5, 7, 2, 12, 11)), (8, (13, 5, 4, 11, 2, 1, 10, 12, 6, 7)),
      (9, (2, 13, 7, 5, 6, 1, 4, 12, 10, 11)), (14, (12, 11, 13, 10, 6, 4, 1, 7, 5, 2))]),
    ((14, 10, 10, 4), (3, 14, 9, 8), 1, None,
     [(3, (4, 2, 6, 1, 5, 7, 11, 13, 12, 10)), (8, (2, 11, 1, 10, 5, 7, 12, 4, 13, 6)),
      (9, (5, 2, 7, 1, 10, 11, 6, 12, 13, 4)), (14, (1, 12, 5, 10, 11, 7, 2, 6, 13, 4))]),
    ((14, 10, 10, 4), (3, 14, 9, 8), 7919, None,
     [(3, (11, 4, 7, 5, 10, 1, 6, 2, 12, 13)), (8, (12, 2, 10, 11, 4, 6, 1, 13, 5, 7)),
      (9, (12, 1, 7, 10, 13, 4, 2, 11, 5, 6)), (14, (11, 4, 2, 7, 5, 10, 13, 12, 1, 6))]),
    ((10, 4, 6, 3), (1, 2, 3), 2, range(4, 10),
     [(1, (4, 9, 8, 5, 7, 6)), (2, (6, 8, 5, 9, 4, 7)), (3, (7, 9, 6, 8, 5, 4))]),
]


@pytest.mark.parametrize("code, failed, seed, survivors, helpers", DRAWN_PLANS)
def test_make_plan_draws_are_pinned(code, failed, seed, survivors, helpers):
    p = validate_params(*code, Field.gf256())
    plan = make_plan(p, failed, seed=seed, survivors=survivors)
    assert list(plan.helpers.items()) == helpers



def test_make_plan_errors():
    p = validate_params(5, 2, 3, 2, GF7)
    with pytest.raises(ProtocolError, match="exactly r"):
        make_plan(p, {1}, seed=0)
    with pytest.raises(ProtocolError, match="failed id 1 is named more than once"):
        make_plan(p, [1, 1, 2], seed=0)
    with pytest.raises(ProtocolError, match="survivors"):
        make_plan(p, {1, 2}, helpers={1: (2, 3, 4), 2: (3, 4, 5)})
    with pytest.raises(ProtocolError, match="distinct helpers"):
        make_plan(p, {1, 2}, helpers={1: (3, 3, 4), 2: (3, 4, 5)})
    with pytest.raises(ProtocolError, match="need d = 3 survivors"):
        make_plan(p, {1, 2}, seed=0, survivors=(1, 3, 4))
    # A given map meets the same survivor count as a drawn one.
    with pytest.raises(ProtocolError, match="need d = 3 survivors"):
        make_plan(p, {1, 2}, helpers={1: (3, 4, 5), 2: (3, 4, 5)}, survivors=(3, 4))


def phase1_values(share, newcomer, p):
    """The values helper share.node_id sends newcomer in phase 1, as a
    point -> value map."""
    j = share.node_id
    lines = node_lines(share, p)
    return {pt: value_at(j, lines, pt) for pt in phase1_points(j, newcomer)}


def test_phase1_send_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    sent = phase1_values(shares[1], 1, p)
    assert list(sent.values()) == [2, 3]  # (F(2,1), F(1,2)) with F = 1 + Y


def test_phase1_send_zero_codeword():
    p, _, _ = make_code(5, 2, 3, 2, GF7)
    zero = encode((0,) * p.block_size, p)
    assert list(phase1_values(zero[2], 1, p).values()) == [0, 0]


def test_phase1_payload_matches_ground_truth():
    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=2)
    F = BiPoly.from_coeffs(data, p.k, p.d, p.r)
    point = lambda i: p.points[i - 1]
    for helper in (3, 4, 5):
        for newcomer in (1, 2):
            first, second = phase1_values(shares[helper - 1], newcomer, p).values()
            assert first == F.eval(GF7, point(helper), point(newcomer))
            assert second == F.eval(GF7, point(newcomer), point(helper))


def test_phase1_assemble_recovers_g():
    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=3)
    F = BiPoly.from_coeffs(data, p.k, p.d, p.r)
    received = {}
    for j in (3, 4, 5):
        received.update(phase1_values(shares[j - 1], 1, p))
    # g_1 at every x-point, received or resampled, in any order.
    points = [(u, 1) for u in (4, 1, 2, 5, 3)]
    g_values = phase1_assemble(1, received, points, p)
    assert g_values == {(u, 1): F.eval(GF7, p.points[u - 1], p.points[0]) for u in range(1, 6)}


def test_phase2_payload_is_cross_evaluation():
    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=5)
    F = BiPoly.from_coeffs(data, p.k, p.d, p.r)
    received = {}
    for j in (3, 4, 5):
        received.update(phase1_values(shares[j - 1], 2, p))
    g_values = phase1_assemble(2, received, [phase2_point(2, 1)], p)
    assert phase2_send(2, g_values, 1) == F.eval(GF7, p.points[0], p.points[1])


def test_regenerate_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    received = phase1_values(shares[1], 1, p)
    # d = 1: g_1 is stored at (1, 1) only.
    g_values = phase1_assemble(1, received, [(1, 1)], p)
    # r = 1: no phase-2 values at all.
    assert regenerate(1, g_values, received, p) == shares[0]


def test_one_set_of_points_drives_repair_and_verify(monkeypatch):
    # Every value run_repair transmits is F at phase1_points or
    # phase2_point, and the rows of transfer_spaces are the reference
    # rows (conftest.monomial_row) at exactly those points.
    rng = random.Random(16)
    received = {}

    def spy(newcomer, g, values, params):
        received[newcomer] = dict(values)
        return regenerate(newcomer, g, values, params)

    monkeypatch.setattr(repair, "regenerate", spy)
    for n, k, d, r in parameter_grid(5):
        p, data, shares = make_code(n, k, d, r, seed=rng.randrange(1000))
        F = BiPoly.from_coeffs(data, k, d, r)
        failed = set(rng.sample(range(1, n + 1), r))
        plan = make_plan(p, failed, seed=rng.randrange(1000))
        received.clear()
        regen, ledger = run_repair(
            [s for s in shares if s.node_id not in failed], plan, p
        )
        ts = transfer_spaces(plan, p)
        for i in failed:
            assert regen[i] == shares[i - 1]
            phase1 = {(j, i): phase1_points(j, i) for j in plan.helpers[i]}
            phase2 = {(j, i): (phase2_point(j, i),) for j in failed if j != i}
            sent = [pt for pts in (*phase1.values(), *phase2.values()) for pt in pts]
            assert sorted(received[i]) == sorted(sent)
            for (xn, yn), v in received[i].items():
                assert v == F.eval(p.field, p.points[xn - 1], p.points[yn - 1])
            assert ledger.phase1[i] == 2 * d and ledger.phase2[i] == r - 1
            for kind, points in (("s", phase1), ("t", phase2)):
                for (j, i2), pts in points.items():
                    rows = tuple(monomial_row(p, *pt) for pt in pts)
                    assert ts[kind, j, i2].rows == rows
        s = {("s", j, i) for i in failed for j in plan.helpers[i]}
        t = {("t", j, i) for i in failed for j in failed if j != i}
        assert set(ts) == s | t


def test_run_repair_fig_example():
    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=6)
    plan = make_plan(p, {1, 2}, seed=0)
    regen, ledger = run_repair(shares[2:], plan, p)
    assert regen[1] == shares[0]
    assert regen[2] == shares[1]
    for i in (1, 2):
        assert ledger.phase1[i] == 6
        assert ledger.phase2[i] == 1
        assert ledger.total_for(i) == 7 == p.repair_bandwidth
    assert ledger.total == 14


def test_run_repair_r1_has_no_phase2():
    p, data, shares = make_code(4, 2, 2, 1, GF7, seed=7)
    plan = make_plan(p, {3}, seed=1)
    regen, ledger = run_repair([s for s in shares if s.node_id != 3], plan, p)
    assert regen[3] == shares[2]
    assert sum(ledger.phase2.values()) == 0
    assert ledger.total == p.repair_bandwidth


def test_run_repair_missing_survivor():
    p, _, shares = make_code(5, 2, 3, 2, GF7, seed=8)
    plan = make_plan(p, {1, 2}, seed=0)
    with pytest.raises(ProtocolError, match="missing"):
        run_repair(shares[3:], plan, p)


def test_run_repair_rejects_a_repeated_survivor_id():
    # Keeping either copy would be a silent choice, and a corrupt copy
    # kept would regenerate wrong shares with no error.
    p, _, shares = make_code(5, 2, 3, 2, Field.gf256(), seed=8)
    plan = make_plan(p, {1, 2}, seed=0)
    corrupt = Share(node_id=3, evals=shares[2].evals[:-1] + (shares[2].evals[-1] ^ 1,))
    for pair in ((corrupt, shares[2]), (shares[2], corrupt), (shares[2], shares[2])):
        survivors = (s for s in (*pair, shares[3], shares[4]))  # any iterable
        with pytest.raises(ProtocolError, match="survivor node id 3 is supplied more"):
            run_repair(survivors, plan, p)


def test_run_repair_rejects_a_helper_symbol_outside_the_field():
    p, _, shares = make_code(5, 2, 3, 2, GF7, seed=8)
    plan = make_plan(p, {1, 2}, seed=0)
    bad = Share(node_id=3, evals=shares[2].evals[:-1] + (9,))
    with pytest.raises(FieldMismatchError):
        run_repair([bad, shares[3], shares[4]], plan, p)


def test_exact_repair_across_grid_sampled():
    rng = random.Random(11)
    for n, k, d, r in parameter_grid(6):
        p = validate_params(n, k, d, r, prime_for(n))
        data = tuple(rng.randrange(p.field.order) for _ in range(p.block_size))
        shares = encode(data, p)
        failed = set(rng.sample(range(1, n + 1), r))
        plan = make_plan(p, failed, seed=rng.randrange(1000))
        survivors = [s for s in shares if s.node_id not in failed]
        regen, ledger = run_repair(survivors, plan, p)
        for i in failed:
            assert regen[i] == shares[i - 1]
            assert ledger.total_for(i) == p.repair_bandwidth
        assert ledger.total == r * p.repair_bandwidth


def test_column_repair_matches_per_stripe_scalar_repairs():
    # One run on columns of S stripes equals S scalar runs, stripe by
    # stripe, with the same per-stripe ledger. Prime-field data is one
    # stripe at a time.
    rng = random.Random(15)
    for n, k, d, r in parameter_grid(5):
        for field, counts in ((prime_for(n), (1,)), (Field.gf256(), (1, 2, 7))):
            p = validate_params(n, k, d, r, field)
            failed = set(rng.sample(range(1, n + 1), r))
            plan = make_plan(p, failed, seed=rng.randrange(1000))
            for count in counts:
                blocks = [
                    tuple(rng.randrange(field.order) for _ in range(p.block_size))
                    for _ in range(count)
                ]
                shares = encode(to_columns(blocks), p)
                survivors = [s for s in shares if s.node_id not in failed]
                regen, ledger = run_repair(survivors, plan, p)
                per_stripe = []
                for block in blocks:
                    scalar = [s for s in encode(block, p) if s.node_id not in failed]
                    per_stripe.append(run_repair(scalar, plan, p))
                for i in failed:
                    expect = [stripe[0][i].evals for stripe in per_stripe]
                    assert from_columns(regen[i].evals, count) == expect
                assert all(stripe[1] == ledger for stripe in per_stripe)


def test_run_repair_builds_no_coefficients(monkeypatch):
    # Repair moves values between point sets by poly.resample; nothing on
    # its path interpolates coefficients.
    def forbidden(*args):
        raise AssertionError("repair interpolated coefficients")

    for module, name in ((poly, "interpolate"), (codec, "interpolate"), (poly, "lagrange_basis")):
        monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(17)
    for n, k, d, r in parameter_grid(5):
        for field, count in ((prime_for(n), 1), (Field.gf256(), 1), (Field.gf256(), 3)):
            p = validate_params(n, k, d, r, field)
            blocks = [
                tuple(rng.randrange(field.order) for _ in range(p.block_size))
                for _ in range(count)
            ]
            shares = encode(to_columns(blocks), p)
            failed = set(rng.sample(range(1, n + 1), r))
            plan = make_plan(p, failed, seed=rng.randrange(1000))
            survivors = [s for s in shares if s.node_id not in failed]
            regen, _ = run_repair(survivors, plan, p)
            assert all(regen[i] == shares[i - 1] for i in failed)


def test_a_helper_resamples_only_the_sends_it_does_not_store(monkeypatch):
    # Every node in a repair reads what it knows and resamples only the
    # rest (codec.line_values). A helper resamples the sends its share does
    # not store; on 40-stripe random columns each such value is also found
    # among the values sent. Newcomer i resamples g_i at its stored g-points
    # and its phase-2 points, less those it received (phase1_assemble), and
    # f_i at its stored f-points, less those it received and (i, i)
    # (regenerate); at n = d + r it stores only f-points it receives.
    resampled = {}
    node = ["helpers"]

    def spy(field, points, targets):
        values = resample(field, points, targets)
        resampled.setdefault(node[0], []).extend(values)
        return values

    def as_node(name, real):
        def run(newcomer, *args):
            node[0] = (name, newcomer)
            try:
                return real(newcomer, *args)
            finally:
                node[0] = "helpers"
        return run

    def regenerate_spy(newcomer, g_values, values, params):
        received[newcomer] = dict(values)
        return regenerate(newcomer, g_values, values, params)

    monkeypatch.setattr(codec, "resample", spy)
    monkeypatch.setattr(repair, "phase1_assemble", as_node("g", phase1_assemble))
    monkeypatch.setattr(repair, "regenerate", as_node("f", regenerate_spy))
    rng, field = random.Random(30), Field.gf256()
    for n, k, d, r in parameter_grid(5):
        p = validate_params(n, k, d, r, field)
        for stripes in (1, 40):
            shares = encode(tuple(rng.randrange(256**stripes) for _ in range(p.block_size)), p)
            failed = set(rng.sample(range(1, n + 1), r))
            plan = make_plan(p, failed, seed=rng.randrange(1000))
            resampled.clear()
            received = {}
            regen, _ = run_repair([s for s in shares if s.node_id not in failed], plan, p)
            assert all(regen[i] == shares[i - 1] for i in failed)
            computed = 0
            for j in set().union(*plan.helpers.values()):
                sends = {pt for i in failed if j in plan.helpers[i] for pt in phase1_points(j, i)}
                computed += len(sends - set(share_point_nodes(j, p)))
            helpers = resampled.pop("helpers", [])
            assert len(helpers) == computed, (n, k, d, r, stripes)
            if stripes > 1:
                assert set(helpers) <= {v for i in failed for v in received[i].values()}
            expected = {}
            for i in failed:
                stored = set(share_point_nodes(i, p))
                g_points = {pt for pt in stored if pt[1] == i}
                g_points |= {phase2_point(i, j) for j in failed if j != i}
                f_points = {pt for pt in stored if pt[0] == i} - {(i, i)}
                expected[("g", i)] = len(g_points - set(received[i]))
                expected[("f", i)] = len(f_points - set(received[i]))
                if n == d + r:
                    assert ("f", i) not in resampled, (n, k, d, r, stripes)
            got = {key: len(values) for key, values in resampled.items()}
            assert got == {key: c for key, c in expected.items() if c}, (n, k, d, r, stripes)


def test_multi_stage_stability():
    rng = random.Random(12)
    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=13)
    baseline = {s.node_id: s for s in shares}
    current = dict(baseline)
    for _ in range(20):
        failed = set(rng.sample(range(1, 6), 2))
        plan = make_plan(p, failed, seed=rng.randrange(10**6))
        survivors = [current[i] for i in current if i not in failed]
        regen, _ = run_repair(survivors, plan, p)
        current.update(regen)
        assert current == baseline


def test_forwarding_witness_found_whenever_n_exceeds_d():
    for n, k, d, r in parameter_grid(6):
        p = validate_params(n, k, d, r, prime_for(n))
        witness = find_forwarding_witness(p)
        if n > d:
            assert witness is not None, (n, k, d, r)
            stored = set(share_point_nodes(witness.helper, p))
            assert witness.point_nodes not in stored
            assert witness.helper in witness.plan.helpers[witness.newcomer]
            assert witness.helper not in witness.plan.failed


def test_forwarding_witness_points_are_really_transmitted():
    p = validate_params(5, 2, 3, 2, GF7)
    w = find_forwarding_witness(p)
    assert w is not None
    sent = {(w.helper, w.newcomer), (w.newcomer, w.helper)}
    assert w.point_nodes in sent
