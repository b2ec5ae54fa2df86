import random
from itertools import combinations

import pytest

from conftest import from_columns, parameter_grid, prime_for, to_columns
from mbcr.codec import Share, encode, share_point_nodes, validate_params
from mbcr.errors import FieldMismatchError, ProtocolError
from mbcr.gf import Field
from mbcr.repair import (
    NewcomerState,
    Phase2Msg,
    find_forwarding_witness,
    make_plan,
    phase1_assemble,
    phase1_send,
    phase2_send,
    regenerate,
    run_repair,
)

GF7 = Field.prime(7)


def make_code(n, k, d, r, field=None, seed=0):
    p = validate_params(n, k, d, r, field or prime_for(n))
    rng = random.Random(seed)
    data = tuple(rng.randrange(p.field.order) for _ in range(p.block_size))
    return p, data, encode(data, p)


def test_make_plan_forced_helpers():
    p = validate_params(5, 2, 3, 2, GF7)
    plan = make_plan(p, {1, 2}, seed=0)
    assert plan.failed == frozenset({1, 2})
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


def test_make_plan_errors():
    p = validate_params(5, 2, 3, 2, GF7)
    with pytest.raises(ProtocolError, match="exactly r"):
        make_plan(p, {1}, seed=0)
    with pytest.raises(ProtocolError, match="survivors"):
        make_plan(p, {1, 2}, helpers={1: (2, 3, 4), 2: (3, 4, 5)})
    with pytest.raises(ProtocolError, match="distinct helpers"):
        make_plan(p, {1, 2}, helpers={1: (3, 3, 4), 2: (3, 4, 5)})
    with pytest.raises(ProtocolError, match="need d = 3 survivors"):
        make_plan(p, {1, 2}, seed=0, survivors=(1, 3, 4))


def test_phase1_send_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    msg = phase1_send(shares[1], 1, p)
    assert msg.payload == (2, 3)  # (F(2,1), F(1,2)) with F = 1 + Y


def test_phase1_send_zero_codeword():
    p, _, _ = make_code(5, 2, 3, 2, GF7)
    zero = encode((0,) * p.block_size, p)
    msg = phase1_send(zero[2], 1, p)
    assert msg.payload == (0, 0)


def test_phase1_send_rejects_self():
    p, _, shares = make_code(5, 2, 3, 2, GF7, seed=1)
    with pytest.raises(ProtocolError, match="itself"):
        phase1_send(shares[2], 3, p)


def test_phase1_payload_matches_ground_truth():
    from mbcr.poly import BiPoly

    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=2)
    F = BiPoly.from_coeffs(data, p.k, p.d, p.r)
    for helper in (3, 4, 5):
        for newcomer in (1, 2):
            msg = phase1_send(shares[helper - 1], newcomer, p)
            assert msg.payload[0] == F.eval(
                GF7, p.points.x_of(helper), p.points.y_of(newcomer)
            )
            assert msg.payload[1] == F.eval(
                GF7, p.points.x_of(newcomer), p.points.y_of(helper)
            )


def test_phase1_assemble_recovers_g():
    from mbcr.poly import eval_poly

    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=3)
    msgs = [phase1_send(shares[j - 1], 1, p) for j in (3, 4, 5)]
    state = phase1_assemble(msgs, p)
    assert state.node_id == 1
    for m in msgs:
        assert eval_poly(GF7, state.g, p.points.x_of(m.sender)) == m.payload[0]


def test_phase1_assemble_errors():
    p, _, shares = make_code(5, 2, 3, 2, GF7, seed=4)
    msgs = [phase1_send(shares[j - 1], 1, p) for j in (3, 4, 5)]
    with pytest.raises(ProtocolError, match="expected d"):
        phase1_assemble(msgs[:2], p)
    with pytest.raises(ProtocolError, match="duplicate helpers"):
        phase1_assemble([msgs[0], msgs[0], msgs[1]], p)
    other = phase1_send(shares[2], 2, p)
    with pytest.raises(ProtocolError, match="multiple newcomers"):
        phase1_assemble([msgs[0], msgs[1], other], p)


def test_phase2_before_phase1_errors():
    p, _, _ = make_code(5, 2, 3, 2, GF7)
    incomplete = NewcomerState(node_id=1, helper_ids=(3, 4, 5))
    with pytest.raises(ProtocolError, match="phase 1"):
        phase2_send(incomplete, 2, p)
    with pytest.raises(ProtocolError, match="phase 1"):
        regenerate(incomplete, [Phase2Msg(2, 1, 0)], p)


def test_phase2_payload_is_cross_evaluation():
    from mbcr.poly import BiPoly

    p, data, shares = make_code(5, 2, 3, 2, GF7, seed=5)
    F = BiPoly.from_coeffs(data, p.k, p.d, p.r)
    msgs = [phase1_send(shares[j - 1], 2, p) for j in (3, 4, 5)]
    state = phase1_assemble(msgs, p)
    msg = phase2_send(state, 1, p)
    assert msg.payload == F.eval(GF7, p.points.x_of(1), p.points.y_of(2))


def test_regenerate_toy():
    p = validate_params(3, 1, 1, 1, GF7)
    shares = encode((1, 1), p)
    msgs = [phase1_send(shares[1], 1, p)]
    state = phase1_assemble(msgs, p)
    # r = 1: no phase-2 messages at all.
    assert regenerate(state, [], p) == shares[0]


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
    assert ledger.phase2_total == 0
    assert ledger.total == p.repair_bandwidth


def test_run_repair_missing_survivor():
    p, _, shares = make_code(5, 2, 3, 2, GF7, seed=8)
    plan = make_plan(p, {1, 2}, seed=0)
    with pytest.raises(ProtocolError, match="missing"):
        run_repair(shares[3:], plan, p)


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
                shares = encode(to_columns(blocks), p, count)
                survivors = [s for s in shares if s.node_id not in failed]
                regen, ledger = run_repair(survivors, plan, p, count)
                per_stripe = []
                for block in blocks:
                    scalar = [s for s in encode(block, p) if s.node_id not in failed]
                    per_stripe.append(run_repair(scalar, plan, p))
                for i in failed:
                    expect = [stripe[0][i].evals for stripe in per_stripe]
                    assert from_columns(regen[i].evals, count) == expect
                assert all(stripe[1] == ledger for stripe in per_stripe)


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
