"""Two-phase exact cooperative regeneration with bandwidth accounting.

Phase 1: each newcomer i downloads 2 symbols (f_j(y_i), g_j(x_i)) from
each of its d helpers and interpolates g_i(X) from the first components.
Phase 2: each newcomer j sends g_j(x_i) to every other newcomer i; the
newcomer computes F(x_i, y_i) = g_i(x_i) itself (never downloaded, never
counted). With d helper samples, r-1 peer samples, and its own value,
the newcomer interpolates f_i(Y) and re-emits its original share exactly.

Messages are in-memory values; the ledger counts transmitted symbols
per stripe. With stripes = S every share symbol is a GF(256) column of
S stripes (see gf), so every message payload is a column too and one run
repairs all S stripes of a file; messages keep the same shape and count.
All phase-1 assemblies are independent, as are all phase-2 exchanges;
sequential and concurrent schedules give identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .codec import CodeParams, Share, share_from_polys, share_point_nodes, share_polys
from .errors import ProtocolError
from .poly import eval_poly, interpolate


@dataclass(frozen=True)
class RepairPlan:
    """The failed set plus an ordered helper set per newcomer."""

    failed: frozenset[int]
    helpers: dict[int, tuple[int, ...]]


def make_plan(
    params: CodeParams,
    failed: Iterable[int],
    helpers: Optional[Mapping[int, Sequence[int]]] = None,
    seed: Optional[int] = None,
    survivors: Optional[Iterable[int]] = None,
) -> RepairPlan:
    """Build and validate a repair plan.

    Helpers are survivors: the node ids in survivors (by default every
    node) that did not fail. Without an explicit helper map, helpers are
    drawn per newcomer from the survivors with a seeded RNG, so plans are
    reproducible. Helper sets may differ between newcomers.
    """
    failed_set = frozenset(failed)
    if len(failed_set) != params.r:
        raise ProtocolError(
            f"failed set must have exactly r = {params.r} nodes, got {sorted(failed_set)}"
        )
    if not all(1 <= i <= params.n for i in failed_set):
        raise ProtocolError(f"failed ids out of range: {sorted(failed_set)}")
    everyone = range(1, params.n + 1)
    survivors = sorted(set(everyone if survivors is None else survivors) - failed_set)

    chosen: dict[int, tuple[int, ...]] = {}
    if helpers is not None:
        if set(helpers) != failed_set:
            raise ProtocolError("helper map keys must equal the failed set")
        for i in failed_set:
            hs = tuple(helpers[i])
            if len(hs) != params.d or len(set(hs)) != params.d:
                raise ProtocolError(
                    f"newcomer {i} needs d = {params.d} distinct helpers, got {hs}"
                )
            if not set(hs) <= set(survivors):
                raise ProtocolError(
                    f"helpers of newcomer {i} must be survivors, got {hs}"
                )
            chosen[i] = hs
    else:
        if len(survivors) < params.d:
            raise ProtocolError(
                f"need d = {params.d} survivors to draw helpers from, got {survivors}"
            )
        rng = random.Random(seed)
        for i in sorted(failed_set):
            chosen[i] = tuple(rng.sample(survivors, params.d))
    return RepairPlan(failed=failed_set, helpers=chosen)


@dataclass(frozen=True)
class Phase1Msg:
    sender: int
    receiver: int
    payload: tuple[int, int]  # (f_sender(y_receiver), g_sender(x_receiver))


@dataclass(frozen=True)
class Phase2Msg:
    sender: int
    receiver: int
    payload: int  # g_sender(x_receiver) = F(x_receiver, y_sender)


@dataclass(frozen=True)
class NewcomerState:
    """What a newcomer knows after phase 1.

    g is None until phase 1 is assembled; phase-2 sends require it.
    f_samples maps helper id to F(x_self, y_helper).
    """

    node_id: int
    helper_ids: tuple[int, ...]
    g: Optional[tuple[int, ...]] = None
    f_samples: dict[int, int] = dc_field(default_factory=dict)


def phase1_send(helper_share: Share, newcomer_id: int, params: CodeParams) -> Phase1Msg:
    if helper_share.node_id == newcomer_id:
        raise ProtocolError(f"node {newcomer_id} cannot help repair itself")
    f, g = share_polys(helper_share, params)
    return _phase1_from_polys(f, g, helper_share.node_id, newcomer_id, params)


def _phase1_from_polys(f, g, helper_id, newcomer_id, params) -> Phase1Msg:
    fld, points = params.field, params.points
    payload = (
        eval_poly(fld, f, points.y_of(newcomer_id)),
        eval_poly(fld, g, points.x_of(newcomer_id)),
    )
    return Phase1Msg(sender=helper_id, receiver=newcomer_id, payload=payload)


def phase1_assemble(msgs: Sequence[Phase1Msg], params: CodeParams) -> NewcomerState:
    if len(msgs) != params.d:
        raise ProtocolError(f"expected d = {params.d} phase-1 messages, got {len(msgs)}")
    receivers = {m.receiver for m in msgs}
    if len(receivers) != 1:
        raise ProtocolError(f"phase-1 messages address multiple newcomers: {receivers}")
    newcomer = msgs[0].receiver
    senders = [m.sender for m in msgs]
    if len(set(senders)) != params.d:
        raise ProtocolError(f"duplicate helpers in phase-1 messages: {senders}")
    g = interpolate(
        params.field,
        [(params.points.x_of(m.sender), m.payload[0]) for m in msgs],
        params.d,
    )
    f_samples = {m.sender: m.payload[1] for m in msgs}
    return NewcomerState(
        node_id=newcomer, helper_ids=tuple(senders), g=g, f_samples=f_samples
    )


def phase2_send(state: NewcomerState, to_id: int, params: CodeParams) -> Phase2Msg:
    if state.g is None:
        raise ProtocolError(
            f"newcomer {state.node_id} has not completed phase 1; cannot send phase 2"
        )
    if to_id == state.node_id:
        raise ProtocolError("phase-2 message to self")
    payload = eval_poly(params.field, state.g, params.points.x_of(to_id))
    return Phase2Msg(sender=state.node_id, receiver=to_id, payload=payload)


def regenerate(
    state: NewcomerState, phase2_msgs: Sequence[Phase2Msg], params: CodeParams
) -> Share:
    i, r = state.node_id, params.r
    fld, points = params.field, params.points
    if state.g is None:
        raise ProtocolError(f"newcomer {i} has not completed phase 1")
    if len(phase2_msgs) != r - 1:
        raise ProtocolError(
            f"expected r-1 = {r - 1} phase-2 messages, got {len(phase2_msgs)}"
        )
    peers = {m.sender for m in phase2_msgs}
    if len(peers) != r - 1 or i in peers:
        raise ProtocolError(f"invalid phase-2 senders {sorted(peers)} for newcomer {i}")
    if any(m.receiver != i for m in phase2_msgs):
        raise ProtocolError("phase-2 message addressed to a different newcomer")

    # Own value is computed locally, never downloaded.
    own = eval_poly(fld, state.g, points.x_of(i))
    f_pts = [(points.y_of(j), v) for j, v in state.f_samples.items()]
    f_pts += [(points.y_of(m.sender), m.payload) for m in phase2_msgs]
    f_pts.append((points.y_of(i), own))
    f = interpolate(fld, f_pts, params.d + r)
    return share_from_polys(i, f, state.g, params)


@dataclass(frozen=True)
class BandwidthLedger:
    """Transmitted symbols per newcomer and in total."""

    phase1: dict[int, int]
    phase2: dict[int, int]

    def total_for(self, newcomer: int) -> int:
        return self.phase1[newcomer] + self.phase2[newcomer]

    @property
    def phase1_total(self) -> int:
        return sum(self.phase1.values())

    @property
    def phase2_total(self) -> int:
        return sum(self.phase2.values())

    @property
    def total(self) -> int:
        return self.phase1_total + self.phase2_total


def run_repair(
    survivor_shares: Iterable[Share],
    plan: RepairPlan,
    params: CodeParams,
    stripes: int = 1,
) -> tuple[dict[int, Share], BandwidthLedger]:
    """Run both phases for all newcomers; returns shares and the ledger."""
    by_id = {s.node_id: s for s in survivor_shares}
    needed = set().union(*plan.helpers.values()) if plan.helpers else set()
    missing = needed - set(by_id)
    if missing:
        raise ProtocolError(f"survivor shares missing for helpers {sorted(missing)}")

    helper_polys = {j: share_polys(by_id[j], params, stripes) for j in needed}
    phase1_count: dict[int, int] = {}
    states: dict[int, NewcomerState] = {}
    for i in sorted(plan.failed):
        msgs = [
            _phase1_from_polys(*helper_polys[j], j, i, params) for j in plan.helpers[i]
        ]
        states[i] = phase1_assemble(msgs, params)
        phase1_count[i] = sum(len(m.payload) for m in msgs)

    # Barrier: every phase-1 assembly completes before any exchange.
    phase2_count = {i: 0 for i in plan.failed}
    inbox: dict[int, list[Phase2Msg]] = {i: [] for i in plan.failed}
    for j in sorted(plan.failed):
        for i in sorted(plan.failed):
            if i == j:
                continue
            msg = phase2_send(states[j], i, params)
            inbox[i].append(msg)
            phase2_count[i] += 1

    regenerated = {i: regenerate(states[i], inbox[i], params) for i in plan.failed}
    return regenerated, BandwidthLedger(phase1=phase1_count, phase2=phase2_count)


@dataclass(frozen=True)
class ForwardingWitness:
    """A repair scenario where a helper must compute its payload.

    point_nodes is the (x-node, y-node) pair of the transmitted
    evaluation, which is not among the helper's stored evaluation points.
    """

    plan: RepairPlan
    helper: int
    newcomer: int
    point_nodes: tuple[int, int]


def find_forwarding_witness(params: CodeParams) -> Optional[ForwardingWitness]:
    """Search repair scenarios for a transmitted symbol the helper does not store.

    Enumerates failed sets, newcomers, and helpers; for each candidate the
    phase-1 payload points (x_helper, y_newcomer) and (x_newcomer, y_helper)
    are tested against the helper's stored point set.
    """
    n, d, r = params.n, params.d, params.r
    for failed in combinations(range(1, n + 1), r):
        failed_set = set(failed)
        survivors = [j for j in range(1, n + 1) if j not in failed_set]
        for i in failed:
            for j in survivors:
                stored = set(share_point_nodes(j, params))
                for pt in ((j, i), (i, j)):
                    if pt in stored:
                        continue
                    helpers = {}
                    for i2 in failed:
                        if i2 == i:
                            rest = [s for s in survivors if s != j]
                            helpers[i2] = (j,) + tuple(rest[: d - 1])
                        else:
                            helpers[i2] = tuple(survivors[:d])
                    plan = make_plan(params, failed_set, helpers=helpers)
                    return ForwardingWitness(
                        plan=plan, helper=j, newcomer=i, point_nodes=pt
                    )
    return None
