"""Two-phase exact cooperative regeneration with bandwidth accounting.

Each transmitted symbol is a value of F at an (x-node, y-node) point,
named once here (phase1_points, phase2_point; subspace.transfer_spaces
reads them too, and find_forwarding_witness builds its witness from
them). Every node reads the values it sends or stores through
codec.line_values: read where it knows them, resampled on its f or g
line at only the others.
Phase 1: each helper j sends newcomer i F(x_j, y_i) = g_i(x_j) and
F(x_i, y_j) = f_i(y_j), read from its share. Newcomer i resamples g_i
from those d values at only the points it stores or sends
(phase1_assemble), F(x_i, y_i) among them. Phase 2: newcomer j sends
newcomer i F(x_i, y_j) = g_j(x_i), one of its g_j values. With its own
F(x_i, y_i) (computed, never received or counted) and the r - 1 peer
values, i holds d + r values of f_i and reads its share (regenerate).
Repair never builds coefficients (poly.resample, through line_values).

The ledger counts the values sent per newcomer and phase, per stripe.
Over GF(256) each value is a column of any width (see gf), so one run
repairs every stripe of a file with the same counts; the stripe count
belongs to the file layer (sharefile), and nothing here takes it. The
phase-1 assemblies are independent, as are the phase-2 exchanges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .codec import CodeParams, Share, line_values, share_point_nodes, stored_values
from .errors import ProtocolError


@dataclass(frozen=True)
class RepairPlan:
    """An ordered helper set per newcomer, one per failed node."""

    helpers: dict[int, tuple[int, ...]]

    @property
    def failed(self) -> tuple[int, ...]:
        """The newcomers, in ascending id order."""
        return tuple(sorted(self.helpers))


def make_plan(
    params: CodeParams,
    failed: Iterable[int],
    helpers: Optional[Mapping[int, Iterable[int]]] = None,
    seed: Optional[int] = None,
    survivors: Optional[Iterable[int]] = None,
) -> RepairPlan:
    """Build and validate a repair plan.

    Helpers are survivors: the node ids in survivors (by default every
    node) that did not fail. Without an explicit helper map, helpers are
    drawn per newcomer, in failed-id order, from the survivors with a
    seeded RNG, so plans are reproducible. A drawn map is checked as a
    given one is. Helper sets may differ between newcomers.
    """
    failed = sorted(failed)
    for i, j in zip(failed, failed[1:]):
        if i == j:
            raise ProtocolError(f"failed id {i} is named more than once")
    if len(failed) != params.r:
        raise ProtocolError(f"failed set must have exactly r = {params.r} nodes, got {failed}")
    if not all(1 <= i <= params.n for i in failed):
        raise ProtocolError(f"failed ids out of range: {failed}")
    everyone = range(1, params.n + 1)
    survivors = sorted(set(everyone if survivors is None else survivors) - set(failed))
    if len(survivors) < params.d:
        raise ProtocolError(f"need d = {params.d} survivors, got {survivors}")
    if helpers is None:
        rng = random.Random(seed)
        helpers = {i: rng.sample(survivors, params.d) for i in failed}
    if set(helpers) != set(failed):
        raise ProtocolError("helper map keys must equal the failed set")
    plan = RepairPlan({i: tuple(helpers[i]) for i in failed})
    for i, hs in plan.helpers.items():
        if len(hs) != params.d or len(set(hs)) != params.d:
            raise ProtocolError(f"newcomer {i} needs d = {params.d} distinct helpers, got {hs}")
        if not set(hs) <= set(survivors):
            raise ProtocolError(f"helpers of newcomer {i} must be survivors, got {hs}")
    return plan


def phase1_points(helper: int, newcomer: int) -> tuple[tuple[int, int], ...]:
    """Helper to newcomer in phase 1: g_newcomer(x_helper), f_newcomer(y_helper)."""
    return (helper, newcomer), (newcomer, helper)


def phase2_point(sender: int, newcomer: int) -> tuple[int, int]:
    """Newcomer sender to newcomer in phase 2: g_sender(x_newcomer)."""
    return newcomer, sender


def phase1_assemble(newcomer: int, received: Mapping, points, params: CodeParams):
    """g_i at points on newcomer i's y-line, from its received values."""
    return dict(zip(points, line_values(newcomer, received, points, params)))


def phase2_send(sender: int, g_values: Mapping, newcomer: int):
    return g_values[phase2_point(sender, newcomer)]


def regenerate(newcomer: int, g_values: Mapping, received: Mapping, params: CodeParams):
    """Newcomer i's share, from its received values and its own g_i
    values (phase1_assemble), (i, i) among them: f_i's missing points are
    resampled from the d + r values on its x-line."""
    i = newcomer
    return Share(i, line_values(i, {**received, **g_values}, share_point_nodes(i, params), params))


@dataclass(frozen=True)
class BandwidthLedger:
    """Transmitted symbols per newcomer and in total."""

    phase1: dict[int, int]
    phase2: dict[int, int]

    def total_for(self, newcomer: int) -> int:
        return self.phase1[newcomer] + self.phase2[newcomer]

    @property
    def total(self) -> int:
        return sum(self.phase1.values()) + sum(self.phase2.values())


def run_repair(
    survivor_shares: Iterable[Share],
    plan: RepairPlan,
    params: CodeParams,
) -> tuple[dict[int, Share], BandwidthLedger]:
    """Run both phases for all newcomers; returns shares and the ledger."""
    by_id: dict[int, Share] = {}
    for s in survivor_shares:
        if s.node_id in by_id:
            raise ProtocolError(f"survivor node id {s.node_id} is supplied more than once")
        by_id[s.node_id] = s
    needed = set().union(*plan.helpers.values())
    missing = needed - set(by_id)
    if missing:
        raise ProtocolError(f"survivor shares missing for helpers {sorted(missing)}")

    newcomers = plan.failed
    # A phase-1 point names its helper and newcomer, so one map holds every send.
    sent: dict[tuple[int, int], int] = {}
    for j in sorted(needed):
        pts = [pt for i in newcomers if j in plan.helpers[i] for pt in phase1_points(j, i)]
        sent.update(zip(pts, line_values(j, stored_values(by_id[j], params), pts, params)))
    received: dict[int, dict[tuple[int, int], int]] = {}
    g: dict[int, dict[tuple[int, int], int]] = {}  # g_i where i stores or sends it
    for i in newcomers:
        received[i] = {pt: sent[pt] for j in plan.helpers[i] for pt in phase1_points(j, i)}
        pts = [pt for pt in share_point_nodes(i, params) if pt[1] == i]
        pts += [phase2_point(i, j) for j in newcomers if j != i]
        g[i] = phase1_assemble(i, received[i], pts, params)
    phase1 = {i: len(received[i]) for i in newcomers}

    # Barrier: every phase-1 assembly completes before any exchange.
    for j in newcomers:
        for i in newcomers:
            if i != j:
                received[i][phase2_point(j, i)] = phase2_send(j, g[j], i)
    phase2 = {i: len(received[i]) - phase1[i] for i in newcomers}

    regenerated = {i: regenerate(i, g[i], received[i], params) for i in plan.failed}
    return regenerated, BandwidthLedger(phase1=phase1, phase2=phase2)


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


def find_forwarding_witness(params: CodeParams) -> ForwardingWitness:
    """A repair scenario where a helper must compute its payload.

    Nodes 1..r fail and every newcomer gets helpers r+1..r+d. Helper r+1
    never stores F(x_1, y_{r+1}): node 1 is (r+1) shifted by n - r >= d,
    outside the helper's g-line. The witness point is the first of
    phase1_points(r + 1, 1) that the helper does not store.
    """
    r, d = params.r, params.d
    failed = range(1, r + 1)
    plan = make_plan(params, failed, helpers=dict.fromkeys(failed, range(r + 1, r + d + 1)))
    stored = share_point_nodes(r + 1, params)
    point = next(pt for pt in phase1_points(r + 1, 1) if pt not in stored)
    return ForwardingWitness(plan, helper=r + 1, newcomer=1, point_nodes=point)
