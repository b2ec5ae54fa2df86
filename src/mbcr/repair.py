"""Two-phase exact cooperative regeneration with bandwidth accounting.

Each transmitted symbol is a value of F at an (x-node, y-node) point,
named once here (phase1_points, phase2_point; subspace.transfer_spaces
reads them too, and find_forwarding_witness builds its witness from
them), and each sender reads it with codec.value_at from its f and g at
every point (codec.node_lines).
Phase 1: newcomer i gets F(x_j, y_i) = g_i(x_j) and F(x_i, y_j) = f_i(y_j)
from each of its d helpers j and resamples g_i to every x-point. Phase 2:
newcomer j sends newcomer i F(x_i, y_j) = g_j(x_i). With its own
F(x_i, y_i) = g_i(x_i) (computed, never received or counted), i resamples
f_i to every y-point and re-emits its share. Senders and newcomers read
values from resampled lines (poly.resample), never from coefficients.

The ledger counts the values sent per newcomer and phase, per stripe.
Over GF(256) each value is a column of any width (see gf), so one run
repairs every stripe of a file with the same counts; the stripe count
belongs to the file layer (sharefile), and nothing here takes it. The
phase-1 assemblies are independent, as are the phase-2 exchanges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .codec import CodeParams, Share, line_samples, node_lines, share_from_lines
from .codec import share_point_nodes, value_at
from .errors import ProtocolError
from .poly import resample


@dataclass(frozen=True)
class RepairPlan:
    """An ordered helper set per newcomer, one per failed node."""

    helpers: dict[int, tuple[int, ...]]

    @property
    def failed(self) -> frozenset[int]:
        return frozenset(self.helpers)


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

    chosen: dict[int, tuple[int, ...]] = {}
    if helpers is not None:
        if set(helpers) != set(failed):
            raise ProtocolError("helper map keys must equal the failed set")
        for i in failed:
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
        for i in failed:
            chosen[i] = tuple(rng.sample(survivors, params.d))
    return RepairPlan(chosen)


def phase1_points(helper: int, newcomer: int) -> tuple[tuple[int, int], ...]:
    """Helper to newcomer in phase 1: g_newcomer(x_helper), f_newcomer(y_helper)."""
    return (helper, newcomer), (newcomer, helper)


def phase2_point(sender: int, newcomer: int) -> tuple[int, int]:
    """Newcomer sender to newcomer in phase 2: g_sender(x_newcomer)."""
    return newcomer, sender


def phase1_assemble(newcomer: int, received: Mapping, params: CodeParams):
    """g_i at every x-point, from the received values on newcomer i's y-line."""
    g_pts = line_samples(newcomer, received.items(), params)[1]
    return resample(params.field, g_pts, params.points)


def phase2_send(sender: int, g_line: Sequence[int], newcomer: int):
    # The sender knows only its g so far; phase2_point reads no f.
    return value_at(sender, (None, g_line), phase2_point(sender, newcomer))


def regenerate(newcomer: int, g_line: Sequence[int], received: Mapping, params: CodeParams):
    """Newcomer i's share, with f_i at every y-point resampled from the
    received values on its x-line and its own g_i(x_i); g_line is g_i at
    every x-point."""
    i, points = newcomer, params.points
    f_pts = line_samples(i, received.items(), params)[0] + [(points[i - 1], g_line[i - 1])]
    return share_from_lines(i, (resample(params.field, f_pts, points), g_line), params)


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

    lines = {j: node_lines(by_id[j], params) for j in needed}
    newcomers = sorted(plan.failed)
    received: dict[int, dict[tuple[int, int], int]] = {}
    g: dict[int, Sequence[int]] = {}  # g_i at every x-point
    for i in newcomers:
        received[i] = {
            pt: value_at(j, lines[j], pt)
            for j in plan.helpers[i]
            for pt in phase1_points(j, i)
        }
        g[i] = phase1_assemble(i, received[i], params)
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
