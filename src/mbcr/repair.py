"""Two-phase exact cooperative regeneration with bandwidth accounting.

Each transmitted symbol is a value of F at an (x-node, y-node) point,
named once here (phase1_points, phase2_point; subspace.transfer_spaces
and find_forwarding_witness read them too), and each sender evaluates it
from its own (f, g) with codec.value_at. Phase 1: newcomer i gets
F(x_j, y_i) = g_i(x_j) and F(x_i, y_j) = f_i(y_j) from each of its d
helpers j and interpolates g_i(X). Phase 2: newcomer j sends newcomer i
F(x_i, y_j) = g_j(x_i). With its own F(x_i, y_i) = g_i(x_i) (computed,
never received or counted), i interpolates f_i(Y) and re-emits its share.

The ledger counts the values sent per newcomer and phase, per stripe.
With stripes = S each value is a GF(256) column of S stripes (see gf),
so one run repairs all S stripes of a file with the same counts. The
phase-1 assemblies are independent, as are the phase-2 exchanges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .codec import (
    CodeParams, Share, share_from_polys, share_point_nodes, share_polys, value_at
)
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


def phase1_points(helper: int, newcomer: int) -> tuple[tuple[int, int], ...]:
    """Helper to newcomer in phase 1: g_newcomer(x_helper), f_newcomer(y_helper)."""
    return (helper, newcomer), (newcomer, helper)


def phase2_point(sender: int, newcomer: int) -> tuple[int, int]:
    """Newcomer sender to newcomer in phase 2: g_sender(x_newcomer)."""
    return newcomer, sender


def phase1_assemble(newcomer: int, received: Mapping, params: CodeParams):
    """g_i(X) from the received values, a point -> value map, on newcomer i's y-line."""
    x_of = params.points.x_of
    g_pts = [(x_of(xn), v) for (xn, yn), v in received.items() if yn == newcomer]
    return interpolate(params.field, g_pts, params.d)


def phase2_send(sender: int, g: Sequence[int], newcomer: int, params: CodeParams):
    # The sender knows only its g so far; phase2_point reads no f.
    return value_at(sender, None, g, phase2_point(sender, newcomer), params)


def regenerate(newcomer: int, g: Sequence[int], received: Mapping, params: CodeParams):
    """f_i(Y) from the received values on newcomer i's x-line and its own g_i(x_i)."""
    i, fld, points = newcomer, params.field, params.points
    f_pts = [(points.y_of(yn), v) for (xn, yn), v in received.items() if xn == i]
    f_pts.append((points.y_of(i), eval_poly(fld, g, points.x_of(i))))
    f = interpolate(fld, f_pts, params.d + params.r)
    return share_from_polys(i, f, g, params)


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
    newcomers = sorted(plan.failed)
    received: dict[int, dict[tuple[int, int], int]] = {}
    g: dict[int, tuple[int, ...]] = {}
    for i in newcomers:
        received[i] = {
            pt: value_at(j, *helper_polys[j], pt, params)
            for j in plan.helpers[i]
            for pt in phase1_points(j, i)
        }
        g[i] = phase1_assemble(i, received[i], params)
    phase1 = {i: len(received[i]) for i in newcomers}

    # Barrier: every phase-1 assembly completes before any exchange.
    for j in newcomers:
        for i in newcomers:
            if i != j:
                received[i][phase2_point(j, i)] = phase2_send(j, g[j], i, params)
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


def find_forwarding_witness(params: CodeParams) -> Optional[ForwardingWitness]:
    """Search repair scenarios for a transmitted symbol the helper does not store.

    Enumerates failed sets, newcomers, and helpers; for each candidate the
    helper's phase1_points are tested against its stored point set.
    """
    n, d, r = params.n, params.d, params.r
    for failed in combinations(range(1, n + 1), r):
        failed_set = set(failed)
        survivors = [j for j in range(1, n + 1) if j not in failed_set]
        for i in failed:
            for j in survivors:
                stored = set(share_point_nodes(j, params))
                for pt in phase1_points(j, i):
                    if pt in stored:
                        continue
                    own = (j,) + tuple(s for s in survivors if s != j)[: d - 1]
                    helpers = {h: own if h == i else survivors[:d] for h in failed}
                    plan = make_plan(params, failed_set, helpers=helpers)
                    return ForwardingWitness(plan, helper=j, newcomer=i, point_nodes=pt)
    return None
