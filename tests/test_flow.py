"""The cut-set bound against max-flow on the cooperative information-flow
graph (Shum and Hu, "Cooperative regenerating codes", IEEE Trans. IT
2013; Dimakis et al., IEEE Trans. IT 2010).

A storage node is a vertex out. Each initial node takes alpha from the
source. Each stage replaces r nodes at once; a newcomer has vertices in,
mid and out, d edges of beta1 from its helpers' out into its in, an
infinite edge in -> mid, r - 1 edges of beta2 from the other newcomers'
in into its mid, and mid -> out of alpha. A data collector takes infinite
edges from the out of k live nodes. The file size a history allows is the
min-cut between source and collector, computed here by Edmonds-Karp on
exact Fractions.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from conftest import cutset_rhs, enumerate_compositions, parameter_grid
from mbcr.bounds import max_file_size, mbcr_point, mscr_point


def max_flow(edges, source, sink):
    """Edmonds-Karp over (u, v, capacity) edges: augment along a shortest
    residual path until none is left."""
    residual = {}
    for u, v, c in edges:
        residual.setdefault(u, {})
        residual.setdefault(v, {})
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    flow = 0
    while True:
        parent, queue = {source: None}, deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path, v = [], sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def history_flow(n, d, r, point, stages, collector):
    """Max-flow to a collector of the given live nodes, after stages of
    (newcomers, {newcomer: helpers}) that replace nodes 1..n."""
    alpha, b1, b2 = point.node_storage, point.phase1_per_helper, point.phase2_per_peer
    inf = n * alpha + 1  # more than the source sends
    out = {i: ("out", i, 0) for i in range(1, n + 1)}
    edges = [("source", out[i], alpha) for i in out]
    for t, (newcomers, helpers) in enumerate(stages, 1):
        assert len(newcomers) == r and all(len(helpers[j]) == d for j in newcomers)
        in_, mid = {j: ("in", j, t) for j in newcomers}, {j: ("mid", j, t) for j in newcomers}
        for j in newcomers:
            assert not set(helpers[j]) & set(newcomers)
            edges += [(out[h], in_[j], b1) for h in helpers[j]]
            edges += [(in_[j], mid[j], inf), (mid[j], ("out", j, t), alpha)]
            edges += [(in_[p], mid[j], b2) for p in newcomers if p != j]
        out.update({j: ("out", j, t) for j in newcomers})
    edges += [(out[c], "collector", inf) for c in collector]
    return max_flow(edges, "source", "collector")


def composition_history(n, d, r, composition):
    """The stages in which stage h replaces group h, the next
    composition[h] nodes counted down from n, and the r - composition[h]
    lowest nodes outside the groups so far; each newcomer's helpers are
    every earlier group, then the lowest live nodes outside them that do
    not fail in stage h. Returns the stages and the collector: every
    group."""
    stages, groups, next_node = [], [], n
    for size in composition:
        group = list(range(next_node, next_node - size, -1))
        next_node -= size
        rest = [j for j in range(1, n + 1) if j not in groups and j not in group]
        newcomers = group + rest[:r - size]
        others = [j for j in rest if j not in newcomers]
        helpers = groups + others[:d - len(groups)]
        stages.append((newcomers, {j: helpers for j in newcomers}))
        groups += group
    return stages, groups


def test_max_flow_examples():
    # A flow of 5 needs the crossing edge a -> b; an edge of 4 after t
    # caps it. Fractions stay exact, and a cut-off sink gets nothing.
    edges = [("s", "a", 3), ("s", "b", 2), ("a", "t", 2), ("b", "t", 3), ("a", "b", 1)]
    assert max_flow(edges, "s", "t") == 5
    assert max_flow(edges + [("t", "u", 4)], "s", "u") == 4
    assert max_flow([("s", "a", Fraction(1, 3)), ("a", "t", Fraction(1, 2))], "s", "t") == Fraction(1, 3)
    assert max_flow([("s", "a", 1)], "s", "t") == 0


@pytest.mark.parametrize("which", [mbcr_point, mscr_point], ids=["mbcr", "mscr"])
def test_each_composition_history_has_the_cutset_sum_as_min_cut(which):
    for n, k, d, r in parameter_grid(7):
        point = which(k, d, r, k * (2 * d + r - k))
        for composition in enumerate_compositions(k, r):
            stages, collector = composition_history(n, d, r, composition)
            got = history_flow(n, d, r, point, stages, collector)
            assert got == cutset_rhs(k, d, r, point, composition), (n, k, d, r, composition)


@pytest.mark.parametrize("which", [mbcr_point, mscr_point], ids=["mbcr", "mscr"])
def test_random_histories_carry_at_least_the_bound(which):
    rng = random.Random(43)
    for n, k, d, r in parameter_grid(7):
        point = which(k, d, r, k * (2 * d + r - k))
        bound = max_file_size(k, d, r, point)
        for _ in range(4):
            stages = []
            for _ in range(rng.randrange(1, 6)):
                newcomers = rng.sample(range(1, n + 1), r)
                live = [j for j in range(1, n + 1) if j not in newcomers]
                stages.append((newcomers, {j: rng.sample(live, d) for j in newcomers}))
            collector = rng.sample(range(1, n + 1), k)
            assert history_flow(n, d, r, point, stages, collector) >= bound, (n, k, d, r, stages)
