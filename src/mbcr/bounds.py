"""Cut-set bound evaluation and the MBCR/MSCR operating points.

The max-flow necessary condition bounds the file size by

    B <= sum_h l_h * min{alpha, (d - sum_{t<h} l_t)*beta1 + (r - l_h)*beta2}

minimized over all ordered compositions l_1 + ... + l_s = k with parts
in [1, r]. max_file_size takes that minimum by a recurrence; cutset_rhs
of each of enumerate_compositions is its reference. All arithmetic is
exact (Fraction); no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the storage/repair-bandwidth tradeoff (exact rationals)."""

    node_storage: Fraction
    phase1_per_helper: Fraction
    phase2_per_peer: Fraction

    def repair_bandwidth(self, d: int, r: int) -> Fraction:
        return d * self.phase1_per_helper + (r - 1) * self.phase2_per_peer


def enumerate_compositions(k: int, r: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of k with parts in [1, r], largest first part first."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    for first in range(min(k, r), 0, -1):
        if first == k:
            yield (first,)
        else:
            for rest in enumerate_compositions(k - first, r):
                yield (first,) + rest


def cutset_rhs(
    n: int,
    k: int,
    d: int,
    r: int,
    point: TradeoffPoint,
    composition: Sequence[int],
) -> Fraction:
    if sum(composition) != k or any(not 1 <= l <= r for l in composition):
        raise ValueError(f"invalid composition {composition} for k={k}, r={r}")
    total = Fraction(0)
    consumed = 0
    for l in composition:
        term = min(
            point.node_storage,
            (d - consumed) * point.phase1_per_helper
            + (r - l) * point.phase2_per_peer,
        )
        total += l * term
        consumed += l
    return total


def composition_count(k: int, r: int) -> int:
    """How many compositions enumerate_compositions(k, r) yields."""
    count = [1]  # count[c]: compositions of c with parts in [1, r]
    for c in range(1, k + 1):
        count.append(sum(count[c - l] for l in range(1, min(c, r) + 1)))
    return count[k]


def max_file_size(n: int, k: int, d: int, r: int, point: TradeoffPoint) -> Fraction:
    """Tightest upper bound on the file size over all compositions.

    A part's term depends only on the part and on the count c the parts
    before it consumed, so the minimum is a recurrence over c: O(k*r)
    terms, not 2^(k-1) compositions when r >= k.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    alpha, b1, b2 = point.node_storage, point.phase1_per_helper, point.phase2_per_peer
    best = [Fraction(0)]  # best[c]: least sum over the parts that consume c
    for c in range(1, k + 1):
        best.append(min(
            best[c - l] + l * min(alpha, (d - c + l) * b1 + (r - l) * b2)
            for l in range(1, min(c, r) + 1)
        ))
    return best[k]


def mbcr_point(n: int, k: int, d: int, r: int, file_size) -> TradeoffPoint:
    """Minimum repair bandwidth: storage equals bandwidth, beta1 = 2*beta2."""
    B = Fraction(file_size)
    beta2 = B / (k * (2 * d + r - k))
    beta1 = 2 * beta2
    alpha = d * beta1 + (r - 1) * beta2
    return TradeoffPoint(
        node_storage=alpha,
        phase1_per_helper=beta1,
        phase2_per_peer=beta2,
    )


def mscr_point(n: int, k: int, d: int, r: int, file_size) -> TradeoffPoint:
    """Minimum storage: alpha = B/k, beta1 = beta2."""
    B = Fraction(file_size)
    beta = B / (k * (d - k + r))
    return TradeoffPoint(
        node_storage=B / k,
        phase1_per_helper=beta,
        phase2_per_peer=beta,
    )
