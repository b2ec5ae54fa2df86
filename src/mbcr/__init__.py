"""Exact cooperative regenerating code at the minimum-bandwidth point.

Encode a data block into n node shares, cooperatively repair any r
simultaneous failures at exactly the minimum repair bandwidth,
reconstruct the data from any k shares, and machine-verify the code's
subspace structure and the cut-set bound.
"""

from .codec import (
    CodeParams,
    Share,
    encode,
    reconstruct,
    share_polys,
    validate_params,
)
from .gf import Field, smallest_prime_at_least
from .repair import (
    BandwidthLedger,
    RepairPlan,
    find_forwarding_witness,
    make_plan,
    run_repair,
)

__all__ = [
    "BandwidthLedger",
    "CodeParams",
    "Field",
    "RepairPlan",
    "Share",
    "encode",
    "find_forwarding_witness",
    "make_plan",
    "reconstruct",
    "run_repair",
    "share_polys",
    "smallest_prime_at_least",
    "validate_params",
]
