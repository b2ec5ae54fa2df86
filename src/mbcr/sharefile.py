"""Share file serialization and the stripe/column transpose.

Layout (little-endian, bit-exact):
  magic "MBCR" (4 bytes), version u8 = 1, field kind u8 (0 prime,
  1 binary GF(256)), field modulus u16 (prime, or the reduction
  polynomial 0x11D), n, k, d, r u16 each, node_id u16,
  stripe_count u32, original_length u64, then the payload: one byte
  per symbol, stripe-major, each stripe in canonical share order.

Evaluation points are never serialized; they are recomputed
deterministically from the parameters.

The codec runs once per file on columns (see gf). The transpose lives
here, in to_columns and from_columns: column t of stripe-major bytes with
w symbols per stripe is the slice data[t::w], packed little-endian, and
is written back through the same slice.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Sequence

from .codec import CodeParams, Share, validate_params
from .errors import ParameterError, ShareFormatError
from .gf import GF256_REDUCTION_POLY, Field

MAGIC = b"MBCR"
VERSION = 1
FIELD_KIND_PRIME = 0
FIELD_KIND_GF256 = 1

_HEADER = struct.Struct("<4sBBHHHHHHIQ")
HEADER_SIZE = _HEADER.size


def field_kind_codes(field: Field) -> tuple[int, int]:
    if field.kind == "prime":
        return FIELD_KIND_PRIME, field.modulus
    return FIELD_KIND_GF256, GF256_REDUCTION_POLY


def field_from_codes(kind: int, modulus: int) -> Field:
    if kind == FIELD_KIND_PRIME:
        try:
            return Field.prime(modulus)
        except ValueError as exc:
            raise ShareFormatError(str(exc)) from None
    if kind == FIELD_KIND_GF256:
        if modulus != GF256_REDUCTION_POLY:
            raise ShareFormatError(f"unexpected GF(256) modulus {modulus:#x}")
        return Field.gf256()
    raise ShareFormatError(f"unknown field kind {kind}")


@dataclass(frozen=True)
class ShareFile:
    params: CodeParams
    node_id: int
    stripe_count: int
    original_length: int
    payload: bytes  # stripe_count * share_size symbols, one per byte

    def stripes(self) -> list[tuple[int, ...]]:
        a = self.params.share_size
        return [
            tuple(self.payload[s * a : (s + 1) * a])
            for s in range(self.stripe_count)
        ]

    def share(self) -> Share:
        """The node's share, one column per share position."""
        columns = to_columns(self.payload, self.params.share_size)
        return Share(self.node_id, tuple(columns))

    @classmethod
    def of_share(
        cls, share: Share, params: CodeParams, stripe_count: int, original_length: int
    ) -> "ShareFile":
        payload = from_columns(share.evals, stripe_count)
        return cls(params, share.node_id, stripe_count, original_length, payload)


def pack_share_file(sf: ShareFile) -> bytes:
    p = sf.params
    kind, modulus = field_kind_codes(p.field)
    expected = sf.stripe_count * p.share_size
    if len(sf.payload) != expected:
        raise ShareFormatError(
            f"payload has {len(sf.payload)} symbols, expected {expected}"
        )
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        kind,
        modulus,
        p.n,
        p.k,
        p.d,
        p.r,
        sf.node_id,
        sf.stripe_count,
        sf.original_length,
    )
    return header + sf.payload


def parse_share_file(data: bytes) -> ShareFile:
    """Parse and validate a share file: header parameters, node id,
    stripe count, recorded length, payload length, and every payload
    symbol of a prime field (any byte is a GF(256) symbol)."""
    if len(data) < HEADER_SIZE:
        raise ShareFormatError("file too short for a share header")
    (
        magic,
        version,
        kind,
        modulus,
        n,
        k,
        d,
        r,
        node_id,
        stripe_count,
        original_length,
    ) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ShareFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ShareFormatError(f"unsupported version {version}")
    try:
        params = validate_params(n, k, d, r, field_from_codes(kind, modulus))
    except ParameterError as exc:
        raise ShareFormatError(f"invalid code parameters in header: {exc}") from None
    if not 1 <= node_id <= n:
        raise ShareFormatError(f"node id {node_id} is outside [1, {n}]")
    if stripe_count == 0:
        raise ShareFormatError("stripe count is 0; an encoded file has at least one")
    capacity = stripe_count * params.block_size
    if original_length > capacity:
        raise ShareFormatError(
            f"recorded length {original_length} exceeds the {capacity} "
            f"data symbols its stripes hold"
        )
    payload = data[HEADER_SIZE:]
    if len(payload) != stripe_count * params.share_size:
        raise ShareFormatError(
            f"payload length {len(payload)} does not match "
            f"{stripe_count} stripes of {params.share_size} symbols"
        )
    if params.field.kind == "prime":
        params.field.check_elements(payload)
    return ShareFile(
        params=params,
        node_id=node_id,
        stripe_count=stripe_count,
        original_length=original_length,
        payload=payload,
    )


def atomic_write(path: str, data: bytes) -> None:
    """Write a temp file in the target directory, then rename it onto path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mbcr-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_share_file(path: str, sf: ShareFile) -> None:
    atomic_write(path, pack_share_file(sf))


def read_share_file(path: str) -> ShareFile:
    with open(path, "rb") as fh:
        return parse_share_file(fh.read())


def stripe_count(length: int, block_size: int) -> int:
    """Stripes of a file of length bytes; an empty file has one."""
    return max(1, -(-length // block_size))


def to_columns(data: bytes, width: int) -> list[int]:
    """The width columns of stripe-major bytes, zero-padded to whole stripes.

    Column t packs symbol t of every stripe, stripe s in byte s.
    """
    data = data.ljust(stripe_count(len(data), width) * width, b"\x00")
    return [int.from_bytes(data[t::width], "little") for t in range(width)]


def from_columns(columns: Sequence[int], count: int) -> bytes:
    """The stripe-major bytes of count stripes, from their columns."""
    width = len(columns)
    out = bytearray(width * count)
    for t, column in enumerate(columns):
        out[t::width] = column.to_bytes(count, "little")
    return bytes(out)


def file_to_stripes(data: bytes, block_size: int) -> list[tuple[int, ...]]:
    """Split bytes into zero-padded stripes; an empty file is one zero stripe."""
    count = stripe_count(len(data), block_size)
    padded = data.ljust(count * block_size, b"\x00")
    return [
        tuple(padded[s * block_size : (s + 1) * block_size]) for s in range(count)
    ]


def stripes_to_file(stripes: list[tuple[int, ...]], original_length: int) -> bytes:
    flat = bytearray()
    for stripe in stripes:
        flat.extend(stripe)
    if original_length > len(flat):
        raise ShareFormatError(
            f"recorded length {original_length} exceeds decoded data {len(flat)}"
        )
    return bytes(flat[:original_length])
