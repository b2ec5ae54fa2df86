"""Share file serialization and the stripe/column transpose.

A record (ShareFile) holds code parameters, node id, recorded length L
and payload. Layout (little-endian, bit-exact):
  magic "MBCR" (4 bytes), version u8 = 1, field kind u8 = 1 and modulus
  u16 = 0x11D (GF(256), the one field of share files; see file_params),
  n, k, d, r u16 each, node_id u16, stripe count u32, original_length
  u64, then the payload: one byte per symbol, stripe-major, each stripe
  in canonical share order. A record stores no stripe count: it is
  ceil(L / B), at least 1 (an empty file is one zero stripe), and the
  payload is that many stripes of alpha bytes. The writer refuses what
  the reader refuses: both check the node id and the payload size by one
  rule, _check_record.

Evaluation points are never serialized; they are recomputed
deterministically from the parameters.

The codec runs once per file, on columns (see gf), and takes no stripe
count: that is a file fact, known only here and in the CLI's messages.
The transpose lives here, in to_columns and from_columns: column t of
stripe-major bytes with w symbols per stripe is the slice data[t::w],
packed little-endian, and is written back through the same slice. The
one map between share files and column codec.Shares lives here too:
read_shares and write_shares.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Sequence

from .codec import CodeParams, Share, validate_params
from .errors import ParameterError, ShareFormatError
from .gf import GF256_REDUCTION_POLY, Field

MAGIC = b"MBCR"
VERSION = 1
FIELD_CODE = (1, GF256_REDUCTION_POLY)  # (kind, modulus) of GF(256)

_HEADER = struct.Struct("<4sBBHHHHHHIQ")
HEADER_SIZE = _HEADER.size


def file_params(n: int, k: int, d: int, r: int) -> CodeParams:
    """Validated share-file parameters: over GF(256), one byte per symbol."""
    return validate_params(n, k, d, r, Field.gf256())


@dataclass(frozen=True)
class ShareFile:
    params: CodeParams
    node_id: int
    original_length: int
    payload: bytes  # alpha symbols per stripe, one per byte

    def stripes(self) -> list[tuple[int, ...]]:
        a = self.params.share_size
        return [tuple(self.payload[s : s + a]) for s in range(0, len(self.payload), a)]


def _check_record(params: CodeParams, node_id: int, length: int, payload_size: int) -> int:
    """The stripe count of a record of length bytes, refused unless the
    node id is in [1, n] and the payload holds alpha symbols per stripe."""
    if not 1 <= node_id <= params.n:
        raise ShareFormatError(f"node id {node_id} is outside [1, {params.n}]")
    stripes = stripe_count(length, params.block_size)
    if payload_size != stripes * params.share_size:
        raise ShareFormatError(
            f"payload length {payload_size} does not match "
            f"{stripes} stripes of {params.share_size} symbols"
        )
    return stripes


def pack_share_file(sf: ShareFile) -> bytes:
    """The bytes of a record, refused unless parse_share_file reads them
    back as sf."""
    p = sf.params
    if p.field != Field.gf256():
        raise ShareFormatError(f"share files hold GF(256) symbols, not {p.field}")
    if not 0 <= sf.original_length < 2**64:
        raise ShareFormatError(
            f"recorded length {sf.original_length} is outside [0, 2^64)"
        )
    stripes = _check_record(p, sf.node_id, sf.original_length, len(sf.payload))
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        *FIELD_CODE,
        p.n,
        p.k,
        p.d,
        p.r,
        sf.node_id,
        stripes,
        sf.original_length,
    )
    return header + sf.payload


def parse_share_file(data: bytes) -> ShareFile:
    """Parse and validate a share file: field code, header parameters,
    stripe count against recorded length, node id and payload length
    (any byte is a GF(256) symbol)."""
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
        stripes,
        original_length,
    ) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ShareFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ShareFormatError(f"unsupported version {version}")
    if (kind, modulus) != FIELD_CODE:
        raise ShareFormatError(f"field kind {kind}, modulus {modulus:#x} is not GF(256)")
    try:
        params = file_params(n, k, d, r)
    except ParameterError as exc:
        raise ShareFormatError(f"invalid code parameters in header: {exc}") from None
    fills = stripe_count(original_length, params.block_size)
    if stripes != fills:
        raise ShareFormatError(
            f"stripe count is {stripes}, but a recorded length of "
            f"{original_length} fills {fills}"
        )
    _check_record(params, node_id, original_length, len(data) - HEADER_SIZE)
    return ShareFile(params, node_id, original_length, data[HEADER_SIZE:])


def atomic_write(path: str, data: bytes) -> None:
    """Write a temp file in the target directory, then rename it onto path.
    The temp file is created as open(path, "wb") creates a new file, with
    mode 0o666 less the umask. An OSError names path, not the temp file,
    with its errno and strerror; the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".mbcr-tmp-{os.urandom(8).hex()}")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def write_share_file(path: str, sf: ShareFile) -> None:
    atomic_write(path, pack_share_file(sf))


def read_share_file(path: str) -> ShareFile:
    with open(path, "rb") as fh:
        return parse_share_file(fh.read())


def read_shares(paths: Sequence[str]) -> tuple[CodeParams, int, int, list[Share]]:
    """A set of share files as (params, stripe count, recorded length, one
    column Share per file, in the order of paths). Refused unless every
    header carries the same code parameters and recorded length, naming
    the field that differs; the length fixes the stripe count. An empty
    set is refused too."""
    if not paths:
        raise ShareFormatError("no share files given")
    files = [read_share_file(path) for path in paths]
    ref = files[0]
    for attr, what in (("params", "code parameters"),
                       ("original_length", "recorded lengths")):
        if any(getattr(sf, attr) != getattr(ref, attr) for sf in files):
            raise ShareFormatError(f"share files carry mismatched {what}")
    p, length = ref.params, ref.original_length
    shares = [Share(sf.node_id, to_columns(sf.payload, p.share_size)) for sf in files]
    return p, stripe_count(length, p.block_size), length, shares


def write_shares(
    out_dir: str, shares: Sequence[Share], params: CodeParams, length: int
) -> None:
    """Create out_dir and write each column Share of a file of length bytes
    there as share_<id>.mbcr."""
    stripes = stripe_count(length, params.block_size)
    os.makedirs(out_dir, exist_ok=True)
    for s in shares:
        sf = ShareFile(params, s.node_id, length, from_columns(s.evals, stripes))
        write_share_file(os.path.join(out_dir, f"share_{s.node_id:03d}.mbcr"), sf)


def stripe_count(length: int, block_size: int) -> int:
    """Stripes of a file of length bytes; an empty file has one."""
    return max(1, -(-length // block_size))


def to_columns(data: bytes, width: int) -> tuple[int, ...]:
    """The width columns of stripe-major bytes, zero-padded to whole stripes.

    Column t packs symbol t of every stripe, stripe s in byte s.
    """
    data = data.ljust(stripe_count(len(data), width) * width, b"\x00")
    return tuple(int.from_bytes(data[t::width], "little") for t in range(width))


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
    """The first original_length bytes of the stripes, in order."""
    return b"".join(map(bytes, stripes))[:original_length]
