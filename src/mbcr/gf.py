"""Finite-field arithmetic.

Two field families are supported: prime fields GF(p) for small,
hand-checkable parameters, and GF(256) for byte-oriented share files.
Elements are plain ints in [0, order); the field object carries the
arithmetic. Data can also be a GF(256) column: the little-endian packed
int of one symbol position across several stripes (stripe s in byte s).
Columns add by XOR and are multiplied by a constant with scale, which
maps every byte through that constant's 256-byte product table (a
pure-Python form of table-driven region multiply). A plain element is the
one-stripe column. GF(256) uses the storage-coding reduction polynomial
X^8 + X^4 + X^3 + X^2 + 1 (0x11D); changing it would break the share
file format.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .errors import FieldMismatchError

GF256_REDUCTION_POLY = 0x11D
_MAX_PRIME = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class Field:
    """Immutable finite field, either GF(p) or GF(256).

    The arithmetic is bound once, at construction, and trusts its
    operands: add, sub, neg, mul, inv and pow take ints in [0, order)
    and do not check them. scale(v, c) multiplies data v (an element, or
    over GF(256) a column) by a constant element c; over GF(256) add and
    sub also take columns. Symbols from outside the
    library are checked where they enter it, with check_elements. All
    operations are pure; instances are safe to share across threads.
    """

    __slots__ = (
        "kind", "order", "modulus", "add", "sub", "neg", "mul", "inv", "pow", "scale",
    )

    def __init__(self, kind: str, modulus: int):
        if kind == "prime":
            if not (2 <= modulus <= _MAX_PRIME) or not is_prime(modulus):
                raise ValueError(f"modulus {modulus} is not a prime in [2, 2^16]")
            self.order = modulus
            ops = _prime_ops(modulus)
        elif kind == "binary":
            if modulus != GF256_REDUCTION_POLY:
                raise ValueError(
                    f"GF(256) reduction polynomial must be {GF256_REDUCTION_POLY:#x}"
                )
            self.order = 256
            ops = _gf256_ops()
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.modulus = modulus
        self.add, self.sub, self.neg, self.mul, self.inv, self.pow, self.scale = ops

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls("prime", p)

    @classmethod
    def gf256(cls) -> "Field":
        return cls("binary", GF256_REDUCTION_POLY)

    def __reduce__(self):
        # The bound closures do not pickle; rebuild the field from its data.
        return (Field, (self.kind, self.modulus))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"GF({self.order})"

    def check_elements(self, symbols: Iterable[int], stripes: int = 1) -> None:
        """Raise FieldMismatchError unless every symbol is a field element,
        or, for stripes > 1, a GF(256) column of that many stripes."""
        if stripes == 1:
            bound, what = self.order, f"an element of {self}"
        elif self.kind == "binary":
            bound, what = 256**stripes, f"a {stripes}-stripe column over {self}"
        else:
            raise FieldMismatchError(f"{self} symbols do not pack into columns")
        for a in symbols:
            if not isinstance(a, int) or not 0 <= a < bound:
                raise FieldMismatchError(f"{a!r} is not {what}")


def _prime_ops(p: int):
    """(add, sub, neg, mul, inv, pow, scale) of GF(p); scale is mul."""

    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"no inverse of 0 in GF({p})")
        return pow(a, p - 2, p)

    def power(a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        return pow(a, e, p)

    def mul(a: int, b: int) -> int:
        return a * b % p

    return (
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a: -a % p,
        mul,
        inv,
        power,
        mul,
    )


@lru_cache(maxsize=1)
def _gf256_ops():
    """(add, sub, neg, mul, inv, pow, scale) of GF(256), from log/exp tables
    and, for scale, one 256-byte product table per constant.

    Built once per process.
    """
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF256_REDUCTION_POLY
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    def mul(a: int, b: int) -> int:
        if a and b:
            return exp[log[a] + log[b]]
        return 0

    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(256)")
        return exp[255 - log[a]]

    def power(a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        return exp[(log[a] * e) % 255]

    # tables[c] maps every byte a to a*c: the units a = exp[i], listed in
    # log order, go to exp[i + log c].
    exp_bytes = bytes(exp)
    units = exp_bytes[:255]
    tables = [bytes(256)] + [
        bytes.maketrans(units, exp_bytes[log[c] : log[c] + 255]) for c in range(1, 256)
    ]
    from_bytes = int.from_bytes

    def scale(v: int, c: int) -> int:
        if v < 256:
            return tables[c][v]
        size = (v.bit_length() + 7) >> 3
        return from_bytes(v.to_bytes(size, "little").translate(tables[c]), "little")

    return operator.xor, operator.xor, lambda a: a, mul, inv, power, scale
