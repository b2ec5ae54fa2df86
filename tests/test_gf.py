import copy
import pickle
import random
import threading
import time
from itertools import product

import pytest

from mbcr import gf
from mbcr.errors import FieldMismatchError
from mbcr.gf import (
    GF256_REDUCTION_POLY,
    Field,
    is_prime,
    smallest_prime_at_least,
)


def clmul(a, b):
    """Carry-less multiplication oracle."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mod(a, m):
    """Reduce the bit-polynomial a modulo m."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf2_poly_inverse(a, m):
    """Extended Euclid over GF(2)[X] modulo m."""

    def divmod2(num, den):
        q = 0
        while num.bit_length() >= den.bit_length() and num:
            shift = num.bit_length() - den.bit_length()
            q ^= 1 << shift
            num ^= den << shift
        return q, num

    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1:
        q, rem = divmod2(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 ^ poly_mod(clmul(q, s1), m)
    assert r0 == 1
    return s0


def test_prime_add_mul_examples():
    f = Field.prime(7)
    assert f.add(3, 5) == 1
    assert f.add(0, 4) == 4
    assert f.mul(3, 5) == 1
    assert f.mul(1, 6) == 6


def test_gf256_add_is_self_inverse():
    f = Field.gf256()
    for x in range(256):
        assert f.add(x, x) == 0


def test_gf256_mul_against_clmul_oracle():
    f = Field.gf256()
    # 0x02 * 0x80 exercises the reduction of X^8.
    assert f.mul(0x02, 0x80) == poly_mod(clmul(0x02, 0x80), GF256_REDUCTION_POLY)
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert f.mul(a, b) == poly_mod(clmul(a, b), GF256_REDUCTION_POLY)


def test_gf256_mul_is_the_log_exp_product_on_every_pair():
    # The reference: a * b = exp(log a + log b) for nonzero a and b, with
    # the log/exp tables of the generator 2 built here.
    exp, log, x = [], {}, 1
    for i in range(255):
        exp.append(x)
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF256_REDUCTION_POLY
    f = Field.gf256()
    for a in range(256):
        want = [exp[(log[a] + log[b]) % 255] if a and b else 0 for b in range(256)]
        assert [f.mul(a, b) for b in range(256)] == want


def test_gf256_scale_equals_mul_on_every_pair():
    f = Field.gf256()
    for c in range(256):
        assert [f.scale(a, c) for a in range(256)] == [f.mul(a, c) for a in range(256)]


def test_gf256_scale_maps_every_stripe_of_a_column():
    # Columns pack stripe s into byte s; high stripes that are zero are
    # leading zero bytes, which the packed int does not hold.
    f = Field.gf256()
    rng = random.Random(5)
    for stripes in (1, 2, 7, 300):
        for zero_tail in (0, 1, stripes - 1):
            symbols = [rng.randrange(1, 256) for _ in range(stripes - zero_tail)]
            symbols += [0] * zero_tail
            column = int.from_bytes(bytes(symbols), "little")
            for c in (0, 1, 2, rng.randrange(256)):
                got = f.scale(column, c).to_bytes(stripes, "little")
                assert list(got) == [f.mul(a, c) for a in symbols]
    # A top byte of 1 is the shortest byte of its bit length.
    assert f.scale(0x01_07, 3).to_bytes(2, "little") == bytes([f.mul(7, 3), 3])


def test_prime_scale_is_mul():
    f = Field.prime(13)
    for a, c in product(range(13), repeat=2):
        assert f.scale(a, c) == f.mul(a, c)


def test_check_elements_takes_any_gf256_column_and_only_gf_p_elements():
    # Over GF(256) a symbol is a column of any width, a plain element being
    # the one-stripe column; over GF(p) it is an element, even for p > 256.
    f = Field.gf256()
    f.check_elements([0, 255, 256, 256**3 - 1, 256**300])
    for field, bad, what in (
        (f, -1, "a column over GF"), (f, 1.0, "a column over GF"), (f, "1", "a column over GF"),
        (Field.prime(7), -1, "an element of GF"),
    ):
        with pytest.raises(FieldMismatchError, match=f"is not {what}"):
            field.check_elements([0, bad])
    for p in (7, 65521):
        Field.prime(p).check_elements([0, p - 1])
        with pytest.raises(FieldMismatchError, match=f"{p} is not an element of GF"):
            Field.prime(p).check_elements([p])
        with pytest.raises(FieldMismatchError, match="is not an element of GF"):
            Field.prime(p).check_elements([256**2])


def test_prime_inverse():
    f = Field.prime(7)
    assert f.inv(3) == 5
    assert f.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_gf256_inverse_exhaustive_against_euclid_oracle():
    f = Field.gf256()
    for a in range(1, 256):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert inv == gf2_poly_inverse(a, GF256_REDUCTION_POLY)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_axioms_exhaustive(p):
    f = Field.prime(p)
    elems = range(p)
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_gf256_field_axioms_sampled():
    f = Field.gf256()
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, 0) == a and f.mul(a, 1) == a


def test_pow_matches_repeated_mul():
    for f in (Field.prime(11), Field.gf256()):
        rng = random.Random(2)
        for _ in range(50):
            a, e = rng.randrange(f.order), rng.randrange(12)
            expect = 1
            for _ in range(e):
                expect = f.mul(expect, a)
            assert f.pow(a, e) == expect


@pytest.mark.parametrize("field", [Field.prime(11), Field.gf256()], ids=str)
def test_pow_refuses_a_negative_exponent(field):
    # Python's pow(3, -1, 11) is the inverse of 3; Field.pow does not pass
    # a negative exponent on.
    with pytest.raises(ValueError, match="negative exponent"):
        field.pow(3, -1)


def test_gf256_zero_to_a_positive_power_is_zero():
    # 0 has no logarithm, so the log table cannot give its powers.
    gf256 = Field.gf256()
    assert gf256.pow(0, 0) == 1
    assert [gf256.pow(0, e) for e in (1, 2, 255, 256)] == [0, 0, 0, 0]


def test_field_constructor_validation():
    with pytest.raises(ValueError):
        Field.prime(6)
    # A float is refused before the lookup, though 7.0 == 7 and hashes alike.
    with pytest.raises(ValueError):
        Field.prime(7.5)
    with pytest.raises(ValueError):
        Field.prime(7.0)
    # 256 is not prime, so it does not find GF(256) in the field table.
    with pytest.raises(ValueError):
        Field.prime(256)


def test_each_field_is_made_once():
    assert Field.prime(11) is Field.prime(11)
    assert Field.gf256() is Field.gf256()
    assert Field.prime(11) != Field.prime(13)


@pytest.mark.parametrize("make", [lambda: Field.prime(11), Field.gf256])
def test_copies_and_pickles_are_the_same_field(make):
    field = make()
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    assert pickle.loads(pickle.dumps(field)) is field


def test_threads_making_one_field_get_one_object(monkeypatch):
    # Both threads miss the field table while the ops are slowly built.
    monkeypatch.delitem(gf._FIELDS, 65519, raising=False)
    prime_ops = gf._prime_ops

    def slow_prime_ops(p):
        time.sleep(0.05)
        return prime_ops(p)

    monkeypatch.setattr(gf, "_prime_ops", slow_prime_ops)
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(Field.prime(65519))) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(got) == 2 and got[0] is got[1]


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
    assert smallest_prime_at_least(7) == 7
    assert smallest_prime_at_least(8) == 11
