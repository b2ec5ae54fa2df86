import random

import pytest

from mbcr.errors import InterpolationError
from mbcr.gf import Field
from mbcr.poly import BiPoly, coeff_cells, eval_poly, interpolate

GF7 = Field.prime(7)


def test_eval_poly_examples():
    # 1 + Y at 2 over GF(7)
    assert eval_poly(GF7, (1, 1), 2) == 3
    assert eval_poly(GF7, (5,), 3) == 5
    assert eval_poly(GF7, (4, 2, 6), 0) == 4


def test_interpolate_two_points_against_vandermonde_oracle():
    # Solve [[1, x0], [1, x1]] [c0, c1] = [y0, y1] by hand over GF(7).
    pts = [(1, 2), (2, 3)]
    (x0, y0), (x1, y1) = pts
    det = GF7.sub(x1, x0)
    c1 = GF7.mul(GF7.sub(y1, y0), GF7.inv(det))
    c0 = GF7.sub(y0, GF7.mul(c1, x0))
    assert (c0, c1) == (1, 1)
    assert interpolate(GF7, pts, 2) == (1, 1)


def test_interpolate_single_point_is_constant():
    assert interpolate(GF7, [(4, 5)], 1) == (5,)


@pytest.mark.parametrize("field", [GF7, Field.prime(13), Field.gf256()])
def test_interpolation_round_trip(field):
    rng = random.Random(3)
    for m in range(1, 8):
        for _ in range(20):
            coeffs = tuple(rng.randrange(field.order) for _ in range(m))
            xs = rng.sample(range(field.order), m)
            pts = [(x, eval_poly(field, coeffs, x)) for x in xs]
            assert interpolate(field, pts, m) == coeffs


def test_interpolation_uniqueness():
    # Two degree-<m polynomials agreeing on m points are identical.
    rng = random.Random(4)
    for _ in range(30):
        m = rng.randrange(1, 6)
        coeffs = tuple(rng.randrange(7) for _ in range(m))
        xs = rng.sample(range(7), m)
        pts = [(x, eval_poly(GF7, coeffs, x)) for x in xs]
        assert interpolate(GF7, pts, m) == coeffs


def test_interpolate_errors():
    with pytest.raises(InterpolationError):
        interpolate(GF7, [(1, 2)], 2)
    with pytest.raises(InterpolationError):
        interpolate(GF7, [(1, 2), (1, 3)], 2)


def test_bipoly_layout_and_eval():
    # k=1, d=1, r=1: F = c00 + c01*Y
    F = BiPoly.from_coeffs((1, 1), 1, 1, 1)
    assert F.coeffs == (1, 1)
    assert F.f_at(GF7, 5) == (1, 1)  # F(5, Y) = 1 + Y
    assert F.g_at(GF7, 2) == (3,)  # F(X, 2) = 3
    assert F.eval(GF7, 1, 2) == 3


def test_bipoly_zero_and_count():
    k, d, r = 2, 3, 2
    total = k * (2 * d + r - k)
    F = BiPoly.from_coeffs((0,) * total, k, d, r)
    for x in range(7):
        for y in range(7):
            assert F.eval(GF7, x, y) == 0
    with pytest.raises(ValueError):
        BiPoly.from_coeffs((0,) * (total - 1), k, d, r)


def test_bipoly_coeffs_round_trip():
    # Coefficient t of the flat sequence is the X^i Y^j term of cell t:
    # it adds x^i at Y^j of f_at(x) and y^j at X^i of g_at(y).
    rng = random.Random(5)
    for k, d, r in [(1, 1, 1), (2, 3, 2), (3, 3, 1), (1, 2, 3)]:
        total = k * (2 * d + r - k)
        coeffs = tuple(rng.randrange(7) for _ in range(total))
        assert BiPoly.from_coeffs(coeffs, k, d, r).coeffs == coeffs
        cells = list(coeff_cells(k, d, r))
        assert len(cells) == len(set(cells)) == total
        for t, (i, j) in enumerate(cells):
            unit = BiPoly.from_coeffs(
                tuple(int(u == t) for u in range(total)), k, d, r
            )
            x, y = rng.randrange(1, 7), rng.randrange(1, 7)
            f, g = [0] * (d + r), [0] * d
            f[j], g[i] = GF7.pow(x, i), GF7.pow(y, j)
            assert unit.f_at(GF7, x) == tuple(f)
            assert unit.g_at(GF7, y) == tuple(g)


def direct_eval(field, F, x, y):
    """Sum of c * x^i * y^j over the coefficient cells."""
    acc = 0
    for (i, j), c in zip(coeff_cells(F.k, F.d, F.r), F.coeffs):
        acc = field.add(acc, field.mul(c, field.mul(field.pow(x, i), field.pow(y, j))))
    return acc


def test_bipoly_restrictions_match_direct_eval():
    # F(x0, Y) as a univariate in Y, and F(X, y0) in X, agree with the
    # direct monomial sum.
    rng = random.Random(6)
    k, d, r = 2, 3, 2
    total = k * (2 * d + r - k)
    F = BiPoly.from_coeffs(tuple(rng.randrange(7) for _ in range(total)), k, d, r)
    for x0 in range(7):
        fy = F.f_at(GF7, x0)
        assert len(fy) == d + r
        for y in range(7):
            assert eval_poly(GF7, fy, y) == direct_eval(GF7, F, x0, y)
    for y0 in range(7):
        gx = F.g_at(GF7, y0)
        assert len(gx) == d
        for x in range(7):
            assert eval_poly(GF7, gx, x) == direct_eval(GF7, F, x, y0)


def test_brute_force_eval_oracle():
    # Direct sum over monomials equals the column-Horner evaluation.
    rng = random.Random(7)
    k, d, r = 2, 2, 3
    total = k * (2 * d + r - k)
    coeffs = tuple(rng.randrange(7) for _ in range(total))
    F = BiPoly.from_coeffs(coeffs, k, d, r)
    for x in range(7):
        for y in range(7):
            expect = 0
            for (i, j), c in zip(coeff_cells(k, d, r), coeffs):
                expect = GF7.add(
                    expect, GF7.mul(c, GF7.mul(GF7.pow(x, i), GF7.pow(y, j)))
                )
            assert F.eval(GF7, x, y) == expect
