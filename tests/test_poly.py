import random

import pytest

from mbcr import poly
from mbcr.errors import InterpolationError
from mbcr.gf import Field
from mbcr.poly import (
    BiPoly, coeff_cells, eval_poly, evaluate, interpolate, lagrange_at, lagrange_basis, resample
)

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
    assert interpolate(GF7, pts) == (1, 1)


def test_interpolate_single_point_is_constant():
    assert interpolate(GF7, [(4, 5)]) == (5,)


@pytest.mark.parametrize("field", [GF7, Field.prime(13), Field.gf256()])
def test_interpolation_round_trip(field):
    rng = random.Random(3)
    for m in range(1, 8):
        for _ in range(20):
            coeffs = tuple(rng.randrange(field.order) for _ in range(m))
            xs = rng.sample(range(field.order), m)
            pts = [(x, eval_poly(field, coeffs, x)) for x in xs]
            assert interpolate(field, pts) == coeffs


def test_interpolation_uniqueness():
    # Two degree-<m polynomials agreeing on m points are identical.
    rng = random.Random(4)
    for _ in range(30):
        m = rng.randrange(1, 6)
        coeffs = tuple(rng.randrange(7) for _ in range(m))
        xs = rng.sample(range(7), m)
        pts = [(x, eval_poly(GF7, coeffs, x)) for x in xs]
        assert interpolate(GF7, pts) == coeffs


def test_interpolate_with_top_coefficients_fits_the_low_ones():
    # The points fix the coefficients below degree len(points) once the ones
    # above are given: on elements, and on GF(256) columns of 3 stripes.
    rng = random.Random(6)
    gf = Field.gf256()
    for field, top_size, symbol in ((GF7, 2, 7), (gf, 3, 256), (gf, 2, 2**24)):
        for m in (1, 3):
            for _ in range(5):
                coeffs = tuple(rng.randrange(1, symbol) for _ in range(m + top_size))
                xs = tuple(rng.sample(range(1, field.order), m))
                pts = list(zip(xs, evaluate(field, coeffs, xs)))
                assert interpolate(field, pts, coeffs[m:]) == coeffs


def test_permuted_points_share_one_lagrange_basis():
    # Repair passes its points in seeded helper order; every order of one
    # point set gives the same polynomial from the one cached basis.
    rng = random.Random(5)
    field = Field.gf256()
    coeffs = tuple(rng.randrange(256) for _ in range(6))
    pts = [(x, eval_poly(field, coeffs, x)) for x in rng.sample(range(256), 6)]
    assert interpolate(field, pts) == coeffs
    misses = lagrange_basis.cache_info().misses
    for _ in range(10):
        rng.shuffle(pts)
        assert interpolate(field, pts) == coeffs
    assert lagrange_basis.cache_info().misses == misses


def by_stripe(fn, values, stripes):
    """fn applied to each stripe's bytes of the columns, packed back."""
    outs = [fn([v >> 8 * s & 0xFF for v in values]) for s in range(stripes)]
    return tuple(sum(b << 8 * s for s, b in enumerate(col)) for col in zip(*outs))


class CountingTables:
    """Field.tables that counts its lookups: one per multiply."""

    def __init__(self, tables):
        self.tables, self.lookups = tables, 0

    def __getitem__(self, c):
        self.lookups += 1
        return self.tables[c]


def translates(rows, values):
    """The multiplies of each form of poly._apply: packed (GF(256) only),
    one per nonzero byte of an input; per element, one per nonzero input
    and weight above 1."""
    size = (max(values, default=0).bit_length() + 7) >> 3
    packed = sum(b != 0 for v in values for b in v.to_bytes(size, "little"))
    per_element = sum(v != 0 and c > 1 for v, row in zip(values, rows) for c in row)
    return packed, per_element


@pytest.mark.parametrize("m", [1, 2, 5, 10, 14, 23])
def test_packed_and_per_element_forms_agree(m):
    # Columns of mixed widths: some are below 256, and in one case all of
    # them are, so the stripes the kernel sees vary from call to call.
    field, rng = Field.gf256(), random.Random(m)
    xs = tuple(rng.sample(range(256), m))
    at = tuple(rng.sample(range(256), 9))
    values = [rng.randrange(256) for _ in range(m)]
    assert evaluate(field, values, at) == tuple(eval_poly(field, values, x) for x in at)
    f = interpolate(field, list(zip(xs, values)))
    assert evaluate(field, f, xs) == tuple(values)
    for stripes, wide in ((3, 0.5), (3, 0.0), (40, 0.8)):
        cols = [
            rng.randrange(256 ** stripes) if rng.random() < wide else rng.randrange(256)
            for _ in range(m)
        ]
        want = by_stripe(lambda ys: interpolate(field, list(zip(xs, ys))), cols, stripes)
        assert interpolate(field, list(zip(xs, cols))) == want
        want = by_stripe(lambda c: evaluate(field, c, at), cols, stripes)
        assert tuple(evaluate(field, cols, at)) == want


def test_each_map_picks_its_form_from_its_outputs_and_stripes(monkeypatch):
    # interpolate (10 outputs), evaluate and resample (14 each) on columns
    # of 0 stripes (all zero), 1, 2, each map's output count +- 1 and 40
    # equal a per-stripe scalar run, which runs one more stripe, zero in
    # every column. Below its output count the packed form runs, from it on
    # the per-element form: the map's table lookups are that form's count.
    # About half the bytes are zero, so the two counts differ where the
    # form changes, and a map that picks the other form there fails.
    field, rng = Field.gf256(), random.Random(19)
    xs = tuple(rng.sample(range(1, 256), 10))
    at = (*xs[:4], *rng.sample([t for t in range(256) if t not in xs], 10))
    maps = (
        (10, lambda v: interpolate(field, list(zip(xs, v)))),
        (14, lambda v: evaluate(field, v, at)),
        (14, lambda v: resample(field, list(zip(xs, v)), at)),
    )
    tables, calls, apply = CountingTables(field.tables), [], poly._apply
    monkeypatch.setattr(field, "tables", tables)
    monkeypatch.setattr(poly, "_apply", lambda *args: calls.append(args) or apply(*args))
    for outputs, fn in maps:
        for stripes in (0, 1, 2, outputs - 1, outputs, outputs + 1, 40):
            cols = [int.from_bytes(bytes(rng.choice((0, rng.randrange(256)))
                                         for _ in range(stripes)), "little")
                    for _ in range(10)]
            cols[rng.randrange(10)] |= 0xFF << 8 * stripes >> 8  # the top stripe is set
            calls.clear()
            before = tables.lookups
            got = fn(cols)
            [(_, rows, values, width)] = calls
            packed, per_element = translates(rows, values)
            assert width == outputs
            assert tables.lookups - before == (packed if stripes < outputs else per_element)
            assert stripes not in (outputs - 1, outputs) or packed != per_element
            assert got == by_stripe(fn, cols, stripes + 1)


@pytest.mark.parametrize("field", [GF7, Field.gf256()], ids=str)
def test_maps_with_no_inputs_or_no_outputs(field):
    # No targets give no values; no coefficients are the zero polynomial,
    # as are no points; and no points fit a polynomial with no coefficients.
    assert resample(field, [(1, 3), (2, 5)], ()) == ()
    assert evaluate(field, (), (1, 2, 3)) == (0, 0, 0)
    assert resample(field, [], (1, 2)) == (0, 0)
    assert interpolate(field, []) == ()


def test_gf256_kernel_is_the_sum_of_scale_products():
    # poly._apply on random maps, a third of whose weights are 0 and a third
    # 1, of widths 1-24, on columns of 0-40 stripes (so on both sides of
    # every width, where the form changes), against the plain sum of
    # Field.scale products.
    field, rng = Field.gf256(), random.Random(29)
    for width in range(1, 25):
        for stripes in range(41):
            m = rng.randrange(1, 9)
            rows = [
                bytes(rng.choice((0, 1, rng.randrange(2, 256))) for _ in range(width))
                for _ in range(m)
            ]
            values = [rng.randrange(256 ** rng.randrange(stripes + 1)) for _ in range(m)]
            values[rng.randrange(m)] = rng.randrange(256**stripes)
            want = [0] * width
            for v, row in zip(values, rows):
                for o, c in enumerate(row):
                    want[o] ^= field.scale(v, c)
            assert poly._apply(field, rows, values, width) == tuple(want)


def test_the_kernel_multiplies_only_nonzero_inputs_by_weights_above_1(monkeypatch):
    # Per element, one multiply per nonzero input and weight > 1: a weight
    # of 0 and a zero input add nothing, and a weight of 1 copies. Packed,
    # over GF(256), one per nonzero byte of an input, while its inputs span
    # fewer stripes than the map has outputs. GF(p) multiplies by
    # Field.scale, GF(256) by a lookup in Field.tables.
    gf256, rng = Field.gf256(), random.Random(31)
    tables = CountingTables(gf256.tables)
    monkeypatch.setattr(gf256, "tables", tables)
    scales = []
    monkeypatch.setattr(GF7, "scale", lambda v, c: scales.append(c) or GF7.mul(v, c))

    def check(field, count, rows, values, width):
        size = (max(values).bit_length() + 7) >> 3
        packed, per_element = translates(rows, values)
        before = count()
        poly._apply(field, rows, values, width)
        assert count() - before == (packed if field is gf256 and size < width else per_element)
        return packed, per_element

    for field, count, top in ((GF7, lambda: len(scales), 7), (gf256, lambda: tables.lookups, 256)):
        for width in range(1, 13):
            for stripes in range(1 if field is GF7 else 8):
                m = rng.randrange(1, 6)
                rows = [[rng.choice((0, 1, rng.randrange(2, top))) for _ in range(width)]
                        for _ in range(m)]
                if field is gf256:
                    rows = list(map(bytes, rows))
                values = [rng.choice((0, rng.randrange(top ** (stripes + 1)))) for _ in range(m)]
                check(field, count, rows, values, width)

    # Where the form changes, inputs of width - 1 and of width stripes
    # with no zero byte, on rows of weights above 1 but for one 1 at
    # size == width, so that the two forms' counts differ there.
    for width in range(1, 15):
        for size in (width - 1, width):
            m = rng.randrange(1, 6)
            ones = int(size == width)
            rows = [bytes([1] * ones + [rng.randrange(2, 256) for _ in range(width - ones)])
                    for _ in range(m)]
            values = [int.from_bytes(bytes(rng.randrange(1, 256) for _ in range(size)), "little")
                      for _ in range(m)]
            packed, per_element = check(gf256, lambda: tables.lookups, rows, values, width)
            assert size == 0 or packed != per_element


def test_interpolate_errors():
    with pytest.raises(InterpolationError):
        interpolate(GF7, [(1, 2), (1, 3)])


@pytest.mark.parametrize("field", [GF7, Field.prime(257), Field.gf256()])
def test_resample_is_evaluate_of_interpolate(field):
    # Targets both inside and outside the point set, on elements and over
    # GF(256) on 5-stripe columns.
    rng = random.Random(field.order)
    for m in range(1, 7):
        for _ in range(10):
            xs = rng.sample(range(field.order), m)
            targets = tuple(rng.sample(xs, rng.randrange(m + 1)))
            targets += tuple(rng.sample(range(field.order), 4))
            values = [rng.randrange(field.order) for _ in range(m)]
            want = evaluate(field, interpolate(field, list(zip(xs, values))), targets)
            assert resample(field, list(zip(xs, values)), targets) == want
            if field.kind == "binary":
                cols = [rng.randrange(256**5) for _ in range(m)]
                pts = list(zip(xs, cols))
                want = by_stripe(lambda ys: resample(field, list(zip(xs, ys)), targets), cols, 5)
                assert resample(field, pts, targets) == want
                assert resample(field, pts, tuple(xs)) == tuple(cols)


def test_permuted_points_share_one_lagrange_at_entry():
    rng = random.Random(6)
    field = Field.gf256()
    coeffs = tuple(rng.randrange(256) for _ in range(6))
    pts = [(x, eval_poly(field, coeffs, x)) for x in rng.sample(range(256), 6)]
    targets = tuple(range(1, 11))
    want = evaluate(field, coeffs, targets)
    assert resample(field, pts, targets) == want
    misses = lagrange_at.cache_info().misses
    for _ in range(10):
        rng.shuffle(pts)
        assert resample(field, pts, targets) == want
    assert lagrange_at.cache_info().misses == misses


def test_resample_rejects_duplicate_x():
    with pytest.raises(InterpolationError, match="duplicate"):
        resample(GF7, [(1, 2), (1, 3)], (0, 4))


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
