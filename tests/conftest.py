from mbcr.gf import Field, smallest_prime_at_least
from mbcr.poly import coeff_cells


def parameter_grid(n_max):
    """All valid (n, k, d, r) with n <= n_max."""
    for n in range(2, n_max + 1):
        for d in range(1, n):
            for r in range(1, n - d + 1):
                for k in range(1, d + 1):
                    yield (n, k, d, r)


def prime_for(n):
    return Field.prime(smallest_prime_at_least(n))


def monomial_row(p, x_node, y_node):
    """The reference generator row of F at (x of x_node, y of y_node),
    independent of the encoder: x^a * y^b for each data cell (a, b) in
    coeff_cells order, F's value there on each unit data block."""
    field, x, y = p.field, p.points[x_node - 1], p.points[y_node - 1]
    return tuple(
        field.mul(field.pow(x, a), field.pow(y, b)) for a, b in coeff_cells(p.k, p.d, p.r)
    )


def to_columns(stripes):
    """GF(256) columns of equal-length symbol tuples, one tuple per stripe:
    column t packs symbol t of stripe s into byte s. A one-stripe column
    is the symbol itself, which also holds for a prime field below 256."""
    return tuple(int.from_bytes(bytes(col), "little") for col in zip(*stripes))


def from_columns(columns, count):
    """The per-stripe symbol tuples of count-stripe columns."""
    unpacked = [c.to_bytes(count, "little") for c in columns]
    return [tuple(col[s] for col in unpacked) for s in range(count)]


def reference_echelon(field, rows, pivot_width):
    """Gauss-Jordan elimination, the reference for mbcr.subspace's kernel.

    Pivot search is limited to the first pivot_width columns; row
    operations span the full row width and clear each pivot column in
    every other row, so the first `rank` rows are the RREF basis.
    Returns (matrix, rank).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pr = 0
    for col in range(pivot_width):
        found = -1
        for row in range(pr, nrows):
            if m[row][col]:
                found = row
                break
        if found < 0:
            continue
        m[pr], m[found] = m[found], m[pr]
        inv = field.inv(m[pr][col])
        if inv != 1:
            m[pr] = [field.mul(inv, v) for v in m[pr]]
        for row in range(nrows):
            if row != pr and m[row][col]:
                factor = m[row][col]
                piv = m[pr]
                m[row] = [
                    field.sub(v, field.mul(factor, p)) for v, p in zip(m[row], piv)
                ]
        pr += 1
        if pr == nrows:
            break
    return m, pr


def reference_rank(space):
    return reference_echelon(space.field, space.rows, space.width)[1]


def reference_rref(space):
    """The RREF basis rows of space's span, by reference_echelon."""
    m, r = reference_echelon(space.field, space.rows, space.width)
    return tuple(map(tuple, m[:r]))
