"""The hot loops behind every cyclotomic product (poly_mul_reduce) and every
local-ring product in a p-adic tower (tower_mul).  Each is a convolution
reduced from its top coefficient down, in place, by a monic modulus; no
product keeps a table."""


def reduce_by_stages(rem, stages):
    """rem mod the last of the monic stages, in place: long division by each
    stage in turn, from the top coefficient down.  A stage (top, low) is
    x^top + sum c x^i over its nonzero lower terms (i, c) in low.  Returns rem
    cut to the last stage's degree (or shorter, if it already was)."""
    for top, low in stages:
        for s in range(len(rem) - 1 - top, -1, -1):  # x^(s+top) = x^s (x^top - stage)
            c = rem[s + top]
            if c:
                for i, a in low:
                    rem[s + i] -= c * a
        del rem[top:]
    return rem


def poly_mul_reduce(a, b, stages):
    """Product of two length-d coefficient lists, reduced back to length d by
    the monic stages (reduce_by_stages), the last of which has degree d."""
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                c[i + j] += x * y
    return reduce_by_stages(c, stages)


def tower_mul(amat, bmat, G, E, modulus):
    """Product of two elements of (Z/modulus)[x, pi]/(G(x), E(pi)).

    amat and bmat are e x f matrices (lists of lists of ints): row j holds
    the x-coefficients of pi^j.  G (degree f) and E (degree e, with constant,
    x-free coefficients) are monic, ascending.  The product's pi-rows are
    reduced by G, each from its top x-coefficient down, and then the rows
    themselves by E from the top row down, in place.
    """
    e = len(amat)
    f = len(amat[0])
    rows = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for j1, arow in enumerate(amat):
        for j2, brow in enumerate(bmat):
            row = rows[j1 + j2]
            for i1, ai in enumerate(arow):
                if ai:
                    for i2, bi in enumerate(brow, i1):
                        row[i2] += ai * bi
    g_low, e_low = G[:-1], E[:-1]
    for row in rows:
        for top in range(2 * f - 2, f - 1, -1):
            if c := row[top] % modulus:
                for i, g in enumerate(g_low, top - f):
                    row[i] -= c * g
        del row[f:]
    for top in range(2 * e - 2, e - 1, -1):
        src = rows.pop()  # pi^top = pi^(top - e) (pi^e - E)
        for j, c in enumerate(e_low, top - e):
            if c:
                tgt = rows[j]
                for i, x in enumerate(src):
                    tgt[i] -= c * x
    return [[x % modulus for x in row] for row in rows]
